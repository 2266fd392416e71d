/**
 * @file
 * Figure 1: top-site category shares (the Alexa-derived survey that
 * selects the three application domains the workloads are drawn from).
 */

#include <cstdio>

#include "core/domain_catalog.h"
#include "util/string_util.h"
#include "util/table.h"

int
main(int argc, char** argv)
{
    dcb::util::expect_at_most_arguments(argc, argv, 0);
    using namespace dcb;
    util::Table table({"domain", "share of top sites"});
    table.set_title("Figure 1: top sites in the web by category");
    for (const auto& share : core::domain_shares()) {
        table.add_row({share.domain,
                       util::format_double(100.0 * share.share, 0) + "%"});
    }
    table.print();
    std::printf("\nThe top three domains (search engine, social network,"
                "\nelectronic commerce) motivate the workload selection;\n"
                "see tab2_scenarios for the workload/domain matrix.\n");
    return 0;
}

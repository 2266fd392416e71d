/**
 * @file
 * Table II: application scenarios of the data-analysis workloads across
 * the three headline domains (search engine, social network, electronic
 * commerce) -- the evidence that most chosen workloads are
 * *intersections* of the domains.
 */

#include <cstdio>
#include <set>

#include "core/domain_catalog.h"
#include "util/string_util.h"
#include "util/table.h"
#include "workloads/registry.h"

int
main(int argc, char** argv)
{
    dcb::util::expect_at_most_arguments(argc, argv, 0);
    using namespace dcb;
    util::Table table({"Workload", "Domain", "Scenario"});
    table.set_title("Table II: scenarios of data analysis");
    for (const auto& s : core::scenario_catalog())
        table.add_row({s.workload, s.domain, s.scenario});
    table.print();

    std::printf("\nworkload domain coverage:\n");
    for (const auto& name :
         workloads::names_in_category(workloads::Category::kDataAnalysis)) {
        std::set<std::string> domains;
        for (const auto& s : core::scenarios_for(name))
            domains.insert(s.domain);
        std::printf("  %-14s %zu domain(s)\n", name.c_str(),
                    domains.size());
    }
    return 0;
}

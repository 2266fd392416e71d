/**
 * @file
 * Cluster-scaling example: sweep slave counts for one (or every)
 * data-analysis workload through the cluster simulator -- the search
 * engine / e-commerce capacity-planning question the paper's Figure 2
 * answers ("how much faster does my nightly job get if I grow the
 * cluster?").
 *
 *   ./cluster_speedup [workload|all] [max-slaves]
 */

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "core/dcbench.h"
#include "workloads/registry.h"
#include "util/string_util.h"
#include "util/table.h"

namespace {

void
sweep(const dcb::mapreduce::JobSpec& spec, std::uint32_t max_slaves)
{
    dcb::mapreduce::ClusterSimulator sim;
    dcb::mapreduce::ClusterConfig cluster;
    dcb::util::Table table(
        {"slaves", "total (s)", "map (s)", "shuffle (s)", "reduce (s)",
         "speedup"});
    table.set_title("scaling " + spec.name);
    for (std::uint32_t s = 1; s <= max_slaves; s *= 2) {
        cluster.slaves = s;
        const auto t = sim.run(spec, cluster);
        table.add_row({std::to_string(s),
                       dcb::util::format_double(t.total_s, 1),
                       dcb::util::format_double(t.map_s, 1),
                       dcb::util::format_double(t.shuffle_s, 1),
                       dcb::util::format_double(t.reduce_s, 1),
                       dcb::util::format_double(
                           sim.speedup(spec, cluster, s), 2)});
    }
    table.print();
    std::printf("\n");
}

}  // namespace

int
main(int argc, char** argv)
{
    dcb::util::expect_at_most_arguments(argc, argv, 2);
    const std::string which = argc > 1 ? argv[1] : "all";
    // The sweep doubles a 32-bit slave count up to max-slaves, so the
    // bound keeps it from wrapping.
    std::uint32_t max_slaves = 16;
    if (argc > 2) {
        const auto parsed = dcb::util::parse_count(argv[2]);
        if (!parsed || *parsed == 0 || *parsed > (1u << 20)) {
            std::fprintf(stderr, "error: max-slaves is not a whole number "
                                 "in 1..1048576: %s\n", argv[2]);
            return 2;
        }
        max_slaves = static_cast<std::uint32_t>(*parsed);
    }

    const std::vector<std::string> names =
        dcb::workloads::names_in_category(
            dcb::workloads::Category::kDataAnalysis);
    if (which != "all" &&
        std::find(names.begin(), names.end(), which) == names.end()) {
        std::fprintf(stderr,
                     "error: unknown workload: %s (valid: all, %s)\n",
                     which.c_str(), dcb::util::join(names, ", ").c_str());
        return 2;
    }
    for (const auto& name : names) {
        if (which != "all" && which != name)
            continue;
        const auto workload = dcb::workloads::make_workload(name);
        sweep(workload->info().cluster_spec, max_slaves);
    }
    return 0;
}

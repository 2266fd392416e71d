/**
 * @file
 * Figure 5: disk writes per second for the data-analysis workloads
 * (per-slave device write requests over the simulated job duration).
 *
 * Paper shape: Sort is by far the highest (its output equals its input,
 * so every stage writes), with everything else an order of magnitude
 * lower.
 */

#include "bench_common.h"

#include "workloads/registry.h"

#include "util/csv.h"
#include "util/string_util.h"
#include "util/table.h"

int
main(int argc, char** argv)
{
    dcb::util::expect_at_most_arguments(argc, argv, 0);
    using namespace dcb;
    using util::format_double;

    mapreduce::ClusterSimulator sim;
    mapreduce::ClusterConfig cluster;  // the paper's 4-slave cluster

    util::Table table({"workload", "writes/s (measured)",
                       "writes/s (paper)"});
    table.set_title("Figure 5: disk writes per second per slave");
    util::CsvWriter csv({"workload", "measured", "paper"});

    double sort_rate = 0.0;
    double max_other = 0.0;
    for (const std::string& name :
         workloads::names_in_category(workloads::Category::kDataAnalysis)) {
        const auto workload = workloads::make_workload(name);
        const auto timings = sim.run(workload->info().cluster_spec,
                                     cluster);
        const double rate = timings.disk_writes_per_second;
        table.add_row({name, format_double(rate, 1),
                       format_double(
                           core::paper_disk_writes_per_second(name), 0)});
        csv.add_row({name, format_double(rate, 3),
                     format_double(
                         core::paper_disk_writes_per_second(name), 1)});
        if (name == "Sort")
            sort_rate = rate;
        else
            max_other = std::max(max_other, rate);
    }
    table.print();
    csv.write_file("fig05_diskwrites.csv");

    std::printf("\nSort: %.1f writes/s; next-highest workload: %.1f\n\n",
                sort_rate, max_other);
    core::shape_check("Sort has the highest disk write rate",
                      sort_rate > max_other);
    return 0;
}

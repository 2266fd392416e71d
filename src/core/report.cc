#include "core/report.h"

#include <cstdio>
#include <utility>

#include "util/csv.h"
#include "util/string_util.h"
#include "util/table.h"

namespace dcb::core {

void
print_figure_table(const std::string& title,
                   const std::vector<cpu::CounterReport>& reports,
                   const std::string& metric_header,
                   const MetricGetter& measured, const PaperGetter& paper,
                   int decimals, const std::string& csv_path,
                   cpu::ReportMetric stderr_metric, double stderr_scale)
{
    bool with_stderr = false;
    if (stderr_metric != cpu::ReportMetric::kCount)
        for (const auto& report : reports)
            with_stderr = with_stderr || report.sampled;

    // Sampled runs annotate every value with its standard error across
    // the detailed measurement windows; exact runs keep three columns.
    std::vector<std::string> header = {"workload",
                                       metric_header + " (measured)"};
    std::vector<std::string> csv_header = {"workload", "measured"};
    if (with_stderr) {
        header.push_back("+/- stderr");
        csv_header.push_back("stderr");
    }
    header.push_back(metric_header + " (paper)");
    csv_header.push_back("paper");
    util::Table table(std::move(header));
    table.set_title(title);
    util::CsvWriter csv(std::move(csv_header));
    for (const auto& report : reports) {
        const double value = measured(report);
        const double ref = paper ? paper(report.workload) : -1.0;
        std::vector<std::string> row = {
            report.workload, util::format_double(value, decimals)};
        std::vector<std::string> csv_row = {report.workload,
                                            util::format_double(value, 6)};
        if (with_stderr) {
            const double err =
                stderr_scale * report.stderr_of(stderr_metric);
            row.push_back(report.sampled
                              ? util::format_double(err, decimals + 1)
                              : "-");
            csv_row.push_back(util::format_double(err, 6));
        }
        row.push_back(ref >= 0.0 ? util::format_double(ref, decimals)
                                 : "-");
        csv_row.push_back(util::format_double(ref, 6));
        table.add_row(std::move(row));
        csv.add_row(std::move(csv_row));
    }
    table.print();
    if (!csv_path.empty() && csv.write_file(csv_path))
        std::printf("(csv: %s)\n", csv_path.c_str());
    std::printf("\n");
}

double
class_average(const std::vector<cpu::CounterReport>& reports,
              const std::vector<std::string>& names,
              const MetricGetter& metric)
{
    double sum = 0.0;
    std::size_t n = 0;
    for (const auto& report : reports) {
        for (const auto& name : names) {
            if (report.workload == name) {
                sum += metric(report);
                ++n;
            }
        }
    }
    return n ? sum / static_cast<double>(n) : 0.0;
}

bool
shape_check(const std::string& claim, bool held)
{
    std::printf("  [%s] %s\n", held ? "PASS" : "SHAPE-MISS", claim.c_str());
    return held;
}

}  // namespace dcb::core

/** @file Tests for the report-rendering helpers and harness presets. */

#include <gtest/gtest.h>

#include "core/harness.h"
#include "core/report.h"

namespace dcb::core {
namespace {

cpu::CounterReport
fake_report(const std::string& name, double ipc, double l2)
{
    cpu::CounterReport r;
    r.workload = name;
    r.ipc = ipc;
    r.l2_mpki = l2;
    r.instructions = 1000;
    r.cycles = 1000 / ipc;
    return r;
}

TEST(Report, ClassAverageSelectsNamedSubset)
{
    const std::vector<cpu::CounterReport> reports = {
        fake_report("a", 1.0, 10),
        fake_report("b", 2.0, 20),
        fake_report("c", 3.0, 30),
    };
    const double avg = class_average(
        reports, {"a", "c"},
        [](const cpu::CounterReport& r) { return r.ipc; });
    EXPECT_NEAR(avg, 2.0, 1e-12);
}

TEST(Report, ClassAverageEmptySubsetIsZero)
{
    const std::vector<cpu::CounterReport> reports = {
        fake_report("a", 1.0, 10)};
    EXPECT_EQ(class_average(reports, {"nope"},
                            [](const cpu::CounterReport& r) {
                                return r.ipc;
                            }),
              0.0);
}

TEST(Report, ShapeCheckReturnsItsVerdict)
{
    EXPECT_TRUE(shape_check("always true", true));
    EXPECT_FALSE(shape_check("always false", false));
}

TEST(Report, PrintFigureTableHandlesMissingPaperValues)
{
    // Smoke test: must not crash with a paper getter returning "absent".
    const std::vector<cpu::CounterReport> reports = {
        fake_report("a", 1.0, 10)};
    print_figure_table(
        "test", reports, "ipc",
        [](const cpu::CounterReport& r) { return r.ipc; },
        [](const std::string&) { return -1.0; }, 2);
}

TEST(Harness, BenchConfigIsPaperMethodology)
{
    const HarnessConfig config = bench_config();
    EXPECT_GT(config.run.warmup_ops, 0u);  // ramp-up discard
    EXPECT_LT(config.run.warmup_ops, config.run.op_budget);
    // Table III machine.
    EXPECT_EQ(config.memory_config.l3.size_bytes, 12u << 20);
    EXPECT_EQ(config.core_config.rob_entries, 128u);
}

TEST(Harness, UnknownWorkloadIsARecoverableError)
{
    HarnessConfig config;
    config.run.op_budget = 10'000;
    config.run.warmup_ops = 0;
    const RunResult result = run_workload("No Such Workload", config);
    EXPECT_FALSE(result.status.ok);
    EXPECT_NE(result.status.error.find("unknown workload"),
              std::string::npos);
    // The diagnostic lists what *would* have worked.
    EXPECT_NE(result.status.error.find("K-means"), std::string::npos);
}

TEST(Harness, SuiteIsolatesPerWorkloadFailures)
{
    HarnessConfig config;
    config.run.op_budget = 60'000;
    config.run.warmup_ops = 0;
    const SuiteResult suite =
        run_suite({"K-means", "No Such Workload", "Sort"}, config);
    ASSERT_EQ(suite.runs.size(), 3u);
    EXPECT_TRUE(suite.runs[0].status.ok);
    EXPECT_FALSE(suite.runs[1].status.ok);
    EXPECT_TRUE(suite.runs[2].status.ok);  // later runs still happen
    EXPECT_EQ(suite.failure_count(), 1u);
    EXPECT_FALSE(suite.all_ok());
    EXPECT_EQ(suite.reports().size(), 2u);
    EXPECT_EQ(suite.names.size(), 3u);
}

TEST(Harness, AllOkSuiteKeepsEveryReport)
{
    HarnessConfig config;
    config.run.op_budget = 60'000;
    config.run.warmup_ops = 0;
    const SuiteResult suite = run_suite({"Sort", "Grep"}, config);
    EXPECT_TRUE(suite.all_ok());
    EXPECT_EQ(suite.reports().size(), 2u);
}

}  // namespace
}  // namespace dcb::core

/**
 * @file End-to-end shape tests: the paper's headline findings (F1-F7 in
 * DESIGN.md) must hold on small-scale harness runs. These are the
 * claims the reproduction is graded on, so each row of the findings
 * table (core/findings.h) is asserted, not just printed.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <initializer_list>
#include <string>
#include <vector>

#include "core/findings.h"
#include "core/harness.h"
#include "cpu/perf.h"
#include "workloads/registry.h"

namespace dcb::core {
namespace {

/** One shared suite run (expensive), reused by all shape tests. */
class ShapeTest : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        HarnessConfig config;
        config.run.op_budget = 1'300'000;
        config.run.warmup_ops = 400'000;
        reports_ = new std::vector<cpu::CounterReport>(
            run_suite(workloads::figure_order(), config).reports());
    }

    static void
    TearDownTestSuite()
    {
        delete reports_;
        reports_ = nullptr;
    }

    /** Assert every findings row of `id` on `figures`. */
    static void
    expect_rows(const char* id, std::initializer_list<int> figures)
    {
        const std::vector<Finding>& findings = paper_findings();
        const std::vector<bool> held = check_findings(*reports_);
        std::size_t rows = 0;
        for (std::size_t i = 0; i < findings.size(); ++i) {
            if (std::string(findings[i].id) != id ||
                std::find(figures.begin(), figures.end(),
                          findings[i].figure) == figures.end())
                continue;
            ++rows;
            EXPECT_TRUE(held[i]) << "Figure " << findings[i].figure << ": "
                                 << findings[i].claim;
        }
        EXPECT_GT(rows, 0u) << id;
    }

    static std::vector<cpu::CounterReport>* reports_;
};

std::vector<cpu::CounterReport>* ShapeTest::reports_ = nullptr;

// Each paper finding's rows of the table, on the figures they read.
TEST_F(ShapeTest, F1_IpcOrdering)
{
    expect_rows("F1", {3});
}

TEST_F(ShapeTest, F2_StallBreakdownSplit)
{
    expect_rows("F2", {6});
}

TEST_F(ShapeTest, F3_InstructionFootprint)
{
    expect_rows("F3", {7});
}

TEST_F(ShapeTest, F3_ItlbWalks)
{
    expect_rows("F3", {8});
}

TEST_F(ShapeTest, F4_CacheHierarchy)
{
    expect_rows("F4", {9, 10});
}

TEST_F(ShapeTest, F4b_DtlbWalks)
{
    expect_rows("F4", {11});
}

TEST_F(ShapeTest, F5_BranchPrediction)
{
    expect_rows("F5", {12});
}

TEST_F(ShapeTest, F6_KernelInstructionShare)
{
    expect_rows("F6", {4});
}

// A workload that failed has no report; no claim may pass without it,
// whichever workload is missing.
TEST_F(ShapeTest, MissingWorkloadFailsEveryRow)
{
    ASSERT_EQ(reports_->size(), workloads::figure_order().size());
    for (std::size_t drop = 0; drop < reports_->size(); ++drop) {
        std::vector<cpu::CounterReport> partial = *reports_;
        partial.erase(partial.begin() + static_cast<std::ptrdiff_t>(drop));
        const std::vector<bool> held = check_findings(partial);
        ASSERT_EQ(held.size(), paper_findings().size());
        for (std::size_t i = 0; i < held.size(); ++i)
            EXPECT_FALSE(held[i]) << (*reports_)[drop].workload
                                  << " dropped: "
                                  << paper_findings()[i].claim;
    }
}

// The parallel suite runner must be a pure wall-clock optimisation:
// every workload simulates a private machine, so running the suite on a
// thread pool has to produce exactly the reports of the serial run, in
// the same (registry) order.
TEST(ParallelSuite, JobsFourBitIdenticalToSerial)
{
    HarnessConfig config;
    config.run.op_budget = 150'000;
    config.run.warmup_ops = 40'000;
    const auto names = workloads::figure_order();

    config.jobs = 1;
    const SuiteResult serial = run_suite(names, config);
    config.jobs = 4;
    const SuiteResult parallel = run_suite(names, config);

    ASSERT_EQ(serial.runs.size(), names.size());
    ASSERT_EQ(parallel.runs.size(), names.size());
    for (std::size_t i = 0; i < names.size(); ++i) {
        const cpu::CounterReport& a = serial.runs[i].report;
        const cpu::CounterReport& b = parallel.runs[i].report;
        ASSERT_TRUE(serial.runs[i].status.ok) << names[i];
        ASSERT_TRUE(parallel.runs[i].status.ok) << names[i];
        EXPECT_EQ(a.workload, b.workload) << names[i];
        EXPECT_EQ(a.instructions, b.instructions) << names[i];
        EXPECT_EQ(a.cycles, b.cycles) << names[i];
        for (std::size_t m = 0; m < cpu::kReportMetricCount; ++m) {
            const auto metric = static_cast<cpu::ReportMetric>(m);
            EXPECT_EQ(cpu::report_metric(a, metric),
                      cpu::report_metric(b, metric))
                << names[i] << " " << cpu::report_metric_name(metric);
        }
    }
}

}  // namespace
}  // namespace dcb::core

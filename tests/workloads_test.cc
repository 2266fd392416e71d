/** @file Tests for the workload registry and every workload's sanity. */

#include <gtest/gtest.h>

#include <set>

#include "core/harness.h"
#include "workloads/registry.h"

namespace dcb::workloads {
namespace {

TEST(Registry, AllMeasuredWorkloadsPresent)
{
    // 11 DA + 6 services + 2 SPEC + 7 HPCC = 26 measured workloads (the
    // paper's figures add a computed "avg" bar as a 27th column).
    const auto& order = figure_order();
    EXPECT_EQ(order.size(), 26u);
    std::set<std::string> unique(order.begin(), order.end());
    EXPECT_EQ(unique.size(), order.size());
    for (const auto& name : order)
        EXPECT_NE(make_workload(name), nullptr) << name;
}

TEST(Registry, UnknownNameReturnsNull)
{
    EXPECT_EQ(make_workload("No Such Workload"), nullptr);
}

TEST(Registry, CategoriesAreConsistent)
{
    for (const auto& name : names_in_category(Category::kDataAnalysis)) {
        EXPECT_EQ(make_workload(name)->info().category,
                  Category::kDataAnalysis)
            << name;
    }
    for (const auto& name : names_in_category(Category::kHpcc))
        EXPECT_EQ(make_workload(name)->info().category, Category::kHpcc);
    EXPECT_EQ(names_in_category(Category::kDataAnalysis).size(), 11u);
    EXPECT_EQ(names_in_category(Category::kService).size(), 6u);
    EXPECT_EQ(names_in_category(Category::kSpecCpu).size(), 2u);
    EXPECT_EQ(names_in_category(Category::kHpcc).size(), 7u);
}

TEST(Registry, TableOneMetadataIsAttached)
{
    const auto sort = make_workload("Sort");
    EXPECT_EQ(sort->info().paper_input_gb, 150);
    EXPECT_EQ(sort->info().paper_instructions_g, 4578);
    EXPECT_EQ(sort->info().source, "Hadoop example");
    const auto bayes = make_workload("Naive Bayes");
    EXPECT_EQ(bayes->info().paper_instructions_g, 68131);
    EXPECT_EQ(bayes->info().source, "mahout");
}

TEST(Registry, ServiceModelsAreLabelled)
{
    for (const auto& name : names_in_category(Category::kService)) {
        const auto w = make_workload(name);
        EXPECT_TRUE(w->info().source.find("model") != std::string::npos)
            << name << " must be marked as a behavioural model";
    }
}

TEST(Registry, FigureOrderStartsWithNaiveBayes)
{
    // The paper reports Naive Bayes first (leftmost in Figure 3).
    EXPECT_EQ(figure_order().front(), "Naive Bayes");
}

/** Every workload runs, respects its budget, and yields sane counters. */
class EveryWorkload : public ::testing::TestWithParam<std::string>
{
};

TEST_P(EveryWorkload, RunsAndReportsSanely)
{
    core::HarnessConfig config;
    config.run.op_budget = 150'000;
    config.run.warmup_ops = 0;
    const cpu::CounterReport r =
        core::run_workload(GetParam(), config).report;
    EXPECT_GE(r.instructions, 150'000.0) << "budget undershoot";
    EXPECT_LT(r.instructions, 150'000.0 * 30) << "budget overshoot";
    EXPECT_GT(r.ipc, 0.02);
    EXPECT_LE(r.ipc, 4.0);
    EXPECT_GE(r.kernel_instr_fraction, 0.0);
    EXPECT_LE(r.kernel_instr_fraction, 1.0);
    EXPECT_NEAR(r.stalls.sum(), 1.0, 1e-6);
    EXPECT_GE(r.l3_service_ratio, 0.0);
    EXPECT_LE(r.l3_service_ratio, 1.0);
    EXPECT_LE(r.branch_misprediction_ratio, 0.6);
}

TEST_P(EveryWorkload, DeterministicForSameSeed)
{
    core::HarnessConfig config;
    config.run.op_budget = 60'000;
    config.run.warmup_ops = 0;
    config.run.seed = 123;
    const auto a = core::run_workload(GetParam(), config).report;
    const auto b = core::run_workload(GetParam(), config).report;
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.l2_mpki, b.l2_mpki);
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, EveryWorkload,
    ::testing::ValuesIn(figure_order()),
    [](const ::testing::TestParamInfo<std::string>& info) {
        std::string name = info.param;
        for (char& c : name)
            if (!std::isalnum(static_cast<unsigned char>(c)))
                c = '_';
        return name;
    });

}  // namespace
}  // namespace dcb::workloads

/**
 * @file
 * Self-tests of the benchmark's own logic: the replay ledger adds up at a
 * tiny budget, and tampered reports, job outcomes and dumps make the
 * output checks fail. Exits 0 when every test passes.
 */

#include <cmath>
#include <cstdio>

#include "checks.h"
#include "core/harness.h"
#include "ledger.h"
#include "workloads/registry.h"

namespace {

using namespace dcb;
using namespace perfbench;

int g_failures = 0;

void
expect(bool ok, const std::string& what)
{
    std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
    if (!ok)
        ++g_failures;
}

bool
all_held(const std::vector<ShapeCheck>& checks)
{
    for (const ShapeCheck& c : checks)
        if (!c.held)
            return false;
    return true;
}

bool
held(const std::vector<cpu::CounterReport>& reports, const std::string& name)
{
    for (const ShapeCheck& c : paper_shape_checks(reports))
        if (c.name == name)
            return c.held;
    return false;
}

void
test_ledger_adds_up()
{
    const LedgerResult l = measure_ledger(7, 200'000, 5, nullptr);
    char what[160];
    std::snprintf(what, sizeof what,
                  "ledger parts add up at 200k ops (residual %+.3f, "
                  "tolerance %.2f)",
                  l.residual_frac(), kLedgerTolerance);
    expect(std::fabs(l.residual_frac()) <= kLedgerTolerance, what);
    expect(l.ops >= 200'000 && l.warm_ops > 0 && l.mem_accesses > l.ops,
           "ledger recorded the exact stream and the warm deliveries");
}

void
test_tampered_reports()
{
    core::HarnessConfig config = core::bench_config();
    config.run.op_budget = 2'000'000;
    config.run.warmup_ops = config.run.op_budget / 4;
    config.jobs = 2;
    const std::vector<cpu::CounterReport> reports =
        core::run_suite(workloads::figure_order(), config).reports();
    expect(all_held(paper_shape_checks(reports)),
           "every paper shape check holds on the real suite");

    std::vector<cpu::CounterReport> tampered = reports;
    for (cpu::CounterReport& r : tampered)
        if (r.workload == "HPCC-DGEMM")
            r.ipc = 0.1;
    expect(!held(tampered, "F1 HPCC-DGEMM IPC above every DA workload"),
           "a lowered DGEMM IPC fails F1");
    expect(!reports_identical(reports.front(), [&] {
               cpu::CounterReport r = reports.front();
               r.stalls.rob = std::nextafter(r.stalls.rob, 1.0);
               return r;
           }()),
           "a one-ulp stall change breaks bit-identity");

    std::vector<cpu::CounterReport> missing;
    for (const cpu::CounterReport& r : reports)
        if (r.workload != "Media Streaming")
            missing.push_back(r);
    bool none_held = true;
    for (const ShapeCheck& c : paper_shape_checks(missing))
        none_held = none_held && !c.held;
    expect(none_held, "a missing workload fails every claim");
}

void
test_tampered_jobs()
{
    mapreduce::ClusterConfig cluster;
    cluster.slaves = 32;
    cluster.racks = 4;
    std::vector<mapreduce::JobSubmission> fleet(3);
    for (std::size_t j = 0; j < fleet.size(); ++j) {
        fleet[j].spec.name = "selftest";
        fleet[j].spec.input_gb = 8.0 + 4.0 * j;
        fleet[j].submit_time_s = 2.0 * j;
    }
    mapreduce::MultiJobOptions options;
    options.threads = 2;
    const mapreduce::MultiJobScheduler scheduler;
    const mapreduce::MultiJobResult result =
        scheduler.run(fleet, cluster, options);
    expect(job_failures(result, fleet, cluster).empty(),
           "a fault-free fleet completes with expected_task_counts");

    mapreduce::MultiJobResult tampered = result;
    tampered.jobs[1].maps_completed -= 1;
    expect(job_failures(tampered, fleet, cluster).size() == 1,
           "a job one map short fails the task-count check");
    tampered = result;
    tampered.jobs[2].completed = false;
    expect(job_failures(tampered, fleet, cluster).size() == 1,
           "an incomplete job fails the task-count check");
    tampered = result;
    tampered.jobs[0].wasted_task_s += 1.0;
    expect(tampered.dump() != result.dump(),
           "a tampered job outcome changes the dump the checks compare");
}

}  // namespace

int
main()
{
    test_ledger_adds_up();
    test_tampered_reports();
    test_tampered_jobs();
    std::printf("%d failure(s)\n", g_failures);
    return g_failures == 0 ? 0 : 1;
}

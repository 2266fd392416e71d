/**
 * @file
 * Chaos sweep: hundreds of seeded correlated-fault scenarios against
 * the self-healing fair-share scheduler, each held to hard invariants.
 *
 * Every scenario derives a workload, a cluster (slaves spread over
 * racks), and a FaultPlan deterministically from (base seed, scenario
 * id). Two staggered submissions of the workload share the cluster, so
 * fair-share granting, the rack uplinks and multi-job recovery all run
 * under the fault plan. Each scenario runs on one engine thread, on
 * four, and once more as a replay, and the harness asserts:
 *
 *  - the run terminates in finite simulated time (the engine's event
 *    budget makes a hang structurally impossible -- a livelock surfaces
 *    as a clean failure, which this harness would flag);
 *  - a completed job produced exactly the analytic-model task
 *    population (mapreduce::expected_task_counts) -- recovery may
 *    re-execute work, never lose or double-count it;
 *  - a failed job failed cleanly: non-empty error, under a plan that
 *    can fire, with a non-empty FaultLog that diagnoses what was
 *    injected;
 *  - no task ever exceeds max_attempts, and the 25% blacklist cap holds
 *    (net of partition-heal forgiveness);
 *  - the 1-thread run, the 4-thread run and the replay produce
 *    byte-identical MultiJobResult dumps.
 *
 * The sweep spans all correlated fault kinds -- task crashes, hangs,
 * slow nodes, node crashes, rack power loss, network partitions (with
 * heals), master crash/failover, cascades -- and writes a committed
 * summary to BENCH_chaos.json (atomic write, deterministic content).
 *
 * Flags:
 *   --scenarios N        scenario count (default 240)
 *   --seed N             base seed (default fixed)
 *   --scenario K         run only scenario K (prints its outcome)
 *   --trace-out FILE     Chrome trace of the selected scenario's
 *                        1-thread run (simulated time only, so
 *                        byte-identical across replays -- CI diffs it)
 *   --check-invariants   exit nonzero on any invariant violation
 *   --json FILE          summary path (default BENCH_chaos.json;
 *                        "none" disables; single-scenario runs write
 *                        none)
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/report.h"
#include "fault/fault.h"
#include "mapreduce/fairshare.h"
#include "obs/manifest.h"
#include "obs/trace_writer.h"
#include "util/atomic_file.h"
#include "util/rng.h"
#include "util/table.h"
#include "workloads/data_analysis.h"
#include "workloads/registry.h"

namespace {

using namespace dcb;

constexpr std::uint64_t kDefaultBaseSeed = 0xC4A05EEDULL;
constexpr std::uint32_t kDefaultScenarios = 240;
constexpr std::uint32_t kKindCount = 8;

const char* const kKindNames[kKindCount] = {
    "task-crash", "task-hang",    "slow-node",    "node-crash",
    "rack-loss",  "partition",    "master-crash", "storm",
};

struct Scenario
{
    std::uint32_t id = 0;
    const char* kind = "";
    std::string workload;
    mapreduce::ClusterConfig cluster;
    fault::FaultPlan plan;
};

/** Scenario `id` as a pure function of (base_seed, id). */
Scenario
make_scenario(std::uint32_t id, std::uint64_t base_seed)
{
    util::Rng rng(util::mix64(base_seed ^ (0x5CE7A110ULL + id)));
    Scenario s;
    s.id = id;
    const auto& names = workloads::data_analysis_names();
    s.workload = names[id % names.size()];

    const std::uint32_t slave_choices[] = {4, 8, 16};
    s.cluster.slaves =
        slave_choices[static_cast<std::size_t>(rng.next_below(3))];
    s.cluster.racks = (id % 2 == 0) ? 2 : 4;

    fault::FaultPlan& p = s.plan;
    p.seed = util::mix64(base_seed ^ (0xFA17ULL + id));
    const auto racks = s.cluster.racks;
    s.kind = kKindNames[id % kKindCount];
    switch (id % kKindCount) {
      case 0:  // background task-attempt crashes
        p.task_crash_prob = 0.002 + 0.010 * rng.next_double();
        break;
      case 1:  // hung attempts, only the watchdog can reclaim them
        p.task_hang_prob = 0.002 + 0.015 * rng.next_double();
        break;
      case 2:  // degraded machines stragglering every task they host
        p.slow_node_fraction = 0.15 + 0.30 * rng.next_double();
        p.slow_multiplier = 1.5 + 2.0 * rng.next_double();
        break;
      case 3:  // one machine dies mid-job under light crash noise
        p.node_crash_time_s = 20.0 + 120.0 * rng.next_double();
        p.crash_node = static_cast<std::uint32_t>(
            rng.next_below(s.cluster.slaves));
        p.task_crash_prob = 0.004;
        break;
      case 4:  // a whole rack loses power
        p.rack_crash_time_s = 20.0 + 120.0 * rng.next_double();
        p.crash_rack = static_cast<std::uint32_t>(rng.next_below(racks));
        break;
      case 5:  // a rack is partitioned for an epoch, then heals
        p.partition_time_s = 10.0 + 80.0 * rng.next_double();
        p.partition_duration_s = 20.0 + 80.0 * rng.next_double();
        p.partition_rack =
            static_cast<std::uint32_t>(rng.next_below(racks));
        p.cascade_prob = 0.30;
        break;
      case 6:  // the JobTracker dies; standby resumes from checkpoint
        p.master_crash_time_s = 15.0 + 120.0 * rng.next_double();
        p.cascade_prob = 0.30;
        break;
      case 7:  // correlated storm: everything at once, may fail cleanly
        p.task_crash_prob = 0.02 + 0.28 * rng.next_double();
        p.task_hang_prob = 0.05;
        p.partition_time_s = 10.0 + 60.0 * rng.next_double();
        p.partition_duration_s = 30.0;
        p.partition_rack =
            static_cast<std::uint32_t>(rng.next_below(racks));
        p.master_crash_time_s = 30.0 + 90.0 * rng.next_double();
        p.cascade_prob = 0.50;
        break;
    }
    return s;
}

struct KindTally
{
    std::uint32_t scenarios = 0;
    std::uint32_t completed = 0;
    std::uint32_t failed_clean = 0;
};

/** Recovery counters summed over scenarios (first run, both jobs). */
struct Totals
{
    std::uint64_t task_failures = 0;
    std::uint64_t watchdog_kills = 0;
    std::uint64_t speculative_launched = 0;
    std::uint64_t maps_reexecuted = 0;
    std::uint64_t degraded_phases = 0;
    std::uint64_t nodes_lost = 0;
    std::uint64_t racks_lost = 0;
    std::uint64_t partitions = 0;
    std::uint64_t partition_heals = 0;
    std::uint64_t nodes_blacklisted = 0;
    std::uint64_t nodes_unblacklisted = 0;
    std::uint64_t master_failovers = 0;
    std::uint64_t tasks_lost_to_failover = 0;
    std::uint64_t cascades_triggered = 0;
};

struct SweepState
{
    std::vector<std::string> violations;
    std::uint32_t replay_mismatches = 0;
    KindTally kinds[kKindCount];
    std::map<std::string, std::size_t> fault_events;
    Totals totals;
};

void
check(SweepState& state, const Scenario& s, bool held,
      const std::string& what)
{
    if (held)
        return;
    state.violations.push_back("scenario " + std::to_string(s.id) + " (" +
                               s.kind + ", " + s.workload + "): " + what);
}

/**
 * Run one scenario three times (1 thread, 4 threads, replay) and
 * enforce every invariant; returns the 1-thread result, which `trace`
 * (when set) records.
 */
mapreduce::MultiJobResult
run_scenario(const Scenario& s, const mapreduce::FairShareConfig& fair,
             SweepState& state, obs::TraceWriter* trace)
{
    const mapreduce::MultiJobScheduler scheduler(fair);
    const auto workload = workloads::make_workload(s.workload);

    std::vector<mapreduce::JobSubmission> subs(2);
    subs[0].spec = workload->info().cluster_spec;
    subs[0].weight = 2.0;
    subs[1].spec = subs[0].spec;
    subs[1].submit_time_s = 15.0;

    std::size_t fault_log_size = 0;
    const auto run_once = [&](unsigned threads, obs::TraceWriter* tw,
                              bool tally_faults) {
        fault::FaultInjector injector(s.plan);
        mapreduce::MultiJobOptions options;
        options.threads = threads;
        options.injector = &injector;
        options.trace = tw;
        mapreduce::MultiJobResult r = scheduler.run(subs, s.cluster, options);
        if (tally_faults) {
            fault_log_size = injector.log().events().size();
            for (const auto& event : injector.log().events())
                ++state.fault_events[fault::fault_kind_name(event.kind)];
        }
        return r;
    };
    const mapreduce::MultiJobResult first = run_once(1, trace, true);
    const mapreduce::MultiJobResult sharded = run_once(4, nullptr, false);
    const mapreduce::MultiJobResult replay = run_once(1, nullptr, false);

    KindTally& tally = state.kinds[s.id % kKindCount];
    ++tally.scenarios;
    check(state, s, first.ok, "config rejected: " + first.error);
    if (!first.ok) {
        ++tally.failed_clean;
        return first;
    }

    check(state, s,
          std::isfinite(first.makespan_s) && first.makespan_s >= 0.0,
          "non-finite simulated time");
    const std::string dump = first.dump();
    if (dump != sharded.dump()) {
        ++state.replay_mismatches;
        check(state, s, false, "4-thread run diverged from 1-thread run");
    }
    if (dump != replay.dump()) {
        ++state.replay_mismatches;
        check(state, s, false, "replay diverged from the original run");
    }

    Totals& t = state.totals;
    for (std::size_t j = 0; j < subs.size(); ++j) {
        const mapreduce::JobOutcome& job = first.jobs[j];
        if (job.completed) {
            const mapreduce::TaskCounts want =
                mapreduce::expected_task_counts(subs[j].spec, s.cluster);
            check(state, s, job.error.empty(),
                  "completed but carries error text: " + job.error);
            // Invariant: exactly the analytic-model output counts.
            check(state, s,
                  job.maps_completed == want.maps &&
                      job.reduces_completed == want.reduces,
                  "completed job " + std::to_string(j) +
                      " task counts off the analytic model");
        } else {
            // Invariant: failures are diagnosable -- an error message,
            // under a plan that can fire, with a fault log explaining
            // what was injected.
            check(state, s, !job.error.empty(),
                  "failed without an error message");
            check(state, s, s.plan.any_faults(),
                  "job failed under a fault-free plan");
            check(state, s, fault_log_size > 0,
                  "failed with an empty fault log (undiagnosable)");
        }
        // Invariant: the retry budget really is a budget.
        check(state, s, job.max_task_attempts <= fair.max_attempts,
              "a task used " + std::to_string(job.max_task_attempts) +
                  " attempts (max " + std::to_string(fair.max_attempts) +
                  ")");
        t.task_failures += job.task_failures;
        t.watchdog_kills += job.watchdog_kills;
        t.speculative_launched += job.speculative_launched;
        t.maps_reexecuted += job.maps_reexecuted;
        t.degraded_phases += job.degraded_phases;
    }
    // Invariant: the 25% blacklist cap, net of heal-time forgiveness.
    const mapreduce::ClusterOutcome& c = first.cluster;
    check(state, s,
          c.nodes_blacklisted <= s.cluster.slaves / 4 + c.nodes_unblacklisted,
          "blacklisted " + std::to_string(c.nodes_blacklisted) +
              " nodes on a " + std::to_string(s.cluster.slaves) +
              "-slave cluster (cap 25%)");

    if (first.all_completed())
        ++tally.completed;
    else
        ++tally.failed_clean;
    t.nodes_lost += c.nodes_lost;
    t.racks_lost += c.racks_lost;
    t.partitions += c.partitions;
    t.partition_heals += c.partition_heals;
    t.nodes_blacklisted += c.nodes_blacklisted;
    t.nodes_unblacklisted += c.nodes_unblacklisted;
    t.master_failovers += c.master_failovers;
    t.tasks_lost_to_failover += c.tasks_lost_to_failover;
    t.cascades_triggered += c.cascades_triggered;
    return first;
}

std::string
sweep_json(const SweepState& state, std::uint32_t scenarios,
           std::uint64_t base_seed, std::uint32_t completed,
           std::uint32_t failed_clean,
           const mapreduce::FairShareConfig& fair)
{
    obs::RunManifest manifest;
    manifest.set("bench", "chaos_sweep");
    manifest.set("scenarios", std::uint64_t{scenarios});
    manifest.set("base_seed", std::uint64_t{base_seed});
    manifest.set("jobs_per_scenario", std::uint64_t{2});
    manifest.set("heartbeat_s", fair.heartbeat_s);
    manifest.set("max_attempts", std::uint64_t{fair.max_attempts});
    manifest.set("task_timeout_factor", fair.task_timeout_factor);
    manifest.set("backoff_jitter", fair.backoff_jitter);
    manifest.set("checkpoint_interval_s", fair.checkpoint_interval_s);
    manifest.set("failover_delay_s", fair.failover_delay_s);

    std::string out = "{\n";
    out += "  \"scenarios\": " + std::to_string(scenarios) + ",\n";
    out += "  \"completed\": " + std::to_string(completed) + ",\n";
    out += "  \"failed_clean\": " + std::to_string(failed_clean) + ",\n";
    out += "  \"invariant_violations\": " +
           std::to_string(state.violations.size()) + ",\n";
    out += "  \"replay_mismatches\": " +
           std::to_string(state.replay_mismatches) + ",\n";
    out += "  \"kinds\": [\n";
    for (std::uint32_t k = 0; k < kKindCount; ++k) {
        const KindTally& tally = state.kinds[k];
        out += std::string("    {\"kind\": \"") + kKindNames[k] +
               "\", \"scenarios\": " + std::to_string(tally.scenarios) +
               ", \"completed\": " + std::to_string(tally.completed) +
               ", \"failed_clean\": " +
               std::to_string(tally.failed_clean) + "}" +
               (k + 1 < kKindCount ? "," : "") + "\n";
    }
    out += "  ],\n";
    out += "  \"fault_events\": {";
    bool first = true;
    for (const auto& [name, count] : state.fault_events) {
        out += std::string(first ? "" : ", ") + "\"" + name +
               "\": " + std::to_string(count);
        first = false;
    }
    out += "},\n";
    const Totals& t = state.totals;
    const std::pair<const char*, std::uint64_t> totals[] = {
        {"task_failures", t.task_failures},
        {"watchdog_kills", t.watchdog_kills},
        {"speculative_launched", t.speculative_launched},
        {"maps_reexecuted", t.maps_reexecuted},
        {"degraded_phases", t.degraded_phases},
        {"nodes_lost", t.nodes_lost},
        {"racks_lost", t.racks_lost},
        {"partitions", t.partitions},
        {"partition_heals", t.partition_heals},
        {"nodes_blacklisted", t.nodes_blacklisted},
        {"nodes_unblacklisted", t.nodes_unblacklisted},
        {"master_failovers", t.master_failovers},
        {"tasks_lost_to_failover", t.tasks_lost_to_failover},
        {"cascades_triggered", t.cascades_triggered},
    };
    out += "  \"totals\": {";
    for (std::size_t i = 0; i < std::size(totals); ++i)
        out += std::string(i == 0 ? "" : ", ") + "\"" + totals[i].first +
               "\": " + std::to_string(totals[i].second);
    out += "},\n";
    out += "  \"manifest\": " + manifest.json_fragment(2) + "\n";
    out += "}\n";
    return out;
}

}  // namespace

int
main(int argc, char** argv)
{
    std::uint32_t scenarios = kDefaultScenarios;
    std::uint64_t base_seed = kDefaultBaseSeed;
    std::int64_t only_scenario = -1;
    bool check_invariants = false;
    std::string trace_path;
    std::string json_path = "BENCH_chaos.json";
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&](const char* flag) -> const char* {
            const std::size_t len = std::strlen(flag);
            if (arg.compare(0, len, flag) == 0 && arg.size() > len &&
                arg[len] == '=')
                return arg.c_str() + len + 1;
            if (arg == flag && i + 1 < argc)
                return argv[++i];
            return nullptr;
        };
        if (arg == "--check-invariants")
            check_invariants = true;
        else if (const char* v = value("--scenarios"))
            scenarios = static_cast<std::uint32_t>(std::strtoul(v, nullptr, 10));
        else if (const char* v = value("--seed"))
            base_seed = std::strtoull(v, nullptr, 10);
        else if (const char* v = value("--scenario"))
            only_scenario = std::strtol(v, nullptr, 10);
        else if (const char* v = value("--trace-out"))
            trace_path = v;
        else if (const char* v = value("--json"))
            json_path = v;
    }

    const mapreduce::FairShareConfig fair;  // hardened defaults
    SweepState state;

    if (only_scenario >= 0) {
        // Single-scenario mode: CI replays this twice and byte-diffs the
        // trace (simulated-time events only, so it must be identical).
        const Scenario s = make_scenario(
            static_cast<std::uint32_t>(only_scenario), base_seed);
        std::unique_ptr<obs::TraceWriter> trace;
        if (!trace_path.empty())
            trace = std::make_unique<obs::TraceWriter>();
        const mapreduce::MultiJobResult run =
            run_scenario(s, fair, state, trace.get());
        const Totals& t = state.totals;
        std::printf("scenario %lld: kind=%s workload=\"%s\" slaves=%u "
                    "racks=%u -> %s in %.1fs (watchdog %llu, heals %llu, "
                    "failovers %llu, cascades %llu)\n",
                    static_cast<long long>(only_scenario), s.kind,
                    s.workload.c_str(), s.cluster.slaves, s.cluster.racks,
                    run.all_completed() ? "completed" : "FAILED",
                    run.makespan_s,
                    static_cast<unsigned long long>(t.watchdog_kills),
                    static_cast<unsigned long long>(t.partition_heals),
                    static_cast<unsigned long long>(t.master_failovers),
                    static_cast<unsigned long long>(t.cascades_triggered));
        if (trace != nullptr) {
            if (trace->write(trace_path))
                std::printf("wrote %s (%zu trace events)\n",
                            trace_path.c_str(), trace->size());
            else
                std::fprintf(stderr, "error: cannot write %s\n",
                             trace_path.c_str());
        }
        for (const std::string& v : state.violations)
            std::fprintf(stderr, "INVARIANT VIOLATION: %s\n", v.c_str());
        return check_invariants && !state.violations.empty() ? 1 : 0;
    }

    std::uint32_t completed = 0;
    std::uint32_t failed_clean = 0;
    for (std::uint32_t id = 0; id < scenarios; ++id) {
        const Scenario s = make_scenario(id, base_seed);
        if (run_scenario(s, fair, state, nullptr).all_completed())
            ++completed;
        else
            ++failed_clean;
    }

    util::Table table({"fault kind", "scenarios", "completed",
                       "failed clean"});
    table.set_title("chaos sweep: " + std::to_string(scenarios) +
                    " seeded correlated-fault scenarios x {1 thread, "
                    "4 threads, replay}");
    for (std::uint32_t k = 0; k < kKindCount; ++k)
        table.add_row({kKindNames[k],
                       std::to_string(state.kinds[k].scenarios),
                       std::to_string(state.kinds[k].completed),
                       std::to_string(state.kinds[k].failed_clean)});
    table.print();

    const Totals& t = state.totals;
    std::printf("\n%u/%u scenarios completed every job, %u failed clean; "
                "watchdog kills %llu, backups %llu, maps re-executed "
                "%llu, degraded phases %llu, racks lost %llu, partitions "
                "%llu (heals %llu, un-blacklists %llu), master failovers "
                "%llu (redone %llu), cascades %llu\n",
                completed, scenarios, failed_clean,
                static_cast<unsigned long long>(t.watchdog_kills),
                static_cast<unsigned long long>(t.speculative_launched),
                static_cast<unsigned long long>(t.maps_reexecuted),
                static_cast<unsigned long long>(t.degraded_phases),
                static_cast<unsigned long long>(t.racks_lost),
                static_cast<unsigned long long>(t.partitions),
                static_cast<unsigned long long>(t.partition_heals),
                static_cast<unsigned long long>(t.nodes_unblacklisted),
                static_cast<unsigned long long>(t.master_failovers),
                static_cast<unsigned long long>(t.tasks_lost_to_failover),
                static_cast<unsigned long long>(t.cascades_triggered));

    for (const std::string& v : state.violations)
        std::fprintf(stderr, "INVARIANT VIOLATION: %s\n", v.c_str());

    const bool all_kinds_survive = [&] {
        for (const KindTally& tally : state.kinds)
            if (tally.completed == 0)
                return false;
        return true;
    }();
    core::shape_check("zero invariant violations across the sweep",
                      state.violations.empty());
    core::shape_check("1-thread, 4-thread and replay runs are "
                      "bit-identical",
                      state.replay_mismatches == 0);
    core::shape_check("every fault kind has scenarios where both jobs "
                      "complete (incl. master crash)",
                      all_kinds_survive);
    core::shape_check("partitions heal and forgive blacklists",
                      t.partition_heals > 0);
    core::shape_check("master failovers resume from checkpoints",
                      t.master_failovers > 0);
    core::shape_check("the hard kinds actually fired",
                      t.watchdog_kills > 0 && t.racks_lost > 0 &&
                          t.cascades_triggered > 0 &&
                          t.degraded_phases > 0 &&
                          t.speculative_launched > 0 &&
                          t.maps_reexecuted > 0);

    if (json_path != "none") {
        const std::string json = sweep_json(state, scenarios, base_seed,
                                            completed, failed_clean, fair);
        if (util::write_file_atomic(json_path, json))
            std::printf("\nwrote %s\n", json_path.c_str());
        else
            std::fprintf(stderr, "\nerror: cannot write %s\n",
                         json_path.c_str());
    }
    return check_invariants && !state.violations.empty() ? 1 : 0;
}

#include "cpu/perf.h"

namespace dcb::cpu {

const char*
report_metric_name(ReportMetric m)
{
    switch (m) {
      case ReportMetric::kIpc: return "ipc";
      case ReportMetric::kKernelFraction: return "kernel_instr_fraction";
      case ReportMetric::kStallFetch: return "stall_fetch";
      case ReportMetric::kStallRat: return "stall_rat";
      case ReportMetric::kStallLoad: return "stall_load";
      case ReportMetric::kStallStore: return "stall_store";
      case ReportMetric::kStallRs: return "stall_rs";
      case ReportMetric::kStallRob: return "stall_rob";
      case ReportMetric::kL1iMpki: return "l1i_mpki";
      case ReportMetric::kItlbWalkPki: return "itlb_walk_pki";
      case ReportMetric::kL2Mpki: return "l2_mpki";
      case ReportMetric::kL3ServiceRatio: return "l3_service_ratio";
      case ReportMetric::kDtlbWalkPki: return "dtlb_walk_pki";
      case ReportMetric::kBranchMispredictionRatio:
        return "branch_misprediction_ratio";
      case ReportMetric::kCount: break;
    }
    return "unknown";
}

double
report_metric(const CounterReport& r, ReportMetric m)
{
    switch (m) {
      case ReportMetric::kIpc: return r.ipc;
      case ReportMetric::kKernelFraction: return r.kernel_instr_fraction;
      case ReportMetric::kStallFetch: return r.stalls.fetch;
      case ReportMetric::kStallRat: return r.stalls.rat;
      case ReportMetric::kStallLoad: return r.stalls.load;
      case ReportMetric::kStallStore: return r.stalls.store;
      case ReportMetric::kStallRs: return r.stalls.rs;
      case ReportMetric::kStallRob: return r.stalls.rob;
      case ReportMetric::kL1iMpki: return r.l1i_mpki;
      case ReportMetric::kItlbWalkPki: return r.itlb_walk_pki;
      case ReportMetric::kL2Mpki: return r.l2_mpki;
      case ReportMetric::kL3ServiceRatio: return r.l3_service_ratio;
      case ReportMetric::kDtlbWalkPki: return r.dtlb_walk_pki;
      case ReportMetric::kBranchMispredictionRatio:
        return r.branch_misprediction_ratio;
      case ReportMetric::kCount: break;
    }
    return 0.0;
}

StallBreakdown
normalize_stalls(double fetch, double rat, double load, double store,
                 double rs, double rob)
{
    StallBreakdown b;
    const double total = fetch + rat + load + store + rs + rob;
    if (total <= 0.0)
        return b;
    b.fetch = fetch / total;
    b.rat = rat / total;
    b.load = load / total;
    b.store = store / total;
    b.rs = rs / total;
    b.rob = rob / total;
    return b;
}

CounterReport
make_report(const std::string& workload, const CoreStats& stats)
{
    CounterReport r;
    r.workload = workload;
    r.instructions = stats.get(Event::kInstRetired);
    r.cycles = stats.get(Event::kCycles);
    r.ipc = r.cycles > 0.0 ? r.instructions / r.cycles : 0.0;
    r.kernel_instr_fraction = r.instructions > 0.0
                                  ? stats.kernel_instructions / r.instructions
                                  : 0.0;
    r.stalls = normalize_stalls(stats.get(Event::kFetchStallCycles),
                                stats.get(Event::kRatStallCycles),
                                stats.get(Event::kLoadBufStallCycles),
                                stats.get(Event::kStoreBufStallCycles),
                                stats.get(Event::kRsFullStallCycles),
                                stats.get(Event::kRobFullStallCycles));
    const double kilo_instr = r.instructions / 1000.0;
    if (kilo_instr > 0.0) {
        r.l1i_mpki = stats.get(Event::kL1IMiss) / kilo_instr;
        r.itlb_walk_pki = stats.get(Event::kITlbWalk) / kilo_instr;
        r.l2_mpki = stats.get(Event::kL2Miss) / kilo_instr;
        r.dtlb_walk_pki = stats.get(Event::kDTlbWalk) / kilo_instr;
    }
    const double l2_miss = stats.get(Event::kL2Miss);
    if (l2_miss > 0.0)
        r.l3_service_ratio = (l2_miss - stats.get(Event::kL3Miss)) / l2_miss;
    const double branches = stats.get(Event::kBrRetired);
    if (branches > 0.0)
        r.branch_misprediction_ratio = stats.get(Event::kBrMispred) / branches;
    return r;
}

CounterReport
make_report(const std::string& workload, const Core& core)
{
    return make_report(workload, core.stats());
}

}  // namespace dcb::cpu

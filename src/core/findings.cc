#include "core/findings.h"

#include <algorithm>
#include <string>

#include "core/report.h"
#include "workloads/registry.h"

namespace dcb::core {

namespace {

using cpu::CounterReport;
/** A whole suite's reports, as the helpers and predicates read them. */
using Suite = const std::vector<CounterReport>&;
using Names = std::vector<std::string>;
using workloads::Category;

double
ooo(const CounterReport& r)
{
    return r.stalls.out_of_order_part();
}

double
in_order(const CounterReport& r)
{
    return r.stalls.in_order_part();
}

constexpr auto kIpc = &CounterReport::ipc;
constexpr auto kKernel = &CounterReport::kernel_instr_fraction;
constexpr auto kL1i = &CounterReport::l1i_mpki;
constexpr auto kItlb = &CounterReport::itlb_walk_pki;
constexpr auto kL2 = &CounterReport::l2_mpki;
constexpr auto kL3 = &CounterReport::l3_service_ratio;
constexpr auto kDtlb = &CounterReport::dtlb_walk_pki;
constexpr auto kBranch = &CounterReport::branch_misprediction_ratio;

constexpr Category kDa = Category::kDataAnalysis;
constexpr Category kSvc = Category::kService;
constexpr Category kSpec = Category::kSpecCpu;
constexpr Category kHpcc = Category::kHpcc;

Names
da()
{
    return workloads::names_in_category(kDa);
}

/**
 * The services of the paper's Section IV-B claims ("Media Streaming,
 * Data Severing, Web Severing, Web Search and SPECweb"): the service
 * class less Software Testing.
 */
Names
request_services()
{
    return {"Media Streaming", "Data Serving", "Web Search", "Web Serving",
            "SPECWeb"};
}

Names
except(Names names, const std::string& name)
{
    names.erase(std::remove(names.begin(), names.end(), name), names.end());
    return names;
}

/** One workload's value (check_findings makes sure it ran). */
double
of(Suite s, const std::string& name, const MetricGetter& metric)
{
    for (const CounterReport& r : s)
        if (r.workload == name)
            return metric(r);
    return 0.0;
}

double
avg(Suite s, const Names& names, const MetricGetter& metric)
{
    return class_average(s, names, metric);
}

double
avg(Suite s, Category category, const MetricGetter& metric)
{
    return avg(s, workloads::names_in_category(category), metric);
}

double
min_of(Suite s, const Names& names, const MetricGetter& metric)
{
    double lo = of(s, names.front(), metric);
    for (const std::string& name : names)
        lo = std::min(lo, of(s, name, metric));
    return lo;
}

double
max_of(Suite s, const Names& names, const MetricGetter& metric)
{
    double hi = of(s, names.front(), metric);
    for (const std::string& name : names)
        hi = std::max(hi, of(s, name, metric));
    return hi;
}

}  // namespace

const std::vector<Finding>&
paper_findings()
{
    static const std::vector<Finding> table = {
        // Figure 3: DA IPC sits between the services and compute-bound
        // HPCC (paper: services < 0.6, DA 0.52-0.95 avg 0.78, HPL and
        // DGEMM ~1.2, STREAM < 0.5).
        {"F1", 3, "DA average IPC above the service average",
         [](Suite s) { return avg(s, kDa, kIpc) > avg(s, kSvc, kIpc); }},
        {"F1", 3, "HPCC-DGEMM IPC above every DA workload",
         [](Suite s) {
             return of(s, "HPCC-DGEMM", kIpc) > max_of(s, da(), kIpc);
         }},
        {"F1", 3, "HPCC-HPL IPC above the DA average",
         [](Suite s) { return of(s, "HPCC-HPL", kIpc) > avg(s, kDa, kIpc); }},
        {"F1", 3, "Naive Bayes IPC below the DA average",
         [](Suite s) {
             return of(s, "Naive Bayes", kIpc) < avg(s, kDa, kIpc);
         }},
        {"F1", 3, "service average IPC below the DA minimum + 0.2",
         [](Suite s) {
             return avg(s, kSvc, kIpc) < min_of(s, da(), kIpc) + 0.2;
         }},
        {"F1", 3, "service average IPC below 0.75 (paper: all < 0.6)",
         [](Suite s) { return avg(s, kSvc, kIpc) < 0.75; }},
        {"F1", 3, "DA average IPC between 0.55 and 1.1 (paper 0.78)",
         [](Suite s) {
             const double da_ipc = avg(s, kDa, kIpc);
             return da_ipc > 0.55 && da_ipc < 1.1;
         }},
        {"F1", 3, "HPCC-STREAM IPC below 0.85 (paper < 0.5)",
         [](Suite s) { return of(s, "HPCC-STREAM", kIpc) < 0.85; }},

        // Figure 4: services spend > 40% of their instructions in the
        // kernel, DA ~4% except Sort (~24%), RandomAccess ~31%.
        {"F6", 4, "every request service above 40% kernel instructions",
         [](Suite s) {
             return min_of(s, request_services(), kKernel) > 0.40;
         }},
        {"F6", 4, "DA without Sort below 12% kernel instructions "
                  "(paper ~4%)",
         [](Suite s) { return avg(s, except(da(), "Sort"), kKernel) < 0.12; }},
        {"F6", 4, "Sort kernel share over 3x the rest of DA",
         [](Suite s) {
             return of(s, "Sort", kKernel) >
                    3 * avg(s, except(da(), "Sort"), kKernel);
         }},
        {"F6", 4, "HPCC-RandomAccess above 15% kernel instructions "
                  "(paper ~31%)",
         [](Suite s) { return of(s, "HPCC-RandomAccess", kKernel) > 0.15; }},
        {"F6", 4, "HPCC-DGEMM below 2% kernel instructions",
         [](Suite s) { return of(s, "HPCC-DGEMM", kKernel) < 0.02; }},

        // Figure 6: DA stalls mostly in the out-of-order part (paper
        // RS + ROB ~57%), the request services before it (RAT + fetch
        // ~73%).
        {"F2", 6, "DA out-of-order stall share above 45%",
         [](Suite s) { return avg(s, kDa, ooo) > 0.45; }},
        {"F2", 6, "request-service in-order stall share above 55%",
         [](Suite s) { return avg(s, request_services(), in_order) > 0.55; }},
        {"F2", 6, "DA out-of-order share above the request services'",
         [](Suite s) {
             return avg(s, kDa, ooo) > avg(s, request_services(), ooo);
         }},
        {"F2", 6, "request-service in-order share above DA's",
         [](Suite s) {
             return avg(s, request_services(), in_order) >
                    avg(s, kDa, in_order);
         }},

        // Figure 7: DA ~23 L1I MPKI, far above SPEC CPU and HPCC; Naive
        // Bayes the DA exception; Media Streaming ~3x the DA average.
        {"F3", 7, "DA average L1I MPKI over 5x HPCC's",
         [](Suite s) { return avg(s, kDa, kL1i) > 5 * avg(s, kHpcc, kL1i); }},
        {"F3", 7, "DA average L1I MPKI over 3x SPEC CPU's",
         [](Suite s) { return avg(s, kDa, kL1i) > 3 * avg(s, kSpec, kL1i); }},
        {"F3", 7, "Naive Bayes L1I MPKI below a third of the DA average",
         [](Suite s) {
             return of(s, "Naive Bayes", kL1i) < avg(s, kDa, kL1i) / 3;
         }},
        {"F3", 7, "Naive Bayes L1I MPKI lowest of the DA workloads",
         [](Suite s) {
             return of(s, "Naive Bayes", kL1i) <
                    min_of(s, except(da(), "Naive Bayes"), kL1i);
         }},
        {"F3", 7, "Media Streaming L1I MPKI over 1.8x the DA average",
         [](Suite s) {
             return of(s, "Media Streaming", kL1i) > 1.8 * avg(s, kDa, kL1i);
         }},

        // Figure 8: ITLB walks follow Figure 7's ordering.
        {"F3", 8, "DA average ITLB walks above HPCC's",
         [](Suite s) { return avg(s, kDa, kItlb) > avg(s, kHpcc, kItlb); }},
        {"F3", 8, "service average ITLB walks above DA's",
         [](Suite s) { return avg(s, kSvc, kItlb) > avg(s, kDa, kItlb); }},
        {"F3", 8, "Naive Bayes ITLB walks below half the DA average",
         [](Suite s) {
             return of(s, "Naive Bayes", kItlb) < avg(s, kDa, kItlb) / 2;
         }},

        // Figure 9: DA ~11 L2 MPKI against the services' ~60; HPCC's
        // cache-resident kernels near zero.
        {"F4", 9, "DA average L2 MPKI below the services'",
         [](Suite s) { return avg(s, kDa, kL2) < avg(s, kSvc, kL2); }},
        {"F4", 9, "HPCC-DGEMM L2 MPKI below 2",
         [](Suite s) { return of(s, "HPCC-DGEMM", kL2) < 2.0; }},

        // Figure 10: the LLC serves most DA (85.5%) and service (94.9%)
        // L2 misses; HPCC's streaming and random kernels defeat it.
        {"F4", 10, "L3 serves over 70% of DA L2 misses (paper 85.5%)",
         [](Suite s) { return avg(s, kDa, kL3) > 0.70; }},
        {"F4", 10, "L3 serves over 70% of service L2 misses (paper 94.9%)",
         [](Suite s) { return avg(s, kSvc, kL3) > 0.70; }},
        {"F4", 10, "HPCC-STREAM L3 ratio below 40%",
         [](Suite s) { return of(s, "HPCC-STREAM", kL3) < 0.4; }},
        {"F4", 10, "HPCC-RandomAccess L3 ratio below 70%",
         [](Suite s) { return of(s, "HPCC-RandomAccess", kL3) < 0.7; }},

        // Figure 11: DA DTLB walks below the services'; RandomAccess the
        // global maximum.
        {"F4", 11, "DA average DTLB walks below the services'",
         [](Suite s) { return avg(s, kDa, kDtlb) < avg(s, kSvc, kDtlb); }},
        {"F4", 11, "HPCC-RandomAccess DTLB walks above every other workload",
         [](Suite s) {
             return of(s, "HPCC-RandomAccess", kDtlb) >
                    max_of(s,
                           except(workloads::figure_order(),
                                  "HPCC-RandomAccess"),
                           kDtlb);
         }},

        // Figure 12: DA mispredicts less than the services and SPEC CPU;
        // the HPCC micro-kernels least.
        {"F5", 12, "DA average misprediction ratio below the services'",
         [](Suite s) { return avg(s, kDa, kBranch) < avg(s, kSvc, kBranch); }},
        {"F5", 12, "DA average misprediction ratio below SPECINT's",
         [](Suite s) {
             return avg(s, kDa, kBranch) < of(s, "SPECINT", kBranch);
         }},
        {"F5", 12, "HPCC average misprediction ratio below DA's",
         [](Suite s) {
             return avg(s, kHpcc, kBranch) < avg(s, kDa, kBranch);
         }},
    };
    return table;
}

std::vector<bool>
check_findings(const std::vector<cpu::CounterReport>& reports)
{
    bool complete = true;
    for (const std::string& name : workloads::figure_order())
        complete = complete &&
                   std::any_of(reports.begin(), reports.end(),
                               [&name](const CounterReport& r) {
                                   return r.workload == name;
                               });
    std::vector<bool> held;
    for (const Finding& finding : paper_findings())
        held.push_back(complete && finding.holds(reports));
    return held;
}

}  // namespace dcb::core

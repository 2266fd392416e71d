#include "fault/fault.h"

#include <array>
#include <cstdio>

#include "util/assert.h"

namespace dcb::fault {

const char*
fault_kind_name(FaultKind kind)
{
    switch (kind) {
      case FaultKind::kTaskCrash: return "task-crash";
      case FaultKind::kNodeCrash: return "node-crash";
      case FaultKind::kDiskReadError: return "disk-read-error";
      case FaultKind::kDiskWriteError: return "disk-write-error";
      case FaultKind::kNetTimeout: return "net-timeout";
      case FaultKind::kNetDrop: return "net-drop";
      case FaultKind::kSlowNode: return "slow-node";
      case FaultKind::kTaskHang: return "task-hang";
      case FaultKind::kRackPowerLoss: return "rack-power-loss";
      case FaultKind::kNetPartition: return "net-partition";
      case FaultKind::kPartitionHeal: return "partition-heal";
      case FaultKind::kMasterCrash: return "master-crash";
      case FaultKind::kMasterFailover: return "master-failover";
      case FaultKind::kWatchdogKill: return "watchdog-kill";
      case FaultKind::kCascade: return "cascade";
    }
    return "unknown";
}

bool
FaultPlan::any_faults() const
{
    return task_crash_prob > 0.0 || disk_read_error_prob > 0.0 ||
           disk_write_error_prob > 0.0 || net_timeout_prob > 0.0 ||
           net_drop_prob > 0.0 ||
           (slow_node_fraction > 0.0 && slow_multiplier != 1.0) ||
           node_crash_time_s >= 0.0 || task_hang_prob > 0.0 ||
           rack_crash_time_s >= 0.0 || partition_time_s >= 0.0 ||
           master_crash_time_s >= 0.0 || cascade_prob > 0.0;
}

std::string
validate(const FaultPlan& plan)
{
    const struct
    {
        const char* name;
        double value;
    } probs[] = {
        {"task_crash_prob", plan.task_crash_prob},
        {"disk_read_error_prob", plan.disk_read_error_prob},
        {"disk_write_error_prob", plan.disk_write_error_prob},
        {"net_timeout_prob", plan.net_timeout_prob},
        {"net_drop_prob", plan.net_drop_prob},
        {"slow_node_fraction", plan.slow_node_fraction},
        {"task_hang_prob", plan.task_hang_prob},
        {"cascade_prob", plan.cascade_prob},
    };
    for (const auto& p : probs) {
        if (p.value < 0.0 || p.value > 1.0)
            return std::string("FaultPlan.") + p.name +
                   " must be a probability in [0, 1]";
    }
    if (plan.slow_multiplier < 1.0)
        return "FaultPlan.slow_multiplier must be >= 1 (slower, not "
               "faster)";
    if (plan.partition_time_s >= 0.0 && plan.partition_duration_s <= 0.0)
        return "FaultPlan.partition_duration_s must be positive when a "
               "partition is scheduled (a zero-length partition never "
               "heals anything)";
    return "";
}

std::size_t
FaultLog::count(FaultKind kind) const
{
    std::size_t n = 0;
    for (const auto& e : events_)
        if (e.kind == kind)
            ++n;
    return n;
}

std::string
FaultLog::summary() const
{
    constexpr std::array<FaultKind, 15> kKinds = {
        FaultKind::kTaskCrash,      FaultKind::kNodeCrash,
        FaultKind::kDiskReadError,  FaultKind::kDiskWriteError,
        FaultKind::kNetTimeout,     FaultKind::kNetDrop,
        FaultKind::kSlowNode,       FaultKind::kTaskHang,
        FaultKind::kRackPowerLoss,  FaultKind::kNetPartition,
        FaultKind::kPartitionHeal,  FaultKind::kMasterCrash,
        FaultKind::kMasterFailover, FaultKind::kWatchdogKill,
        FaultKind::kCascade,
    };
    std::string out;
    for (const FaultKind kind : kKinds) {
        const std::size_t n = count(kind);
        if (n == 0)
            continue;
        char buf[48];
        std::snprintf(buf, sizeof buf, "%s%s:%zu", out.empty() ? "" : " ",
                      fault_kind_name(kind), n);
        out += buf;
    }
    return out.empty() ? "no faults" : out;
}

namespace {

/** Hash to a uniform double in [0, 1). */
double
hash01(std::uint64_t h)
{
    return static_cast<double>(h >> 11) * (1.0 / 9007199254740992.0);
}

}  // namespace

double
planned_speed_multiplier(const FaultPlan& plan, std::uint32_t node)
{
    if (plan.slow_node_fraction <= 0.0 || plan.slow_multiplier == 1.0)
        return 1.0;
    // Stateless: hash the node id against the seed so the answer does
    // not depend on when (or how often) a scheduler asks.
    const std::uint64_t h = util::mix64(plan.seed ^
                                        (0x510Bu + std::uint64_t{node}));
    return hash01(h) < plan.slow_node_fraction ? plan.slow_multiplier
                                               : 1.0;
}

bool
planned_task_crash(const FaultPlan& plan, std::uint64_t attempt_key,
                   double* crash_fraction)
{
    if (plan.task_crash_prob <= 0.0)
        return false;
    const std::uint64_t h =
        util::mix64(plan.seed ^ util::mix64(0xC7A54ULL ^ attempt_key));
    if (hash01(h) >= plan.task_crash_prob)
        return false;
    // Crash somewhere in the middle of the attempt, never exactly at the
    // start or end (those degenerate into free retries / completions).
    if (crash_fraction != nullptr)
        *crash_fraction = 0.05 + 0.9 * hash01(util::mix64(h));
    return true;
}

bool
planned_task_hang(const FaultPlan& plan, std::uint64_t attempt_key)
{
    if (plan.task_hang_prob <= 0.0)
        return false;
    const std::uint64_t h =
        util::mix64(plan.seed ^ util::mix64(0x4A4CULL ^ attempt_key));
    return hash01(h) < plan.task_hang_prob;
}

FaultInjector::FaultInjector(const FaultPlan& plan)
    : plan_(plan), rng_(plan.seed)
{
    const std::string err = validate(plan);
    DCB_CONFIG_CHECK(err.empty(), err.c_str());
}

void
FaultInjector::reset()
{
    rng_ = util::Rng(plan_.seed);
    log_.clear();
    now_s_ = -1.0;
}

bool
FaultInjector::draw(double prob, FaultKind kind)
{
    if (prob <= 0.0)
        return false;
    if (rng_.next_double() >= prob)
        return false;
    log_.record({kind, now_s_, 0, 0, 0});
    return true;
}

bool
FaultInjector::cascade_fires(std::uint64_t trigger,
                             std::uint32_t node_count,
                             std::uint32_t* victim)
{
    if (plan_.cascade_prob <= 0.0 || node_count == 0)
        return false;
    // Stateless like planned_speed_multiplier: the decision is a pure
    // function of (seed, trigger), so replays agree regardless of when
    // the recovery window is examined.
    const std::uint64_t h =
        util::mix64(plan_.seed ^ util::mix64(0xCA5CADEULL + trigger));
    const double u =
        static_cast<double>(h >> 11) * (1.0 / 9007199254740992.0);
    if (u >= plan_.cascade_prob)
        return false;
    const auto node =
        static_cast<std::uint32_t>(util::mix64(h) % node_count);
    if (victim != nullptr)
        *victim = node;
    log_.record({FaultKind::kCascade, now_s_, node, 0, 0});
    return true;
}

bool
FaultInjector::disk_read_fails()
{
    return draw(plan_.disk_read_error_prob, FaultKind::kDiskReadError);
}

bool
FaultInjector::disk_write_fails()
{
    return draw(plan_.disk_write_error_prob, FaultKind::kDiskWriteError);
}

bool
FaultInjector::net_send_times_out()
{
    return draw(plan_.net_timeout_prob, FaultKind::kNetTimeout);
}

bool
FaultInjector::net_recv_drops()
{
    return draw(plan_.net_drop_prob, FaultKind::kNetDrop);
}

}  // namespace dcb::fault

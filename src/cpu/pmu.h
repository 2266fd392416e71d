#ifndef DCBENCH_CPU_PMU_H_
#define DCBENCH_CPU_PMU_H_

/**
 * @file
 * Performance monitoring unit, modelled on the Xeon's MSR interface the
 * paper programs through perf (Section III-D): a small set of fixed
 * counters that always run, plus four programmable counters configured by
 * event-select registers with user/kernel mode filters. Because the
 * programmable set is smaller than the ~20 events the paper collects,
 * event groups are time-multiplexed and scaled by their enabled fraction,
 * exactly as perf does.
 */

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "trace/microop.h"

namespace dcb::cpu {

/** Hardware events observable on the simulated core. */
enum class Event : std::uint8_t {
    kCycles,            ///< unhalted core cycles
    kInstRetired,       ///< retired micro-ops (~instructions)
    kLoads,             ///< retired loads
    kStores,            ///< retired stores
    kBrRetired,         ///< retired branches
    kBrMispred,         ///< retired mispredicted branches
    kL1IAccess,
    kL1IMiss,
    kITlbL1Miss,
    kITlbWalk,          ///< completed walks from ITLB misses (Figure 8)
    kL1DAccess,
    kL1DMiss,
    kL2Access,
    kL2Miss,            ///< Figure 9
    kL3Access,
    kL3Miss,
    kDTlbL1Miss,
    kDTlbWalk,          ///< completed walks from DTLB misses (Figure 11)
    kFetchStallCycles,  ///< Figure 6 front-end category
    kRatStallCycles,
    kLoadBufStallCycles,
    kStoreBufStallCycles,
    kRsFullStallCycles,
    kRobFullStallCycles,
    kPrefetchFill,
    kCount
};

inline constexpr std::size_t kEventCount =
    static_cast<std::size_t>(Event::kCount);

/** Short mnemonic for an event (report headers). */
const char* event_name(Event e);

/** Event-select register contents for one programmable counter. */
struct EventSelect
{
    Event event = Event::kInstRetired;
    bool count_user = true;
    bool count_kernel = true;
};

/** One scaled measurement out of a multiplexed session. */
struct PmuReading
{
    EventSelect select;
    double raw = 0.0;          ///< events counted while enabled
    double enabled_instr = 0.0;  ///< retired instructions while enabled
    double scaled = 0.0;       ///< raw * total_instr / enabled_instr
};

/** The per-core PMU. */
class Pmu
{
  public:
    static constexpr std::uint32_t kNumProgrammable = 4;

    Pmu();

    // --- Programming ------------------------------------------------------

    /**
     * Configure multiplexed event groups. Each group may use at most
     * kNumProgrammable counters; groups rotate every `rotate_instr`
     * retired instructions. Replaces any previous configuration and
     * zeroes all counts.
     */
    void configure_groups(std::vector<std::vector<EventSelect>> groups,
                          std::uint64_t rotate_instr);

    /** Convenience: one event per slot, auto-packed into groups. */
    void configure_events(const std::vector<EventSelect>& events,
                          std::uint64_t rotate_instr);

    /** Stop counting and clear configuration (readings survive). */
    void disable();

    bool enabled() const { return enabled_; }

    // --- Runtime interface (called by the core) ---------------------------

    /** Record `weight` occurrences of `e` in privilege mode `mode`. */
    void record(Event e, double weight, trace::Mode mode)
    {
        // Inline disabled check: the core calls record() several times
        // per micro-op, and benches run with the PMU off.
        if (!enabled_)
            return;
        record_enabled(e, weight, mode);
    }

    // --- Results -----------------------------------------------------------

    /** Scaled readings for every configured select, group order. */
    std::vector<PmuReading> readings() const;

    /** Fixed counters (always on while enabled). */
    double fixed_instructions() const { return fixed_instructions_; }
    double fixed_cycles() const { return fixed_cycles_; }

  private:
    struct Slot
    {
        EventSelect select;
        std::size_t group = 0;
        double value = 0.0;
    };

    void rotate();
    void rebuild_dispatch();
    void record_enabled(Event e, double weight, trace::Mode mode);

    bool enabled_ = false;
    std::vector<Slot> slots_;
    std::size_t group_count_ = 0;
    std::size_t active_group_ = 0;
    std::uint64_t rotate_instr_ = 0;
    std::uint64_t instr_in_group_ = 0;
    std::vector<double> group_enabled_instr_;
    double fixed_instructions_ = 0.0;
    double fixed_cycles_ = 0.0;
    /** Per-event list of active slot indices (small; rebuilt on rotate). */
    std::array<std::vector<std::uint32_t>, kEventCount> dispatch_;
};

}  // namespace dcb::cpu

#endif  // DCBENCH_CPU_PMU_H_

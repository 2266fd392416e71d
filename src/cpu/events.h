#ifndef DCBENCH_CPU_EVENTS_H_
#define DCBENCH_CPU_EVENTS_H_

/**
 * @file
 * The hardware events the simulated core counts. Every event is an
 * exact, always-on count kept in CoreStats; the paper's perf-style
 * multiplexing of four programmable counters (Section III-D) corrects
 * a limit of its measuring tool and is not modelled. The event names
 * are the telemetry column names.
 */

#include <cstddef>
#include <cstdint>

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

}  // namespace dcb::cpu

#endif  // DCBENCH_CPU_EVENTS_H_

#ifndef PERFBENCH_LEDGER_H_
#define PERFBENCH_LEDGER_H_

/**
 * @file
 * Replay ledger: splits the host cost of one WordCount-style driver
 * (datagen::TextGenerator -> analytics::WordCounter -> trace::ExecCtx ->
 * cpu::Core) into per-layer parts measured from outside the simulator.
 *
 * The driver runs once into a recording sink, which also answers
 * sample_layout() so a second recording captures the functional-warming
 * deliveries of a full-warming sampled run. Each layer is then timed on
 * its own: the generator calls, the kernel plus emission into a null
 * sink, Core::consume_batch over the recorded stream,
 * Core::consume_warm_batch over the recorded warm deliveries, and
 * CacheHierarchy::fetch / data_access over the recorded addresses. The
 * direct core::run_workload of the same driver is the whole the parts
 * should add up to.
 */

#include <cstdint>

#include "obs/trace_writer.h"

namespace perfbench {

/** Host seconds per layer (medians over repetitions) and work counts. */
struct LedgerResult
{
    std::uint64_t ops = 0;            ///< ops of the exact stream
    std::uint64_t warm_ops = 0;       ///< ops the warm deliveries stand for
    std::uint64_t mem_accesses = 0;   ///< fetches + data accesses replayed
    double direct_s = 0.0;   ///< core::run_workload of the driver
    double datagen_s = 0.0;  ///< generator calls alone
    double emit_s = 0.0;     ///< driver into a null sink, minus datagen_s
    double cpu_s = 0.0;      ///< Core construction + consume_batch replay
    double warm_s = 0.0;     ///< consume_warm_batch replay
    double mem_s = 0.0;      ///< hierarchy replay (a part of cpu_s)

    /**
     * How far datagen + emit + cpu miss the direct run, as a share of
     * it (positive: the direct run costs more than its parts).
     */
    double residual_frac() const
    {
        return direct_s > 0.0
                   ? 1.0 - (datagen_s + emit_s + cpu_s) / direct_s
                   : 0.0;
    }
};

/**
 * Record the driver at `op_budget` ops from `seed` and time each layer
 * `reps` times (medians reported). Spans land in `trace` when set.
 */
LedgerResult measure_ledger(std::uint64_t seed, std::uint64_t op_budget,
                            int reps, dcb::obs::TraceWriter* trace);

/** |residual_frac| the ledger is held to. */
inline constexpr double kLedgerTolerance = 0.25;

}  // namespace perfbench

#endif  // PERFBENCH_LEDGER_H_

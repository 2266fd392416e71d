#ifndef DCBENCH_TRACE_MICROOP_H_
#define DCBENCH_TRACE_MICROOP_H_

/**
 * @file
 * The micro-operation model: the unit of work exchanged between workloads
 * and the simulated core.
 *
 * Following the paper's methodology section, the front end decodes CISC
 * instructions into RISC-like micro-operations; this simulator works at
 * that granularity directly (one MicroOp approximates one retired
 * instruction for counter purposes, which is the right first-order mapping
 * for the integer-dominated workloads studied).
 */

#include <cstddef>
#include <cstdint>

namespace dcb::sample {
struct IntervalLayout;
}

namespace dcb::trace {

/** Functional class of a micro-op (selects execution port and latency). */
enum class OpClass : std::uint8_t {
    kAlu,     ///< integer ALU
    kFpu,     ///< floating point
    kLoad,    ///< memory read
    kStore,   ///< memory write
    kBranch,  ///< conditional or indirect branch
    kNop,     ///< pipeline filler (fetch/decode only)
};

/** Privilege mode an op retires in (Figure 4's user/kernel breakdown). */
enum class Mode : std::uint8_t { kUser, kKernel };

/** One micro-operation, fully described for the core model. */
struct MicroOp
{
    OpClass cls = OpClass::kAlu;
    Mode mode = Mode::kUser;
    bool taken = false;        ///< branch: resolved direction
    bool indirect = false;     ///< branch: target comes from a register
    bool partial_reg = false;  ///< writes a partial register (RAT hazard)
    std::uint8_t src_regs = 2;  ///< architectural registers read
    std::uint8_t dep_dist = 0;  ///< distance to producer op; 0 = none
    std::uint64_t fetch_addr = 0;  ///< instruction address (L1I / ITLB)
    std::uint64_t addr = 0;        ///< data address (load/store)
    std::uint64_t branch_key = 0;  ///< stable branch-site identity
    std::uint64_t target_key = 0;  ///< indirect branch target identity
};

/**
 * Represented-op counts attached to one warming-only delivery: how many
 * real stream ops (by mode) the batch stands for. Warm batches compress
 * the stream -- compute ops are dropped entirely and instruction
 * fetches are line-granular -- so the batch length itself says nothing
 * about stream position.
 */
struct WarmSummary
{
    std::uint64_t user_ops = 0;
    std::uint64_t kernel_ops = 0;

    std::uint64_t total() const { return user_ops + kernel_ops; }
};

/**
 * Phase of the interval-sampling schedule a delivered op belongs to.
 * trace::ExecCtx runs its schedule on these values; sinks see them only
 * as observational labels (telemetry spans).
 */
enum class SampleSegment : std::uint8_t {
    kWarmup,  ///< functional-warming lead-in
    kWarm,    ///< functional warming between windows
    kWindow,  ///< detailed measurement window
};

/** Consumer of a micro-op stream (implemented by cpu::Core). */
class OpSink
{
  public:
    virtual ~OpSink() = default;

    /** Consume one op; called in program order. */
    virtual void consume(const MicroOp& op) = 0;

    /**
     * Consume `n` ops in program order. Semantically identical to n
     * consume() calls (the default does exactly that); sinks on hot
     * paths override it to amortize the virtual dispatch over the whole
     * batch. Producers may deliver the same logical stream through any
     * mix of consume() and consume_batch() calls.
     */
    virtual void consume_batch(const MicroOp* ops, std::size_t n)
    {
        for (std::size_t i = 0; i < n; ++i)
            consume(ops[i]);
    }

    // --- Interval sampling (all defaults are exact-mode no-ops) -------

    /**
     * Warming-only delivery mode: `n` ops that should update long-lived
     * state (cache tags, TLBs, branch predictor tables) and note their
     * demand events (misses, walks, branches), but skip the timing
     * model. kNop ops carry an
     * instruction-line address in fetch_addr (one per line the fetch
     * stream enters); loads/stores carry data addresses; branches carry
     * their resolved outcome. `represented` totals the real stream ops
     * the batch stands for. The default drops the batch (sinks that
     * never sample don't care).
     */
    virtual void consume_warm_batch(const MicroOp* ops, std::size_t n,
                                    const WarmSummary& represented)
    {
        (void)ops;
        (void)n;
        (void)represented;
    }

    /** A detailed measurement window starts with the next consume(). */
    virtual void begin_sample_window() {}

    /**
     * The window's pipeline re-pressurization head is over: counter
     * deltas for this window should baseline here. Called after the
     * first window_discard_ops detailed ops of each window (immediately
     * after begin_sample_window() when the discard is zero).
     */
    virtual void begin_window_measurement() {}

    /** The current detailed measurement window is complete. */
    virtual void end_sample_window() {}

    /**
     * The functional-warm lead-in is over; measurement state should
     * reset now (the sampled-mode equivalent of the ramp-up discard).
     */
    virtual void sampling_warmup_done() {}

    /**
     * The sampling schedule entered a new (non-empty) segment; ops
     * delivered from here belong to `segment`. Observational only --
     * sinks that trace their timeline bracket host-time spans with it;
     * the default ignores it.
     */
    virtual void begin_sample_segment(SampleSegment segment)
    {
        (void)segment;
    }

    /**
     * The interval schedule the producer should run, or nullptr for
     * exact mode. Queried once per ExecCtx construction, so the
     * schedule reaches every workload without per-workload plumbing.
     */
    virtual const sample::IntervalLayout* sample_layout() const
    {
        return nullptr;
    }
};

}  // namespace dcb::trace

#endif  // DCBENCH_TRACE_MICROOP_H_

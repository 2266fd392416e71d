#ifndef DCBENCH_TRACE_EXEC_CTX_H_
#define DCBENCH_TRACE_EXEC_CTX_H_

/**
 * @file
 * The instrumented execution API workload kernels are written against.
 *
 * A kernel runs its real algorithm over real (synthetic) data and narrates
 * every semantically meaningful action to the ExecCtx: loads and stores
 * with their simulated addresses, ALU/FP work, and branches with their
 * resolved directions. The context assembles complete MicroOps (attaching
 * instruction-fetch addresses from the active CodeLayout, privilege mode,
 * and rename/dependency metadata from the workload's ExecProfile) and
 * pushes them into an OpSink -- normally the simulated core.
 */

#include <cstddef>
#include <cstdint>

#include "sample/plan.h"
#include "trace/code_layout.h"
#include "trace/microop.h"
#include "util/rng.h"

namespace dcb::trace {

/**
 * Per-workload execution-style parameters.
 *
 * These describe properties of the *generated machine code* that the
 * algorithm source cannot express: partial-register writes (legacy x86
 * idioms, dense in the service stacks the paper measures, rare in JITed
 * loops) and the default producer-consumer distances of emitted code.
 */
struct ExecProfile
{
    double partial_reg_prob = 0.01;
    std::uint8_t load_consumer_dist = 3;  ///< default load dep distance
    std::uint8_t alu_dep_dist = 0;        ///< default ALU dep distance
};

/** Counts of ops issued through an ExecCtx, by mode. */
struct ExecCounts
{
    std::uint64_t user_ops = 0;
    std::uint64_t kernel_ops = 0;

    std::uint64_t total() const { return user_ops + kernel_ops; }
};

/** Instrumented execution context: the link from algorithm to core. */
class ExecCtx
{
  public:
    /**
     * @param sink          Consumer of the op stream (the core).
     * @param user_layout   Code layout of the application binary.
     * @param kernel_layout Code layout of the OS kernel.
     * @param profile      Execution-style parameters.
     * @param seed          Determinism seed for sampled metadata.
     */
    ExecCtx(OpSink& sink, CodeLayout user_layout, CodeLayout kernel_layout,
            const ExecProfile& profile, std::uint64_t seed);

    /** Flushes any ops still buffered (see flush()). */
    ~ExecCtx();

    ExecCtx(const ExecCtx&) = delete;
    ExecCtx& operator=(const ExecCtx&) = delete;

    // --- Data side -------------------------------------------------------

    /** Load from a simulated address; dep_dist 0 means "use profile". */
    void load(std::uint64_t addr, std::uint8_t dep_dist = 0);

    /** Load whose address depends on the previous load (pointer chase). */
    void chase_load(std::uint64_t addr);

    void store(std::uint64_t addr);

    // --- Compute side ------------------------------------------------------

    /**
     * n integer ops. `serial` chains each op on its predecessor;
     * otherwise a nonzero `dep_dist` marks each op dependent on the op
     * that many positions earlier (software-pipelined chains).
     */
    void alu(std::uint32_t n = 1, bool serial = false,
             std::uint8_t dep_dist = 0);

    /** n floating-point ops; same dependency conventions as alu(). */
    void fpu(std::uint32_t n = 1, bool serial = false,
             std::uint8_t dep_dist = 0);

    // --- Control flow ----------------------------------------------------

    /** Conditional branch at site `key` resolving to `taken`. */
    void branch(std::uint64_t key, bool taken);

    /** Indirect branch/call at `key` jumping to `target_key`. */
    void indirect_branch(std::uint64_t key, std::uint64_t target_key);

    /** Direct call: forces an instruction-stream transfer plus linkage. */
    void call(std::uint64_t key);

    // --- Mode ------------------------------------------------------------

    void set_mode(Mode mode)
    {
        if (sampling_) {
            sampled_set_mode(mode);
            return;
        }
        mode_ = mode;
    }
    Mode mode() const { return mode_; }

    const ExecCounts& counts() const { return counts_; }

    // --- Interval sampling -----------------------------------------------

    /**
     * True when an interval schedule is active. The constructor asks
     * the sink (OpSink::sample_layout) and self-configures, so
     * workloads never deal with sampling directly: counts() advances by
     * represented ops either way and the op budget loop is unchanged.
     */
    bool sampling() const { return sampling_; }

    /** True while fast-forwarding (functional warming, no timing). */
    bool fast_forwarding() const { return sampling_ && ff(); }

    // --- Batch delivery --------------------------------------------------

    /**
     * Ops accumulated per sink delivery. Assembled MicroOps stay in one
     * cache-resident inline buffer and reach the sink through a single
     * consume_batch() call, amortizing the virtual dispatch.
     */
    static constexpr std::size_t kBatchCapacity = 64;

    /**
     * Deliver every buffered op to the sink now. Called automatically
     * when the buffer fills and at destruction; call it explicitly
     * before reading sink-side state (e.g. core counters) mid-run.
     */
    void flush();

  private:
    /**
     * Granularity of fast-forward instruction warming. Matches the
     * Table III 64-byte lines; a finer granularity would only cost
     * extra touches.
     */
    static constexpr std::uint64_t kWarmLineBytes = 64;
    /** Pending-insn backlog that triggers a lazy layout sync. */
    static constexpr std::uint64_t kWarmSyncInsns = 256;

    void emit(MicroOp& op);
    CodeLayout& active_layout();

    // Sampled-mode op paths (out of line; exact mode never calls them).
    void start_sampling(const sample::IntervalLayout& layout);
    void sampled_mem(OpClass cls, std::uint64_t addr,
                     std::uint8_t dep_dist, bool chase);
    void sampled_compute(OpClass cls, std::uint32_t n, bool serial,
                         std::uint8_t dep_dist);
    void sampled_branch(std::uint64_t key, bool taken, bool indirect,
                        std::uint64_t target_key, std::uint8_t dep_dist,
                        bool transfer);
    void sampled_set_mode(Mode mode);
    /** Every segment but a detailed window fast-forwards (warms). */
    bool ff() const { return segment_ != SampleSegment::kWindow; }
    /** Account `n` warming ops (counts, layout backlog, segment). */
    void ff_account(std::uint64_t n);
    /** Append one warm op, flushing the warm batch when full. */
    void ff_append_warm(const MicroOp& op);
    /** Advance the layout over the pending-insn backlog (line warms). */
    void ff_sync_layout();
    /** Deliver the buffered warm ops plus their represented counts. */
    void flush_warm();
    /** Advance the schedule when the current segment is exhausted. */
    void next_segment();
    /** Detailed-window bookkeeping after one emitted op. */
    void window_step()
    {
        if (win_discard_left_ != 0 && --win_discard_left_ == 0) {
            flush();  // the discard head must land before the baseline
            sink_.begin_window_measurement();
        }
        if (--seg_left_ == 0)
            next_segment();
    }

    OpSink& sink_;
    CodeLayout user_layout_;
    CodeLayout kernel_layout_;
    ExecProfile profile_;
    util::Rng rng_;
    Mode mode_ = Mode::kUser;
    ExecCounts counts_;
    std::uint64_t ops_since_last_load_ = 1 << 20;
    std::uint64_t partial_reg_threshold_ = 0;  ///< u64-scaled probability
    std::size_t batch_size_ = 0;

    /**
     * Gap length for the next period: the base length jittered to
     * [base/2, 3*base/2] with the context's deterministic RNG (mean
     * preserved). Periodic workload phases otherwise alias with the
     * fixed sampling period and systematically escape every window.
     */
    std::uint64_t jittered(std::uint64_t base)
    {
        return base ? base / 2 + rng_.next_u64() % (base + 1) : 0;
    }

    // --- Interval-sampling state (inert in exact mode) ----------------
    bool sampling_ = false;
    /** Current schedule segment; the warmup lead-in ends in a counter
        reset, then [warm|window] repeats until the stream ends (the
        stream, not the layout, decides the actual window count). */
    SampleSegment segment_ = SampleSegment::kWarmup;
    std::uint64_t seg_left_ = 0;  ///< ops left in the current segment
    std::uint64_t gap_ops_ = 0;   ///< mean warm gap between windows
    std::uint64_t window_ops_ = 0;
    std::uint64_t window_discard_ops_ = 0;
    std::uint64_t win_discard_left_ = 0;  ///< discard ops still to retire
    /** FF insns not yet walked through the layout (lazy, batched). */
    std::uint64_t ff_pending_insns_ = 0;
    std::uint64_t warm_user_pending_ = 0;
    std::uint64_t warm_kernel_pending_ = 0;
    std::size_t wbatch_size_ = 0;

    MicroOp batch_[kBatchCapacity];
    MicroOp wbatch_[kBatchCapacity];
};

}  // namespace dcb::trace

#endif  // DCBENCH_TRACE_EXEC_CTX_H_

#include "trace/exec_ctx.h"

#include <cmath>
#include <limits>

#include "util/assert.h"

namespace dcb::trace {

ExecCtx::ExecCtx(OpSink& sink, CodeLayout user_layout,
                 CodeLayout kernel_layout, const ExecProfile& profile,
                 std::uint64_t seed)
    : sink_(sink), user_layout_(std::move(user_layout)),
      kernel_layout_(std::move(kernel_layout)), profile_(profile),
      rng_(seed)
{
    DCB_EXPECTS(profile.partial_reg_prob >= 0.0 &&
                profile.partial_reg_prob <= 1.0);
    partial_reg_threshold_ = static_cast<std::uint64_t>(
        profile.partial_reg_prob *
        static_cast<double>(std::numeric_limits<std::uint64_t>::max()));
    if (const sample::IntervalLayout* layout = sink.sample_layout())
        start_sampling(*layout);
}

ExecCtx::~ExecCtx()
{
    try {
        flush();
    } catch (...) {
        // Destructors must not propagate; a sink that throws mid-flush
        // (only test doubles do) loses the trailing partial batch.
    }
}

CodeLayout&
ExecCtx::active_layout()
{
    return mode_ == Mode::kUser ? user_layout_ : kernel_layout_;
}

void
ExecCtx::flush()
{
    if (sampling_ && ff()) {
        ff_sync_layout();
        flush_warm();
    }
    if (batch_size_ == 0)
        return;
    const std::size_t n = batch_size_;
    batch_size_ = 0;  // reset first: the sink may throw (fault tests)
    sink_.consume_batch(batch_, n);
}

void
ExecCtx::emit(MicroOp& op)
{
    op.mode = mode_;
    op.fetch_addr = active_layout().next_fetch();
    if (partial_reg_threshold_ && op.cls == OpClass::kAlu)
        op.partial_reg = rng_.next_u64() < partial_reg_threshold_;
    // Cheap deterministic register-read pattern (1 or 2 sources).
    op.src_regs = static_cast<std::uint8_t>(1 + (counts_.total() & 1));
    if (mode_ == Mode::kUser)
        ++counts_.user_ops;
    else
        ++counts_.kernel_ops;
    ++ops_since_last_load_;
    batch_[batch_size_] = op;
    if (++batch_size_ == kBatchCapacity)
        flush();
}

void
ExecCtx::load(std::uint64_t addr, std::uint8_t dep_dist)
{
    if (sampling_) {
        sampled_mem(OpClass::kLoad, addr, dep_dist, false);
        return;
    }
    MicroOp op;
    op.cls = OpClass::kLoad;
    op.addr = addr;
    op.dep_dist = dep_dist;
    ops_since_last_load_ = 0;
    emit(op);
}

void
ExecCtx::chase_load(std::uint64_t addr)
{
    if (sampling_) {
        sampled_mem(OpClass::kLoad, addr, 0, true);
        return;
    }
    MicroOp op;
    op.cls = OpClass::kLoad;
    op.addr = addr;
    // ops_since_last_load_ counts ops emitted since (and including) the
    // previous load, i.e. exactly its distance from this op.
    const std::uint64_t dist = ops_since_last_load_;
    op.dep_dist = static_cast<std::uint8_t>(dist > 255 ? 0 : dist);
    ops_since_last_load_ = 0;
    emit(op);
}

void
ExecCtx::store(std::uint64_t addr)
{
    if (sampling_) {
        sampled_mem(OpClass::kStore, addr, 0, false);
        return;
    }
    MicroOp op;
    op.cls = OpClass::kStore;
    op.addr = addr;
    // A store usually consumes a recently produced value.
    op.dep_dist = 2;
    emit(op);
}

void
ExecCtx::alu(std::uint32_t n, bool serial, std::uint8_t dep_dist)
{
    if (sampling_) {
        sampled_compute(OpClass::kAlu, n, serial, dep_dist);
        return;
    }
    for (std::uint32_t i = 0; i < n; ++i) {
        MicroOp op;
        op.cls = OpClass::kAlu;
        op.dep_dist = serial ? 1
                             : (dep_dist ? dep_dist
                                         : profile_.alu_dep_dist);
        // The first op after a load consumes the loaded value -- unless
        // the caller stated an explicit dependence.
        if (op.dep_dist == 0 && ops_since_last_load_ == 1)
            op.dep_dist = 1;
        emit(op);
    }
}

void
ExecCtx::fpu(std::uint32_t n, bool serial, std::uint8_t dep_dist)
{
    if (sampling_) {
        sampled_compute(OpClass::kFpu, n, serial, dep_dist);
        return;
    }
    for (std::uint32_t i = 0; i < n; ++i) {
        MicroOp op;
        op.cls = OpClass::kFpu;
        op.dep_dist = serial ? 1
                             : (dep_dist ? dep_dist
                                         : profile_.alu_dep_dist);
        if (op.dep_dist == 0 && ops_since_last_load_ == 1)
            op.dep_dist = 1;
        emit(op);
    }
}

void
ExecCtx::branch(std::uint64_t key, bool taken)
{
    if (sampling_) {
        sampled_branch(key, taken, false, 0, 1, false);
        return;
    }
    MicroOp op;
    op.cls = OpClass::kBranch;
    op.branch_key = key;
    op.taken = taken;
    // A branch typically tests a value computed just before it.
    op.dep_dist = 1;
    emit(op);
    // Taken conditional branches overwhelmingly stay inside the current
    // function (loop back-edges); the CodeLayout's own run-length model
    // covers inter-procedural transfers, so no force_transfer() here.
}

void
ExecCtx::indirect_branch(std::uint64_t key, std::uint64_t target_key)
{
    if (sampling_) {
        sampled_branch(key, true, true, target_key, 2, true);
        return;
    }
    MicroOp op;
    op.cls = OpClass::kBranch;
    op.branch_key = key;
    op.taken = true;
    op.indirect = true;
    op.target_key = target_key;
    op.dep_dist = 2;
    emit(op);
    active_layout().force_transfer();
}

void
ExecCtx::call(std::uint64_t key)
{
    if (sampling_) {
        sampled_branch(key, true, false, 0, 0, true);
        return;
    }
    // Linkage: push return address (store-like ALU work), then transfer.
    MicroOp op;
    op.cls = OpClass::kBranch;
    op.branch_key = key;
    op.taken = true;
    emit(op);
    active_layout().force_transfer();
}

// --- Interval-sampling machinery ---------------------------------------
//
// While sampling, every public entry point routes to a sampled_*()
// sibling. Inside a detailed window the sibling assembles exactly the op
// the exact path would (same class, dependency and address rules) and
// feeds it through emit(). Fast-forward performs functional warming:
// data addresses and branch outcomes are buffered as warm ops, and the
// instruction-fetch stream is replayed lazily in line-granular form via
// CodeLayout::advance(). The schedule itself -- a warmup lead-in, then
// a [warm|window] cycle repeating until the stream ends, with each
// period's gap length jittered to break phase aliasing -- lives in
// next_segment().

void
ExecCtx::start_sampling(const sample::IntervalLayout& layout)
{
    if (!layout.sampled)
        return;
    DCB_EXPECTS(layout.windows > 0 && layout.window_ops > 0);
    DCB_EXPECTS(layout.period_ops >= layout.window_ops);
    sampling_ = true;
    gap_ops_ = layout.gap_ops();
    window_ops_ = layout.window_ops;
    window_discard_ops_ = layout.window_discard_ops;
    segment_ = SampleSegment::kWarmup;
    seg_left_ = layout.warmup_ops;
    if (seg_left_ == 0)
        next_segment();
    else
        sink_.begin_sample_segment(SampleSegment::kWarmup);
}

void
ExecCtx::next_segment()
{
    // Loop: a zero-length segment (a warm gap jittered to 0 when the
    // period equals the window) falls straight through to the next phase.
    for (;;) {
        switch (segment_) {
          case SampleSegment::kWarmup:
            ff_sync_layout();
            flush_warm();
            sink_.sampling_warmup_done();
            segment_ = SampleSegment::kWarm;
            seg_left_ = jittered(gap_ops_);
            break;
          case SampleSegment::kWarm:
            ff_sync_layout();
            flush_warm();
            segment_ = SampleSegment::kWindow;
            seg_left_ = window_ops_;
            win_discard_left_ = window_discard_ops_;
            sink_.begin_sample_window();
            if (win_discard_left_ == 0)
                sink_.begin_window_measurement();
            break;
          case SampleSegment::kWindow:
            flush();  // the sink must see the full window before the cut
            sink_.end_sample_window();
            // The schedule is periodic until the stream actually ends:
            // workloads stop at phase granularity and may overshoot the
            // nominal budget substantially, and exact mode measures that
            // overshoot too. A terminal fast-forward tail would make the
            // two modes measure different spans of the stream.
            segment_ = SampleSegment::kWarm;
            seg_left_ = jittered(gap_ops_);
            break;
        }
        if (seg_left_ != 0) {
            // Announce only the segment that actually runs; zero-length
            // segments resolved by the loop never surface.
            sink_.begin_sample_segment(segment_);
            return;
        }
    }
}

void
ExecCtx::ff_account(std::uint64_t n)
{
    if (mode_ == Mode::kUser) {
        counts_.user_ops += n;
        warm_user_pending_ += n;
    } else {
        counts_.kernel_ops += n;
        warm_kernel_pending_ += n;
    }
    ff_pending_insns_ += n;
    seg_left_ -= n;
    if (ff_pending_insns_ >= kWarmSyncInsns)
        ff_sync_layout();
}

void
ExecCtx::ff_append_warm(const MicroOp& op)
{
    wbatch_[wbatch_size_] = op;
    if (++wbatch_size_ == kBatchCapacity)
        flush_warm();
}

void
ExecCtx::ff_sync_layout()
{
    if (ff_pending_insns_ == 0)
        return;
    const std::uint64_t n = ff_pending_insns_;
    ff_pending_insns_ = 0;
    const Mode m = mode_;
    active_layout().advance(
        n, kWarmLineBytes, [this, m](std::uint64_t line) {
            MicroOp op;
            op.cls = OpClass::kNop;
            op.mode = m;
            op.fetch_addr = line;
            ff_append_warm(op);
        });
}

void
ExecCtx::flush_warm()
{
    if (wbatch_size_ == 0 && warm_user_pending_ == 0 &&
        warm_kernel_pending_ == 0)
        return;
    const WarmSummary represented{warm_user_pending_,
                                  warm_kernel_pending_};
    warm_user_pending_ = 0;
    warm_kernel_pending_ = 0;
    const std::size_t n = wbatch_size_;
    wbatch_size_ = 0;
    sink_.consume_warm_batch(wbatch_, n, represented);
}

void
ExecCtx::sampled_set_mode(Mode mode)
{
    if (mode == mode_)
        return;
    if (ff())
        ff_sync_layout();  // drain the backlog under the old layout
    mode_ = mode;
}

void
ExecCtx::sampled_mem(OpClass cls, std::uint64_t addr,
                     std::uint8_t dep_dist, bool chase)
{
    if (!ff()) {
        MicroOp op;
        op.cls = cls;
        op.addr = addr;
        if (cls == OpClass::kLoad) {
            if (chase) {
                const std::uint64_t dist = ops_since_last_load_;
                op.dep_dist =
                    static_cast<std::uint8_t>(dist > 255 ? 0 : dist);
            } else {
                op.dep_dist = dep_dist;
            }
            ops_since_last_load_ = 0;
        } else {
            op.dep_dist = 2;  // a store consumes a recent value
        }
        emit(op);
        window_step();
        return;
    }
    // Track load recency exactly as emit() would (post-emit value), so
    // dependency rules are seamless at a window boundary.
    if (cls == OpClass::kLoad)
        ops_since_last_load_ = 1;
    else
        ++ops_since_last_load_;
    ff_account(1);
    // Every data access is delivered: the stride prefetcher observes L1D
    // hits too, so eliding repeats would skew its stream.
    MicroOp op;
    op.cls = cls;
    op.mode = mode_;
    op.addr = addr;
    ff_append_warm(op);
    if (seg_left_ == 0)
        next_segment();
}

void
ExecCtx::sampled_compute(OpClass cls, std::uint32_t n, bool serial,
                         std::uint8_t dep_dist)
{
    while (n > 0) {
        if (ff()) {
            // Compute ops carry no long-lived state: account a whole
            // run at once; the lazy layout sync warms the fetch lines.
            std::uint64_t take = n;
            if (take > seg_left_)
                take = seg_left_;
            ff_account(take);
            ops_since_last_load_ += take;
            n -= static_cast<std::uint32_t>(take);
            if (seg_left_ == 0)
                next_segment();
            continue;
        }
        MicroOp op;
        op.cls = cls;
        op.dep_dist = serial ? 1
                             : (dep_dist ? dep_dist
                                         : profile_.alu_dep_dist);
        if (op.dep_dist == 0 && ops_since_last_load_ == 1)
            op.dep_dist = 1;
        emit(op);
        --n;
        window_step();
    }
}

void
ExecCtx::sampled_branch(std::uint64_t key, bool taken, bool indirect,
                        std::uint64_t target_key, std::uint8_t dep_dist,
                        bool transfer)
{
    if (!ff()) {
        MicroOp op;
        op.cls = OpClass::kBranch;
        op.branch_key = key;
        op.taken = taken;
        op.indirect = indirect;
        op.target_key = target_key;
        op.dep_dist = dep_dist;
        emit(op);
        if (transfer)
            active_layout().force_transfer();
        window_step();
        return;
    }
    ++ops_since_last_load_;
    ff_account(1);
    MicroOp op;
    op.cls = OpClass::kBranch;
    op.mode = mode_;
    op.branch_key = key;
    op.taken = taken;
    op.indirect = indirect;
    op.target_key = target_key;
    ff_append_warm(op);
    if (transfer) {
        // The transfer redirects the fetch stream *after* this branch:
        // replay the backlog (which includes it) first.
        ff_sync_layout();
        active_layout().force_transfer();
    }
    if (seg_left_ == 0)
        next_segment();
}

}  // namespace dcb::trace

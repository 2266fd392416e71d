#ifndef DCBENCH_CPU_CORE_H_
#define DCBENCH_CPU_CORE_H_

/**
 * @file
 * First-order out-of-order core model.
 *
 * The model follows the interval-analysis tradition the paper cites
 * (Karkhanis & Smith [27]; Eyerman et al. [22]): micro-ops flow through
 * fetch -> rename(RAT) -> dispatch(RS/ROB/LSQ) -> issue -> execute ->
 * in-order retire, each stage advancing per-stage time cursors at the
 * configured widths. Structural resources are modelled as rings of
 * release times (a dispatch must wait for the entry of the op
 * `capacity` positions earlier), so every lost cycle can be attributed to
 * one of the six stall classes of the paper's Figure 6: instruction fetch,
 * RAT, load buffer, store buffer, RS full and ROB full.
 *
 * Cache, TLB and branch structures are simulated exactly (per access), so
 * the MPKI-class figures derive from real address streams rather than
 * statistical rates.
 */

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "cpu/branch.h"
#include "cpu/config.h"
#include "cpu/events.h"
#include "mem/hierarchy.h"
#include "mem/page_table.h"
#include "mem/tlb.h"
#include "obs/time_series.h"
#include "obs/trace_writer.h"
#include "sample/plan.h"
#include "trace/microop.h"

namespace dcb::cpu {

/**
 * Raw event totals: an exact, always-on count of every Event. The one
 * counter record the core keeps; every report derives from it.
 */
class CoreStats
{
  public:
    double get(Event e) const
    {
        return values_[static_cast<std::size_t>(e)];
    }

    void add(Event e, double w) { values_[static_cast<std::size_t>(e)] += w; }

    /** Add every count of `other` (sums window deltas). */
    CoreStats& operator+=(const CoreStats& other);
    /** The counts accumulated since `base` was this record. */
    CoreStats operator-(const CoreStats& base) const;

    double user_instructions = 0.0;
    double kernel_instructions = 0.0;

  private:
    std::array<double, kEventCount> values_{};
};

/** One simulated out-of-order core with its private memory structures. */
class Core final : public trace::OpSink
{
  public:
    Core(const CoreConfig& core_config,
         const mem::MemoryConfig& memory_config);

    /** Consume one micro-op in program order. */
    void consume(const trace::MicroOp& op) override;

    /** Consume a batch in program order (amortizes the virtual call). */
    void consume_batch(const trace::MicroOp* ops, std::size_t n) override;

    // --- Interval sampling -----------------------------------------------

    /**
     * Arm interval sampling: the schedule is handed to the ExecCtx at
     * construction (via sample_layout()) and the core starts honouring
     * warm deliveries and window brackets.
     */
    void set_sample_layout(const sample::IntervalLayout& layout);

    const sample::IntervalLayout* sample_layout() const override;

    /**
     * Functional warming: update caches/TLBs/predictor state and note
     * the demand events (misses, walks, branches) the timed path would
     * -- the sampled structure-metric source -- while skipping the
     * pipeline model and the timing events.
     */
    void consume_warm_batch(const trace::MicroOp* ops, std::size_t n,
                            const trace::WarmSummary& represented) override;

    void begin_sample_window() override;
    void begin_window_measurement() override;
    void end_sample_window() override;
    void sampling_warmup_done() override;

    /**
     * Counter deltas of the completed detailed windows (empty in exact
     * mode).
     */
    const std::vector<CoreStats>& sample_windows() const
    {
        return windows_;
    }

    /** Represented ops fast-forwarded since the warmup reset, by mode. */
    std::uint64_t warm_user_ops() const { return warm_user_ops_; }
    std::uint64_t warm_kernel_ops() const { return warm_kernel_ops_; }

    // --- Results ---------------------------------------------------------

    const CoreStats& stats() const { return stats_; }
    double cycles() const { return last_retire_; }
    std::uint64_t instructions() const { return op_index_; }
    double ipc() const;

    /** Retired-branch misprediction ratio (Figure 12). */
    double branch_misprediction_ratio() const;

    /** Completed ITLB-triggered page walks (structure counter). */
    std::uint64_t itlb_walks() const { return itlb_.completed_walks(); }
    /** Completed DTLB-triggered page walks (structure counter). */
    std::uint64_t dtlb_walks() const { return dtlb_.completed_walks(); }
    const BranchUnit& branch_unit() const { return branch_; }

    mem::CacheHierarchy& caches() { return hierarchy_; }
    const mem::CacheHierarchy& caches() const { return hierarchy_; }

    const CoreConfig& config() const { return cfg_; }

    /**
     * Replace the branch direction predictor (ablation support). Resets
     * branch statistics.
     */
    void set_direction_predictor(
        std::unique_ptr<DirectionPredictor> predictor);

    /**
     * Zero every counter (CoreStats, cache/TLB/branch hit rates) while
     * keeping all microarchitectural state warm -- the paper's
     * "measure after ramp-up" methodology.
     */
    void reset_counters();

    /** Automatically reset_counters() once `op` ops have retired. */
    void set_counter_reset_at(std::uint64_t op) { warmup_reset_at_ = op; }

    // --- Observability ---------------------------------------------------

    /**
     * Column names of the interval telemetry rows this core produces:
     * every Event (deltas), user/kernel retired instructions
     * (deltas), then the derived gauges (interval IPC and mean
     * ROB/RS/load-buffer/store-buffer occupancy).
     */
    static std::vector<std::string> telemetry_columns();
    /** Additive mask matching telemetry_columns() (gauges are false). */
    static std::vector<bool> telemetry_additive();

    /**
     * Arm interval telemetry: every `interval_ops` retired ops one
     * delta row is appended to `recorder` (constructed over
     * telemetry_columns()). Rows restart at each counter reset, so the
     * recorded series covers exactly the measured (post-warmup) span
     * and its additive columns sum bit-for-bit to the final counters
     * once finish_observation() runs. nullptr or 0 disarms.
     */
    void set_telemetry(obs::TimeSeriesRecorder* recorder,
                       std::uint64_t interval_ops);

    /**
     * Attach a trace writer: sampling-segment transitions
     * (warmup/warm/window) become host-time spans on lane `tid`.
     */
    void set_trace(obs::TraceWriter* trace, std::uint64_t tid);

    void begin_sample_segment(trace::SampleSegment segment) override;

    /**
     * Flush observation state after the op stream ends: emits the final
     * partial telemetry interval, records whole-run totals on the
     * recorder, and closes the open segment span. Idempotent.
     */
    void finish_observation();

  private:
    /** The per-op pipeline model; non-virtual so batches inline it. */
    void consume_one(const trace::MicroOp& op);

    /** Functional warming for one warm op; non-virtual (batch-inlined). */
    void warm_one(const trace::MicroOp& op);

    /** Emit one telemetry row covering ops since the previous row. */
    void telemetry_tick(bool final_flush);
    /** Re-baseline telemetry at the current op (counter reset). */
    void telemetry_restart();
    /** Close the open sampling-segment span at host time `now_us`. */
    void close_segment_span(double now_us);

    void note(Event e, double w) { stats_.add(e, w); }
    /** Record L2/L3 access+miss events for one beyond-L1 access. */
    void note_unified_levels(mem::HitLevel level);
    /** Page-walker PTE access that also records unified-cache events. */
    std::uint32_t walker_access(std::uint64_t addr);

    CoreConfig cfg_;
    mem::PageTable page_table_;
    mem::CacheHierarchy hierarchy_;
    mem::Tlb shared_tlb_;
    mem::TwoLevelTlb itlb_;
    mem::TwoLevelTlb dtlb_;
    BranchUnit branch_;
    CoreStats stats_;

    // Stage-width reciprocals (cycles per op at full width).
    double inv_fetch_width_;
    double inv_dispatch_width_;
    double inv_retire_width_;
    double inv_rat_ports_;
    double rat_demand_per_reg_;
    std::array<double, 4> inv_ports_;  ///< alu, fpu, load, store

    // Timeline cursors (cycles).
    double fetch_time_ = 0.0;
    double rename_time_ = 0.0;
    double rat_read_time_ = 0.0;
    double dispatch_time_ = 0.0;
    double last_retire_ = 0.0;
    std::array<double, 4> port_time_{};

    // Structural resource rings (release times).
    std::vector<double> rob_;
    std::vector<double> rs_;
    std::vector<double> load_buf_;
    std::vector<double> store_buf_;

    // Completion times of the last kCompWindow ops (dependency lookups).
    static constexpr std::uint64_t kCompWindow = 256;
    std::array<double, kCompWindow> comp_{};

    std::uint64_t op_index_ = 0;
    std::uint64_t load_count_ = 0;
    std::uint64_t store_count_ = 0;

    // Ring cursors into the structural-resource rings. Ops arrive in
    // program order, so each cursor walks its ring sequentially; an
    // increment-and-wrap replaces a 64-bit modulo on the per-op path.
    std::size_t rob_cursor_ = 0;
    std::size_t rs_cursor_ = 0;
    std::size_t load_cursor_ = 0;
    std::size_t store_cursor_ = 0;
    std::uint64_t seen_prefetch_fills_ = 0;
    std::uint64_t seen_prefetch_mem_fills_ = 0;
    /** Memory-bus cursor: next cycle a line transfer can start. */
    double mem_bus_time_ = 0.0;
    std::uint64_t warmup_reset_at_ = 0;
    /** Retire-time baseline of the last counter reset (IPC windows). */
    double cycle_baseline_ = 0.0;
    std::uint64_t op_baseline_ = 0;

    // --- Interval-sampling state (inert in exact mode) ----------------
    sample::IntervalLayout sample_layout_{};
    bool has_sample_layout_ = false;
    bool in_window_ = false;
    bool in_measurement_ = false;  ///< discard head retired, baseline set
    std::vector<CoreStats> windows_;
    CoreStats window_base_;  ///< stats at begin_window_measurement()
    std::uint64_t warm_user_ops_ = 0;
    std::uint64_t warm_kernel_ops_ = 0;
    /** Last fetch page warmed (ITLB warm once per page transition). */
    std::uint64_t last_warm_fetch_page_ = ~std::uint64_t{0};
    std::uint32_t page_shift_ = 12;

    // --- Telemetry (inert while telemetry_ == nullptr) -----------------
    obs::TimeSeriesRecorder* telemetry_ = nullptr;
    std::uint64_t telemetry_interval_ = 0;
    /** op_index_ that triggers the next row; ~0 = disarmed. */
    std::uint64_t telemetry_next_op_ = ~std::uint64_t{0};
    std::uint64_t telemetry_last_op_ = 0;
    /** Cumulative counter values already accounted into emitted rows. */
    std::array<double, kEventCount + 2> telemetry_prev_{};
    // Structure residence integrals (op-cycles; Little's law gives mean
    // occupancy as residence / cycles). Accumulated only while armed.
    double rob_residence_ = 0.0;
    double rs_residence_ = 0.0;
    double load_residence_ = 0.0;
    double store_residence_ = 0.0;
    double rob_residence_base_ = 0.0;
    double rs_residence_base_ = 0.0;
    double load_residence_base_ = 0.0;
    double store_residence_base_ = 0.0;

    // --- Tracing (inert while trace_ == nullptr) -----------------------
    obs::TraceWriter* trace_ = nullptr;
    std::uint64_t trace_tid_ = 0;
    int cur_segment_ = -1;  ///< open trace::SampleSegment, -1 = none
    double segment_start_us_ = 0.0;
};

}  // namespace dcb::cpu

#endif  // DCBENCH_CPU_CORE_H_

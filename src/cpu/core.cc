#include "cpu/core.h"

#include <algorithm>
#include <bit>

#include "util/assert.h"

namespace dcb::cpu {

namespace {

/** Execution port class index for port cursors. */
enum PortClass : std::size_t { kPortAlu = 0, kPortFpu, kPortLoad, kPortStore };

}  // namespace

CoreStats&
CoreStats::operator+=(const CoreStats& other)
{
    for (std::size_t i = 0; i < kEventCount; ++i)
        values_[i] += other.values_[i];
    user_instructions += other.user_instructions;
    kernel_instructions += other.kernel_instructions;
    return *this;
}

CoreStats
CoreStats::operator-(const CoreStats& base) const
{
    CoreStats d;
    for (std::size_t i = 0; i < kEventCount; ++i)
        d.values_[i] = values_[i] - base.values_[i];
    d.user_instructions = user_instructions - base.user_instructions;
    d.kernel_instructions = kernel_instructions - base.kernel_instructions;
    return d;
}

Core::Core(const CoreConfig& core_config,
           const mem::MemoryConfig& memory_config)
    : cfg_(core_config),
      page_table_(memory_config.walk_levels,
                  std::countr_zero(memory_config.page_bytes)),
      hierarchy_(memory_config),
      shared_tlb_(memory_config.l2_tlb, memory_config.page_bytes),
      itlb_(memory_config.itlb, memory_config, shared_tlb_, page_table_,
            [this](std::uint64_t a) { return walker_access(a); }),
      dtlb_(memory_config.dtlb, memory_config, shared_tlb_, page_table_,
            [this](std::uint64_t a) { return walker_access(a); }),
      branch_(std::make_unique<GsharePredictor>(
                  core_config.gshare_history_bits),
              core_config.btb_entries, core_config.btb_ways)
{
    cfg_.validate();
    page_shift_ = static_cast<std::uint32_t>(
        std::countr_zero(memory_config.page_bytes));
    inv_fetch_width_ = 1.0 / cfg_.fetch_width;
    inv_dispatch_width_ = 1.0 / cfg_.dispatch_width;
    inv_retire_width_ = 1.0 / cfg_.retire_width;
    inv_rat_ports_ = 1.0 / cfg_.rat_read_ports;
    rat_demand_per_reg_ = (1.0 - cfg_.rat_bypass_fraction) * inv_rat_ports_;
    inv_ports_ = {1.0 / cfg_.alu_ports, 1.0 / cfg_.fpu_ports,
                  1.0 / cfg_.load_ports, 1.0 / cfg_.store_ports};
    rob_.assign(cfg_.rob_entries, 0.0);
    rs_.assign(cfg_.rs_entries, 0.0);
    load_buf_.assign(cfg_.load_buffer_entries, 0.0);
    store_buf_.assign(cfg_.store_buffer_entries, 0.0);
}

void
Core::note_unified_levels(mem::HitLevel level)
{
    note(Event::kL2Access, 1.0);
    if (level == mem::HitLevel::kL2)
        return;
    note(Event::kL2Miss, 1.0);
    note(Event::kL3Access, 1.0);
    if (level == mem::HitLevel::kL3)
        return;
    note(Event::kL3Miss, 1.0);
}

std::uint32_t
Core::walker_access(std::uint64_t addr)
{
    const mem::AccessResult r = hierarchy_.walker_access(addr);
    note_unified_levels(r.level);
    return r.latency;
}

void
Core::set_direction_predictor(std::unique_ptr<DirectionPredictor> predictor)
{
    branch_ = BranchUnit(std::move(predictor), cfg_.btb_entries,
                         cfg_.btb_ways);
}

void
Core::consume(const trace::MicroOp& op)
{
    consume_one(op);
}

void
Core::consume_batch(const trace::MicroOp* ops, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i)
        consume_one(ops[i]);
}

void
Core::consume_one(const trace::MicroOp& op)
{
    using trace::Mode;
    using trace::OpClass;

    // ------------------------------------------------------------------
    // Front end: ITLB translation + L1I fetch. The fetch cursor may not
    // run further ahead of dispatch than the in-flight window allows.
    // ------------------------------------------------------------------
    const double fetch_floor = dispatch_time_ -
        static_cast<double>(cfg_.rob_entries) * inv_dispatch_width_;
    if (fetch_time_ < fetch_floor)
        fetch_time_ = fetch_floor;

    const mem::TranslationResult itr = itlb_.translate(op.fetch_addr);
    if (!itr.l1_hit)
        note(Event::kITlbL1Miss, 1.0);
    if (itr.walked)
        note(Event::kITlbWalk, 1.0);

    const mem::AccessResult fa = hierarchy_.fetch(op.fetch_addr);
    note(Event::kL1IAccess, 1.0);
    double frontend_penalty = itr.latency;
    if (fa.level != mem::HitLevel::kL1) {
        note(Event::kL1IMiss, 1.0);
        note_unified_levels(fa.level);
        frontend_penalty += fa.latency;
    }
    // The decoupled front end (fetch/uop queues) absorbs short
    // instruction-supply hiccups; only the excess starves the core.
    frontend_penalty = std::max(0.0, frontend_penalty -
                                         cfg_.frontend_hide_cycles);
    if (frontend_penalty > 0.0) {
        note(Event::kFetchStallCycles, frontend_penalty);
        fetch_time_ += frontend_penalty;
    }
    fetch_time_ += inv_fetch_width_;
    const double fetched = fetch_time_;

    // ------------------------------------------------------------------
    // Rename: width-limited, plus RAT read-port and partial-register
    // pressure (the paper's RAT-stall category).
    // ------------------------------------------------------------------
    double renamed = std::max(fetched, rename_time_ + inv_dispatch_width_);
    const double rat_arrival = renamed;
    const double rat_start = std::max(rat_read_time_, rat_arrival);
    rat_read_time_ = rat_start + op.src_regs * rat_demand_per_reg_;
    double rat_penalty = rat_start - rat_arrival;
    if (op.partial_reg)
        rat_penalty += cfg_.partial_reg_penalty;
    if (rat_penalty > 0.0) {
        note(Event::kRatStallCycles, rat_penalty);
        renamed += rat_penalty;
    }
    rename_time_ = renamed;

    // ------------------------------------------------------------------
    // Dispatch: needs a ROB entry, an RS entry, and a load/store buffer
    // entry. Each ring stores the release time of the entry this op
    // reuses; waiting on it is the corresponding "resource full" stall.
    // ------------------------------------------------------------------
    double dispatched = std::max(renamed,
                                 dispatch_time_ + inv_dispatch_width_);

    const std::size_t rob_slot = rob_cursor_;
    if (++rob_cursor_ == rob_.size())
        rob_cursor_ = 0;
    if (rob_[rob_slot] > dispatched) {
        note(Event::kRobFullStallCycles, rob_[rob_slot] - dispatched);
        dispatched = rob_[rob_slot];
    }
    const std::size_t rs_slot = rs_cursor_;
    if (++rs_cursor_ == rs_.size())
        rs_cursor_ = 0;
    if (rs_[rs_slot] > dispatched) {
        note(Event::kRsFullStallCycles, rs_[rs_slot] - dispatched);
        dispatched = rs_[rs_slot];
    }
    std::size_t lq_slot = 0;
    std::size_t sq_slot = 0;
    if (op.cls == OpClass::kLoad) {
        lq_slot = load_cursor_;
        if (++load_cursor_ == load_buf_.size())
            load_cursor_ = 0;
        if (load_buf_[lq_slot] > dispatched) {
            note(Event::kLoadBufStallCycles, load_buf_[lq_slot] - dispatched);
            dispatched = load_buf_[lq_slot];
        }
    } else if (op.cls == OpClass::kStore) {
        sq_slot = store_cursor_;
        if (++store_cursor_ == store_buf_.size())
            store_cursor_ = 0;
        if (store_buf_[sq_slot] > dispatched) {
            note(Event::kStoreBufStallCycles,
                 store_buf_[sq_slot] - dispatched);
            dispatched = store_buf_[sq_slot];
        }
    }
    dispatch_time_ = dispatched;

    // ------------------------------------------------------------------
    // Issue: wait for the producer (dependency) and an execution port.
    // ------------------------------------------------------------------
    double ready = dispatched;
    if (op.dep_dist > 0 && op.dep_dist <= op_index_ &&
        op.dep_dist < kCompWindow) {
        const double producer =
            comp_[(op_index_ - op.dep_dist) % kCompWindow];
        ready = std::max(ready, producer);
    }

    std::size_t port = kPortAlu;
    std::uint32_t exec_latency = cfg_.alu_latency;
    std::uint32_t store_drain = 0;
    switch (op.cls) {
      case OpClass::kAlu:
        break;
      case OpClass::kFpu:
        port = kPortFpu;
        exec_latency = cfg_.fpu_latency;
        break;
      case OpClass::kBranch:
        exec_latency = cfg_.branch_latency;
        break;
      case OpClass::kLoad: {
        port = kPortLoad;
        const mem::TranslationResult dtr = dtlb_.translate(op.addr);
        if (!dtr.l1_hit)
            note(Event::kDTlbL1Miss, 1.0);
        if (dtr.walked)
            note(Event::kDTlbWalk, 1.0);
        const mem::AccessResult da = hierarchy_.data_access(op.addr, false);
        note(Event::kLoads, 1.0);
        note(Event::kL1DAccess, 1.0);
        if (da.level != mem::HitLevel::kL1) {
            note(Event::kL1DMiss, 1.0);
            note_unified_levels(da.level);
        }
        exec_latency = da.latency + dtr.latency;
        if (da.level == mem::HitLevel::kMemory) {
            // Occupy the memory bus; queueing delay adds to the load.
            const double start = std::max(mem_bus_time_, dispatched);
            mem_bus_time_ = start + cfg_.memory_bandwidth_cycles_per_line;
            exec_latency += static_cast<std::uint32_t>(start - dispatched);
        }
        break;
      }
      case OpClass::kStore: {
        port = kPortStore;
        const mem::TranslationResult dtr = dtlb_.translate(op.addr);
        if (!dtr.l1_hit)
            note(Event::kDTlbL1Miss, 1.0);
        if (dtr.walked)
            note(Event::kDTlbWalk, 1.0);
        const mem::AccessResult da = hierarchy_.data_access(op.addr, true);
        note(Event::kStores, 1.0);
        note(Event::kL1DAccess, 1.0);
        if (da.level != mem::HitLevel::kL1) {
            note(Event::kL1DMiss, 1.0);
            note_unified_levels(da.level);
        }
        // Forwardable after address generation; the write drains to the
        // cache after retirement and holds the store-buffer entry.
        exec_latency = 1;
        store_drain = da.latency + dtr.latency;
        break;
      }
      case OpClass::kNop:
        exec_latency = 0;
        break;
    }

    double issued = ready;
    if (op.cls != OpClass::kNop) {
        issued = std::max(port_time_[port], ready);
        port_time_[port] = issued + inv_ports_[port];
    }
    const double completed = issued + exec_latency;
    comp_[op_index_ % kCompWindow] = completed;
    rs_[rs_slot] = issued;  // RS entry frees at issue

    // ------------------------------------------------------------------
    // Retire: in order, at retire width.
    // ------------------------------------------------------------------
    const double prev_retire = last_retire_;
    const double retired = std::max(completed,
                                    last_retire_ + inv_retire_width_);
    last_retire_ = retired;
    rob_[rob_slot] = retired;
    if (op.cls == OpClass::kLoad) {
        load_buf_[lq_slot] = completed;
        ++load_count_;
    } else if (op.cls == OpClass::kStore) {
        store_buf_[sq_slot] = retired + store_drain;
        ++store_count_;
    }

    if (telemetry_ != nullptr) {
        // Residence integrals (op-cycles held per structure); Little's
        // law turns the per-interval residence delta into the interval's
        // mean occupancy at telemetry_tick() time.
        rob_residence_ += retired - dispatched;
        rs_residence_ += issued - dispatched;
        if (op.cls == OpClass::kLoad)
            load_residence_ += completed - dispatched;
        else if (op.cls == OpClass::kStore)
            store_residence_ += retired + store_drain - dispatched;
    }

    // ------------------------------------------------------------------
    // Branch resolution: mispredicts restart the front end after the
    // branch resolves plus the refill depth.
    // ------------------------------------------------------------------
    if (op.cls == OpClass::kBranch) {
        note(Event::kBrRetired, 1.0);
        const bool mispredicted =
            op.indirect ? branch_.resolve_indirect(op.branch_key,
                                                   op.target_key)
                        : branch_.resolve_conditional(op.branch_key,
                                                      op.taken);
        if (mispredicted) {
            note(Event::kBrMispred, 1.0);
            // The recovery bubble costs cycles (front end restarts after
            // resolution) but is not an instruction-fetch-stall *event*:
            // the paper's six Figure 6 counters do not include
            // speculation recovery, so it is not attributed there.
            const double restart = completed + cfg_.mispredict_penalty;
            if (restart > fetch_time_)
                fetch_time_ = restart;
        }
    }

    // ------------------------------------------------------------------
    // Retirement accounting.
    // ------------------------------------------------------------------
    const std::uint64_t pf = hierarchy_.prefetch_fills();
    if (pf != seen_prefetch_fills_) {
        note(Event::kPrefetchFill,
             static_cast<double>(pf - seen_prefetch_fills_));
        seen_prefetch_fills_ = pf;
    }
    const std::uint64_t pfm = hierarchy_.prefetch_memory_fills();
    if (pfm != seen_prefetch_mem_fills_) {
        // Memory-sourced prefetches consume bus bandwidth asynchronously.
        const double fills = static_cast<double>(pfm -
                                                 seen_prefetch_mem_fills_);
        mem_bus_time_ = std::max(mem_bus_time_, dispatched) +
                        fills * cfg_.memory_bandwidth_cycles_per_line;
        seen_prefetch_mem_fills_ = pfm;
    }

    note(Event::kInstRetired, 1.0);
    note(Event::kCycles, retired - prev_retire);
    if (op.mode == Mode::kUser)
        stats_.user_instructions += 1.0;
    else
        stats_.kernel_instructions += 1.0;
    ++op_index_;

    if (warmup_reset_at_ != 0 && op_index_ == warmup_reset_at_) {
        reset_counters();
        warmup_reset_at_ = 0;
    }
    if (op_index_ == telemetry_next_op_)
        telemetry_tick(false);
}

// --- Interval sampling --------------------------------------------------

void
Core::set_sample_layout(const sample::IntervalLayout& layout)
{
    sample_layout_ = layout;
    has_sample_layout_ = layout.sampled;
}

const sample::IntervalLayout*
Core::sample_layout() const
{
    return has_sample_layout_ ? &sample_layout_ : nullptr;
}

void
Core::warm_one(const trace::MicroOp& op)
{
    using trace::OpClass;
    // The warm path notes the demand events the timed path would
    // (misses, walks, branches) -- warming covers the whole stream, so
    // the full-stream event totals match exact mode and the rate metrics
    // are near-exact by construction. Timing events (cycles, stalls)
    // still come only from the windows.
    switch (op.cls) {
      case OpClass::kNop: {
        // Line-granular fetch stream: warm the ITLB once per page
        // transition (the distinct-page sequence matches per-op
        // fetching) and the L1I for every line entered.
        const std::uint64_t page = op.fetch_addr >> page_shift_;
        if (page != last_warm_fetch_page_) {
            last_warm_fetch_page_ = page;
            if (itlb_.warm_translate(op.fetch_addr))
                note(Event::kITlbWalk, 1.0);
        }
        const mem::AccessResult fa = hierarchy_.fetch(op.fetch_addr);
        if (fa.level != mem::HitLevel::kL1) {
            note(Event::kL1IMiss, 1.0);
            note_unified_levels(fa.level);
        }
        break;
      }
      case OpClass::kLoad:
      case OpClass::kStore: {
        if (dtlb_.warm_translate(op.addr))
            note(Event::kDTlbWalk, 1.0);
        const mem::AccessResult da = hierarchy_.data_access(op.addr,
                                                            false);
        if (da.level != mem::HitLevel::kL1) {
            note(Event::kL1DMiss, 1.0);
            note_unified_levels(da.level);
        }
        break;
      }
      case OpClass::kBranch: {
        // The predictor/BTB state advances; no cycle accounting.
        const bool mispredicted =
            op.indirect ? branch_.resolve_indirect(op.branch_key,
                                                   op.target_key)
                        : branch_.resolve_conditional(op.branch_key,
                                                      op.taken);
        note(Event::kBrRetired, 1.0);
        if (mispredicted)
            note(Event::kBrMispred, 1.0);
        break;
      }
      default:
        break;
    }
}

void
Core::consume_warm_batch(const trace::MicroOp* ops, std::size_t n,
                         const trace::WarmSummary& represented)
{
    for (std::size_t i = 0; i < n; ++i)
        warm_one(ops[i]);
    warm_user_ops_ += represented.user_ops;
    warm_kernel_ops_ += represented.kernel_ops;
}

void
Core::begin_sample_window()
{
    // Prefetch fills issued while warming must not be charged to the
    // window's first op.
    seen_prefetch_fills_ = hierarchy_.prefetch_fills();
    seen_prefetch_mem_fills_ = hierarchy_.prefetch_memory_fills();
    // The dispatch clock does not advance across the fast-forward gap,
    // so release/completion times left from the previous window would
    // read as *current* pressure here -- store-buffer drains in
    // particular extend past the old window's end and would stall this
    // window's stores against phantom occupants. Start the rings cold
    // and let the discard head rebuild real pressure from this window's
    // own stream.
    std::fill(rob_.begin(), rob_.end(), 0.0);
    std::fill(rs_.begin(), rs_.end(), 0.0);
    std::fill(load_buf_.begin(), load_buf_.end(), 0.0);
    std::fill(store_buf_.begin(), store_buf_.end(), 0.0);
    comp_.fill(0.0);
    port_time_.fill(0.0);
    in_window_ = true;
    in_measurement_ = false;
}

void
Core::begin_window_measurement()
{
    // The discard head has re-pressurized the pipeline (occupancy rings,
    // port cursors); deltas from here see steady-state timing.
    window_base_ = stats_;
    in_measurement_ = true;
}

void
Core::end_sample_window()
{
    if (!in_window_ || !in_measurement_)
        return;
    in_window_ = false;
    in_measurement_ = false;
    windows_.push_back(stats_ - window_base_);
    // The window moved the fetch point through the timed path; the warm
    // page memo no longer reflects the last warm touch.
    last_warm_fetch_page_ = ~std::uint64_t{0};
}

void
Core::sampling_warmup_done()
{
    // Sampled-mode equivalent of the ramp-up counter reset: structures
    // stay warm, measurements start clean.
    reset_counters();
    warm_user_ops_ = 0;
    warm_kernel_ops_ = 0;
    windows_.clear();
}

void
Core::reset_counters()
{
    stats_ = CoreStats{};
    hierarchy_.reset_counters();
    itlb_.reset_counters();
    dtlb_.reset_counters();
    shared_tlb_.reset_counters();
    branch_.reset_counters();
    cycle_baseline_ = last_retire_;
    op_baseline_ = op_index_;
    rob_residence_ = rs_residence_ = 0.0;
    load_residence_ = store_residence_ = 0.0;
    rob_residence_base_ = rs_residence_base_ = 0.0;
    load_residence_base_ = store_residence_base_ = 0.0;
    if (telemetry_ != nullptr)
        telemetry_restart();
}

// --- Observability ------------------------------------------------------

std::vector<std::string>
Core::telemetry_columns()
{
    std::vector<std::string> cols;
    cols.reserve(kEventCount + 7);
    for (std::size_t i = 0; i < kEventCount; ++i)
        cols.emplace_back(event_name(static_cast<Event>(i)));
    cols.emplace_back("user_instr");
    cols.emplace_back("kernel_instr");
    cols.emplace_back("interval_ipc");
    cols.emplace_back("rob_occupancy");
    cols.emplace_back("rs_occupancy");
    cols.emplace_back("load_buf_occupancy");
    cols.emplace_back("store_buf_occupancy");
    return cols;
}

std::vector<bool>
Core::telemetry_additive()
{
    std::vector<bool> mask(kEventCount + 7, true);
    for (std::size_t i = kEventCount + 2; i < mask.size(); ++i)
        mask[i] = false;  // gauges: interval IPC, occupancy means
    return mask;
}

void
Core::set_telemetry(obs::TimeSeriesRecorder* recorder,
                    std::uint64_t interval_ops)
{
    telemetry_ = (recorder != nullptr && interval_ops > 0) ? recorder
                                                           : nullptr;
    telemetry_interval_ = interval_ops;
    rob_residence_ = rs_residence_ = 0.0;
    load_residence_ = store_residence_ = 0.0;
    rob_residence_base_ = rs_residence_base_ = 0.0;
    load_residence_base_ = store_residence_base_ = 0.0;
    if (telemetry_ != nullptr) {
        DCB_EXPECTS(recorder->columns().size() == kEventCount + 7);
        telemetry_restart();
    } else {
        telemetry_next_op_ = ~std::uint64_t{0};
    }
}

void
Core::telemetry_restart()
{
    telemetry_->reset();
    telemetry_prev_.fill(0.0);
    telemetry_last_op_ = op_index_;
    telemetry_next_op_ = op_index_ + telemetry_interval_;
}

void
Core::telemetry_tick(bool final_flush)
{
    const std::uint64_t dops = op_index_ - telemetry_last_op_;
    if (final_flush && dops == 0)
        return;
    std::array<double, kEventCount + 7> row{};
    // Additive columns: fitted deltas, so the recorder's left-to-right
    // running sum lands exactly on every cumulative counter value (and
    // therefore on the final report totals).
    for (std::size_t i = 0; i < kEventCount; ++i) {
        const double cum = stats_.get(static_cast<Event>(i));
        row[i] =
            obs::TimeSeriesRecorder::fit_delta(telemetry_prev_[i], cum);
        telemetry_prev_[i] = cum;
    }
    const double cum_user = stats_.user_instructions;
    row[kEventCount] = obs::TimeSeriesRecorder::fit_delta(
        telemetry_prev_[kEventCount], cum_user);
    telemetry_prev_[kEventCount] = cum_user;
    const double cum_kernel = stats_.kernel_instructions;
    row[kEventCount + 1] = obs::TimeSeriesRecorder::fit_delta(
        telemetry_prev_[kEventCount + 1], cum_kernel);
    telemetry_prev_[kEventCount + 1] = cum_kernel;

    const double dcycles = row[static_cast<std::size_t>(Event::kCycles)];
    const auto occupancy = [dcycles](double residence, double capacity) {
        if (dcycles <= 0.0)
            return 0.0;
        return std::clamp(residence / dcycles, 0.0, capacity);
    };
    row[kEventCount + 2] =
        dcycles > 0.0 ? static_cast<double>(dops) / dcycles : 0.0;
    row[kEventCount + 3] = occupancy(rob_residence_ - rob_residence_base_,
                                     static_cast<double>(rob_.size()));
    row[kEventCount + 4] = occupancy(rs_residence_ - rs_residence_base_,
                                     static_cast<double>(rs_.size()));
    row[kEventCount + 5] =
        occupancy(load_residence_ - load_residence_base_,
                  static_cast<double>(load_buf_.size()));
    row[kEventCount + 6] =
        occupancy(store_residence_ - store_residence_base_,
                  static_cast<double>(store_buf_.size()));
    rob_residence_base_ = rob_residence_;
    rs_residence_base_ = rs_residence_;
    load_residence_base_ = load_residence_;
    store_residence_base_ = store_residence_;

    telemetry_->add_row(telemetry_last_op_ - op_baseline_, dops,
                        row.data());
    telemetry_last_op_ = op_index_;
    telemetry_next_op_ = final_flush ? ~std::uint64_t{0}
                                     : op_index_ + telemetry_interval_;
}

void
Core::finish_observation()
{
    if (telemetry_ != nullptr) {
        telemetry_tick(true);
        std::vector<double> totals(kEventCount + 7, 0.0);
        for (std::size_t i = 0; i < kEventCount; ++i)
            totals[i] = stats_.get(static_cast<Event>(i));
        totals[kEventCount] = stats_.user_instructions;
        totals[kEventCount + 1] = stats_.kernel_instructions;
        const double cycles =
            stats_.get(Event::kCycles);
        const auto occupancy = [cycles](double residence, double cap) {
            if (cycles <= 0.0)
                return 0.0;
            return std::clamp(residence / cycles, 0.0, cap);
        };
        totals[kEventCount + 2] =
            cycles > 0.0
                ? static_cast<double>(op_index_ - op_baseline_) / cycles
                : 0.0;
        totals[kEventCount + 3] =
            occupancy(rob_residence_, static_cast<double>(rob_.size()));
        totals[kEventCount + 4] =
            occupancy(rs_residence_, static_cast<double>(rs_.size()));
        totals[kEventCount + 5] = occupancy(
            load_residence_, static_cast<double>(load_buf_.size()));
        totals[kEventCount + 6] = occupancy(
            store_residence_, static_cast<double>(store_buf_.size()));
        telemetry_->set_totals(totals);
        telemetry_ = nullptr;
        telemetry_next_op_ = ~std::uint64_t{0};
    }
    if (trace_ != nullptr)
        close_segment_span(trace_->now_us());
}

void
Core::set_trace(obs::TraceWriter* trace, std::uint64_t tid)
{
    trace_ = trace;
    trace_tid_ = tid;
}

void
Core::begin_sample_segment(trace::SampleSegment segment)
{
    if (trace_ == nullptr)
        return;
    const double now = trace_->now_us();
    close_segment_span(now);
    cur_segment_ = static_cast<int>(segment);
    segment_start_us_ = now;
}

void
Core::close_segment_span(double now_us)
{
    if (cur_segment_ < 0)
        return;
    static constexpr const char* kSegmentNames[] = {"warmup", "warm",
                                                    "window"};
    trace_->complete(kSegmentNames[cur_segment_], "sampling",
                     obs::TraceWriter::kHostPid, trace_tid_,
                     segment_start_us_, now_us - segment_start_us_);
    cur_segment_ = -1;
}

double
Core::ipc() const
{
    const double cycles = last_retire_ - cycle_baseline_;
    const double ops = static_cast<double>(op_index_ - op_baseline_);
    return cycles > 0.0 ? ops / cycles : 0.0;
}

double
Core::branch_misprediction_ratio() const
{
    return branch_.misprediction_ratio();
}

}  // namespace dcb::cpu

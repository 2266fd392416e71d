#include "mapreduce/shard_engine.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <exception>
#include <limits>
#include <memory>
#include <thread>

#include "util/assert.h"
#include "util/thread_pool.h"

namespace dcb::mapreduce {

namespace {

/** (time, seq): the deterministic local order. seq is unique within a
    shard, so the order is total. */
struct EventBefore
{
    bool operator()(const ShardEvent& a, const ShardEvent& b) const
    {
        return a.time != b.time ? a.time < b.time : a.seq < b.seq;
    }
};

/** Min-heap order under EventBefore, for the lane heaps. */
struct EventAfter
{
    bool operator()(const ShardEvent& a, const ShardEvent& b) const
    {
        return EventBefore{}(b, a);
    }
};

ShardEvent
make_event(double time, std::uint64_t seq, std::uint32_t kind,
           std::uint32_t a, std::uint32_t b, std::uint32_t c,
           std::uint32_t d, double x)
{
    ShardEvent ev;
    ev.time = time;
    ev.seq = seq;
    ev.kind = kind;
    ev.a = a;
    ev.b = b;
    ev.c = c;
    ev.d = d;
    ev.x = x;
    return ev;
}

double
seconds_since(std::chrono::steady_clock::time_point start)
{
    const std::chrono::duration<double> d =
        std::chrono::steady_clock::now() - start;
    return d.count();
}

/** Short spin, then yield: barriers are sub-microsecond when cores are
    available and still make progress on an oversubscribed host. */
template <typename Pred>
void
spin_until(const Pred& ready)
{
    for (int i = 0; i < 2048; ++i)
        if (ready())
            return;
    while (!ready())
        std::this_thread::yield();
}

}  // namespace

/**
 * One shard: queue, outbox, RNG stream and counters, all private.
 *
 * The queue is one unsorted vector plus its earliest time. At epoch
 * start the due events (time < epoch end) move to the front and are
 * sorted by (time, seq) into the epoch's run; while the run drains, a
 * push for a later epoch overwrites a run slot already consumed, and
 * appends only when none is free.
 *
 * Cache-line aligned, like EngineLane: neighbouring shards drain on
 * different workers and the drain writes its fields on every event, so
 * a shared line would bounce between cores.
 */
struct alignas(64) EngineShard
{
    std::uint32_t index = 0;
    std::vector<ShardEvent> pending;
    double t_min = std::numeric_limits<double>::infinity();
    /** Drain state, valid while a lane drains the shard: the run is
        pending[0, run_end), run_next is its next unconsumed slot,
        pending[0, reused) hold later events written over consumed
        run slots, and next_min is the earliest time of the events
        that stay pending after the epoch. */
    std::size_t run_end = 0;
    std::size_t run_next = 0;
    std::size_t reused = 0;
    double next_min = std::numeric_limits<double>::infinity();
    std::vector<ShardMessage> outbox;
    util::Rng rng{0};
    std::uint64_t next_seq = 0;
    std::uint64_t msg_seq = 0;
    ShardStats stats;
    /** Epoch-observer scratch: events_processed at epoch start and the
        simulated time of the last event run this epoch (-1 = idle). */
    std::uint64_t epoch_mark = 0;
    double last_event_s = -1.0;

    /** Queue an event outside a drain (seeding, coordinator). */
    void append(const ShardEvent& ev)
    {
        pending.push_back(ev);
        t_min = std::min(t_min, ev.time);
    }
};

/**
 * One worker lane's heap of same-epoch pushes (time < epoch end), which
 * the drain merges with the sorted run. Only the shard being drained
 * uses it and the drain empties it, so one heap per lane suffices.
 */
struct alignas(64) EngineLane
{
    std::vector<ShardEvent> heap;  ///< binary heap under EventAfter
    /** This epoch's claims on the lane's home shards (lane, lane +
        lanes, ...), by the lane itself or by a thief. */
    std::atomic<std::uint32_t> claimed{0};
};

struct ShardedEngine::Impl
{
    std::vector<EngineShard> shards;
    bool ran = false;
};

void
ShardApi::push(double time, std::uint32_t kind, std::uint32_t a,
               std::uint32_t b, std::uint32_t c, std::uint32_t d,
               double x)
{
    auto* shard = static_cast<EngineShard*>(shard_);
    DCB_EXPECTS_MSG(time >= now_,
                    "shard event scheduled into the past");
    const ShardEvent ev =
        make_event(time, shard->next_seq++, kind, a, b, c, d, x);
    if (time < epoch_end_) {
        std::vector<ShardEvent>& heap =
            static_cast<EngineLane*>(lane_)->heap;
        heap.push_back(ev);
        std::push_heap(heap.begin(), heap.end(), EventAfter{});
        return;
    }
    shard->next_min = std::min(shard->next_min, time);
    if (shard->reused < shard->run_next)
        shard->pending[shard->reused++] = ev;
    else
        shard->pending.push_back(ev);
}

void
ShardApi::send(double time, std::uint32_t kind, std::uint32_t a,
               std::uint32_t b, std::uint32_t c, std::uint32_t d,
               double x, double y)
{
    auto* shard = static_cast<EngineShard*>(shard_);
    DCB_EXPECTS_MSG(shard->outbox.empty() ||
                        time >= shard->outbox.back().time,
                    "shard messages sent out of time order");
    ShardMessage msg;
    msg.time = time;
    msg.from_shard = shard->index;
    msg.seq = shard->msg_seq++;
    msg.kind = kind;
    msg.a = a;
    msg.b = b;
    msg.c = c;
    msg.d = d;
    msg.x = x;
    msg.y = y;
    shard->outbox.push_back(msg);
}

util::Rng&
ShardApi::rng()
{
    return static_cast<EngineShard*>(shard_)->rng;
}

void
Coordinator::push(std::uint32_t shard, double time, std::uint32_t kind,
                  std::uint32_t a, std::uint32_t b, std::uint32_t c,
                  std::uint32_t d, double x)
{
    auto* impl = static_cast<ShardedEngine::Impl*>(engine_);
    DCB_EXPECTS(shard < impl->shards.size());
    DCB_EXPECTS_MSG(time >= barrier_,
                    "coordinator event scheduled before the barrier");
    EngineShard& sh = impl->shards[shard];
    sh.append(make_event(time, sh.next_seq++, kind, a, b, c, d, x));
}

ShardedEngine::ShardedEngine(std::uint32_t shards, double lookahead_s,
                             std::uint64_t rng_seed)
    : impl_(new Impl), lookahead_(lookahead_s)
{
    DCB_EXPECTS(shards >= 1);
    DCB_EXPECTS_MSG(lookahead_s > 0.0,
                    "conservative lookahead must be positive");
    impl_->shards.resize(shards);
    for (std::uint32_t s = 0; s < shards; ++s) {
        impl_->shards[s].index = s;
        impl_->shards[s].rng = util::Rng::stream(rng_seed, s);
    }
}

ShardedEngine::~ShardedEngine()
{
    delete impl_;
}

std::uint32_t
ShardedEngine::shard_count() const
{
    return static_cast<std::uint32_t>(impl_->shards.size());
}

void
ShardedEngine::seed_event(std::uint32_t shard, double time,
                          std::uint32_t kind, std::uint32_t a,
                          std::uint32_t b, std::uint32_t c,
                          std::uint32_t d, double x)
{
    DCB_EXPECTS(shard < impl_->shards.size());
    DCB_EXPECTS(!impl_->ran);
    EngineShard& sh = impl_->shards[shard];
    sh.append(make_event(time, sh.next_seq++, kind, a, b, c, d, x));
}

EngineResult
ShardedEngine::run(const EventFn& on_event, const BarrierFn& on_barrier,
                   unsigned threads)
{
    DCB_EXPECTS_MSG(!impl_->ran, "ShardedEngine::run is one-shot");
    impl_->ran = true;
    const auto shard_total =
        static_cast<std::uint32_t>(impl_->shards.size());
    const unsigned workers =
        std::min<unsigned>(std::max(threads, 1u), shard_total);

    EngineResult result;
    result.shards.resize(shard_total);
    result.lanes = workers;

    // Drain one shard through the epoch; private state only, so any
    // worker may claim any shard in any order with the same outcome.
    // `worker` is the claiming lane (0 = coordinator): it picks the
    // lane heap and feeds the host-side steal tally.
    std::vector<EngineLane> lanes(workers);
    const auto process_shard = [&](unsigned worker, std::uint32_t s,
                                   double epoch_end) {
        EngineShard& sh = impl_->shards[s];
        if (sh.t_min >= epoch_end)
            return;
        if (workers > 1 && worker != s % workers)
            ++sh.stats.steals;
        const auto t0 = std::chrono::steady_clock::now();
        // One pass splits off the due events and finds the earliest
        // time of the rest (std::partition tests each event once).
        std::vector<ShardEvent>& pending = sh.pending;
        double rest_min = std::numeric_limits<double>::infinity();
        const auto due_end = std::partition(
            pending.begin(), pending.end(), [&](const ShardEvent& ev) {
                if (ev.time < epoch_end)
                    return true;
                rest_min = std::min(rest_min, ev.time);
                return false;
            });
        sh.next_min = rest_min;
        std::sort(pending.begin(), due_end, EventBefore{});
        sh.run_end = static_cast<std::size_t>(due_end - pending.begin());
        sh.run_next = 0;
        sh.reused = 0;

        // Merge the run with the lane heap of same-epoch pushes; both
        // are in (time, seq) order, so this is the order one heap over
        // every due event would pop.
        std::vector<ShardEvent>& heap = lanes[worker].heap;
        ShardApi api(&sh, &lanes[worker]);
        api.epoch_end_ = epoch_end;
        for (;;) {
            ShardEvent ev;
            if (sh.run_next < sh.run_end &&
                (heap.empty() ||
                 EventBefore{}(pending[sh.run_next], heap.front()))) {
                ev = pending[sh.run_next++];
            } else if (!heap.empty()) {
                std::pop_heap(heap.begin(), heap.end(), EventAfter{});
                ev = heap.back();
                heap.pop_back();
            } else {
                break;
            }
            api.now_ = ev.time;
            on_event(s, ev, api);
            ++sh.stats.events_processed;
        }
        // Drop the consumed slots that were not reused. The order of
        // `pending` does not matter, so the last events fill the gap.
        const std::size_t gap = sh.run_end - sh.reused;
        const std::size_t moved =
            std::min(gap, pending.size() - sh.run_end);
        std::copy(pending.end() - static_cast<std::ptrdiff_t>(moved),
                  pending.end(),
                  pending.begin() + static_cast<std::ptrdiff_t>(sh.reused));
        pending.resize(pending.size() - gap);
        sh.run_end = sh.run_next = sh.reused = 0;
        sh.t_min = sh.next_min;
        sh.last_event_s = api.now_;
        sh.stats.busy_seconds += seconds_since(t0);
    };

    // Lane w drains its home shards first, then steals from the other
    // lanes' home lists in turn. Keeping a shard on one lane from epoch
    // to epoch keeps its queue and attempts in that core's cache.
    const auto claim_and_drain = [&](unsigned w, double epoch_end) {
        for (unsigned k = 0; k < workers; ++k) {
            const unsigned v = (w + k) % workers;
            for (std::uint32_t s;
                 (s = v + workers * lanes[v].claimed.fetch_add(
                                        1, std::memory_order_relaxed)) <
                 shard_total;)
                process_shard(w, s, epoch_end);
        }
    };

    // Generation barrier shared with the parked pool workers. The
    // coordinator resets the claims, writes epoch_end, then bumps
    // `generation` (release); workers observe the bump (acquire), claim
    // shards and check in on `workers_done`.
    std::atomic<std::uint64_t> generation{0};
    std::atomic<std::uint32_t> workers_done{0};
    std::atomic<bool> stopping{false};
    std::atomic<bool> worker_failed{false};
    std::exception_ptr worker_error;
    double epoch_end_shared = 0.0;

    const unsigned extra_workers = workers - 1;
    std::unique_ptr<util::ThreadPool> pool;
    if (extra_workers > 0) {
        pool = std::make_unique<util::ThreadPool>(extra_workers);
        for (unsigned w = 0; w < extra_workers; ++w) {
            pool->submit([&, w] {
                std::uint64_t seen = 0;
                for (;;) {
                    spin_until([&] {
                        return stopping.load(std::memory_order_acquire) ||
                               generation.load(
                                   std::memory_order_acquire) != seen;
                    });
                    if (stopping.load(std::memory_order_acquire))
                        return;
                    seen = generation.load(std::memory_order_acquire);
                    const double end = epoch_end_shared;
                    try {
                        claim_and_drain(w + 1, end);
                    } catch (...) {
                        bool expected = false;
                        if (worker_failed.compare_exchange_strong(
                                expected, true))
                            worker_error = std::current_exception();
                        // Leave nothing for the other lanes to claim.
                        for (EngineLane& lane : lanes)
                            lane.claimed.store(shard_total,
                                               std::memory_order_relaxed);
                    }
                    workers_done.fetch_add(1,
                                           std::memory_order_acq_rel);
                }
            });
        }
    }

    const auto run_epoch = [&](double epoch_end) {
        if (extra_workers == 0) {
            for (std::uint32_t s = 0; s < shard_total; ++s)
                process_shard(0, s, epoch_end);
            return;
        }
        epoch_end_shared = epoch_end;
        workers_done.store(0, std::memory_order_relaxed);
        for (EngineLane& lane : lanes)
            lane.claimed.store(0, std::memory_order_relaxed);
        generation.fetch_add(1, std::memory_order_release);
        // The coordinating thread is a worker too.
        claim_and_drain(0, epoch_end);
        spin_until([&] {
            return workers_done.load(std::memory_order_acquire) ==
                   extra_workers;
        });
    };
    const auto stop_workers = [&] {
        stopping.store(true, std::memory_order_release);
        if (pool != nullptr)
            pool->wait_idle();
    };

    // Each outbox is in (time, seq) order (ShardApi::send checks it), so
    // merging the outboxes through a heap of their heads yields the inbox
    // in (time, from_shard, seq) order without sorting it.
    std::vector<ShardMessage> inbox;
    struct Head
    {
        double time;
        std::uint32_t shard;
        std::uint32_t next;
    };
    const auto later = [](const Head& a, const Head& b) {
        return a.time != b.time ? a.time > b.time : a.shard > b.shard;
    };
    std::vector<Head> heads;
    const auto merge_outboxes = [&] {
        inbox.clear();
        heads.clear();
        for (EngineShard& sh : impl_->shards) {
            sh.stats.messages_sent += sh.outbox.size();
            if (!sh.outbox.empty())
                heads.push_back({sh.outbox.front().time, sh.index, 0});
        }
        // heads[0] is the earliest head. Take its message, then sift
        // the shard's next head (or the last one) down from the root.
        std::make_heap(heads.begin(), heads.end(), later);
        while (heads.size() > 1) {
            Head& top = heads[0];
            const std::vector<ShardMessage>& out =
                impl_->shards[top.shard].outbox;
            inbox.push_back(out[top.next]);
            if (++top.next < out.size()) {
                top.time = out[top.next].time;
            } else {
                top = heads.back();
                heads.pop_back();
            }
            for (std::size_t i = 0, c; (c = 2 * i + 1) < heads.size();
                 i = c) {
                if (c + 1 < heads.size() && later(heads[c], heads[c + 1]))
                    ++c;
                if (!later(heads[i], heads[c]))
                    break;
                std::swap(heads[i], heads[c]);
            }
        }
        if (!heads.empty()) {
            const std::vector<ShardMessage>& out =
                impl_->shards[heads[0].shard].outbox;
            inbox.insert(inbox.end(), out.begin() + heads[0].next,
                         out.end());
        }
        for (EngineShard& sh : impl_->shards)
            sh.outbox.clear();
    };

    Coordinator coordinator(impl_);
    bool keep_going = true;
    try {
        // Initial scheduling pass before any event exists.
        const auto first_pass = std::chrono::steady_clock::now();
        coordinator.barrier_ = 0.0;
        keep_going = on_barrier(0.0, inbox, coordinator);
        result.coordinator_seconds += seconds_since(first_pass);
        double prev_barrier = 0.0;
        std::vector<EpochShardView> views;
        while (keep_going) {
            double t_min = std::numeric_limits<double>::infinity();
            for (const EngineShard& sh : impl_->shards)
                t_min = std::min(t_min, sh.t_min);
            if (!std::isfinite(t_min))
                break;  // drained, and the coordinator had its say
            const double epoch_end =
                (std::floor(t_min / lookahead_) + 1.0) * lookahead_;
            if (epoch_observer_ != nullptr) {
                for (EngineShard& sh : impl_->shards) {
                    sh.epoch_mark = sh.stats.events_processed;
                    sh.last_event_s = -1.0;
                }
            }
            const auto parallel_start = std::chrono::steady_clock::now();
            run_epoch(epoch_end);
            const auto coordinator_start = std::chrono::steady_clock::now();
            result.parallel_seconds +=
                std::chrono::duration<double>(coordinator_start -
                                              parallel_start)
                    .count();
            if (worker_failed.load(std::memory_order_acquire))
                std::rethrow_exception(worker_error);
            ++result.epochs;
            result.end_time_s = epoch_end;
            if (epoch_observer_ != nullptr) {
                views.clear();
                for (const EngineShard& sh : impl_->shards) {
                    EpochShardView v;
                    v.events =
                        sh.stats.events_processed - sh.epoch_mark;
                    v.last_event_s = sh.last_event_s;
                    views.push_back(v);
                }
                epoch_observer_(result.epochs - 1, prev_barrier,
                                epoch_end, views);
            }
            prev_barrier = epoch_end;

            merge_outboxes();

            std::uint64_t events = 0;
            for (const EngineShard& sh : impl_->shards)
                events += sh.stats.events_processed;
            result.budget_exceeded = events > event_budget_;
            coordinator.barrier_ = epoch_end;
            keep_going = !result.budget_exceeded &&
                         on_barrier(epoch_end, inbox, coordinator);
            result.coordinator_seconds += seconds_since(coordinator_start);
        }
    } catch (...) {
        stop_workers();
        throw;
    }
    stop_workers();

    double busy = 0.0;
    for (std::uint32_t s = 0; s < shard_total; ++s) {
        result.shards[s] = impl_->shards[s].stats;
        result.events += result.shards[s].events_processed;
        busy += result.shards[s].busy_seconds;
    }
    result.idle_seconds =
        std::max(0.0, workers * result.parallel_seconds - busy);
    return result;
}

}  // namespace dcb::mapreduce

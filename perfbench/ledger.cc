#include "ledger.h"

#include <vector>

#include "analytics/word_count.h"
#include "core/harness.h"
#include "datagen/text.h"
#include "os/syscalls.h"
#include "perfbench.h"
#include "trace/exec_ctx.h"
#include "workloads/profiles.h"

namespace perfbench {

namespace {

using namespace dcb;

// The map side of the suite's WordCount: Zipfian documents counted in an
// open-addressing table, on the data-analysis code footprint.
constexpr std::uint32_t kVocab = 30'000;
constexpr std::uint32_t kMeanWords = 120;
constexpr std::size_t kBuckets = 1 << 16;

/** Keeps replay results observable so no timed loop is optimised away. */
volatile double g_keep = 0.0;

/** Run the driver into `sink` until `budget` ops; returns documents. */
std::uint64_t
drive(trace::OpSink& sink, std::uint64_t seed, std::uint64_t budget)
{
    trace::ExecCtx ctx(
        sink,
        workloads::make_code_layout(workloads::FootprintClass::kJvmFramework,
                                    workloads::kUserCodeBase, seed),
        os::kernel_code_layout(workloads::kKernelCodeBase, seed ^ 0x5A5A),
        workloads::data_analysis_exec_profile(), seed);
    mem::AddressSpace space;
    datagen::TextGenerator text(kVocab, 1.0, seed);
    analytics::WordCounter counter(ctx, space, kBuckets);
    std::uint64_t docs = 0;
    while (ctx.counts().total() < budget) {
        counter.add_document(text.next_document(kMeanWords).words);
        ++docs;
    }
    return docs;
}

/** The driver as a harness workload, for the direct run. */
class LedgerWorkload final : public workloads::Workload
{
  public:
    LedgerWorkload() { info_.name = "ledger WordCount"; }
    const workloads::WorkloadInfo& info() const override { return info_; }
    void run(cpu::Core& core, const workloads::RunConfig& config) override
    {
        drive(core, config.seed, config.op_budget);
    }

  private:
    workloads::WorkloadInfo info_;
};

class NullSink final : public trace::OpSink
{
  public:
    void consume(const trace::MicroOp&) override {}
    void consume_batch(const trace::MicroOp*, std::size_t) override {}
};

/** Records every delivery; answers sample_layout() with `layout`. */
class RecordingSink final : public trace::OpSink
{
  public:
    explicit RecordingSink(const sample::IntervalLayout* layout)
        : layout_(layout)
    {
    }
    void consume(const trace::MicroOp& op) override { consume_batch(&op, 1); }
    void consume_batch(const trace::MicroOp* ops, std::size_t n) override
    {
        this->ops.insert(this->ops.end(), ops, ops + n);
        batches.push_back(n);
    }
    void consume_warm_batch(const trace::MicroOp* ops, std::size_t n,
                            const trace::WarmSummary& represented) override
    {
        warm.insert(warm.end(), ops, ops + n);
        warm_batches.push_back({n, represented});
    }
    const sample::IntervalLayout* sample_layout() const override
    {
        return layout_;
    }

    std::vector<trace::MicroOp> ops;
    std::vector<std::size_t> batches;
    std::vector<trace::MicroOp> warm;
    struct WarmBatch
    {
        std::size_t n;
        trace::WarmSummary represented;
    };
    std::vector<WarmBatch> warm_batches;

  private:
    const sample::IntervalLayout* layout_;
};

/** Seconds of one call of `fn`, recorded as a span named `name`. */
template <typename Fn>
double
timed(obs::TraceWriter* trace, const char* name, const char* layer, Fn&& fn)
{
    const double start_us = trace != nullptr ? trace->now_us() : 0.0;
    const auto start = Clock::now();
    fn();
    const double s = seconds_since(start);
    span(trace, name, layer, start_us);
    return s;
}

}  // namespace

LedgerResult
measure_ledger(std::uint64_t seed, std::uint64_t op_budget, int reps,
               obs::TraceWriter* trace)
{
    core::HarnessConfig config = core::bench_config();
    config.run.op_budget = op_budget;
    config.run.warmup_ops = 0;
    config.run.seed = seed;
    const double ledger_start_us = trace != nullptr ? trace->now_us() : 0.0;

    RecordingSink exact(nullptr);
    const std::uint64_t docs = drive(exact, seed, op_budget);
    sample::SamplePlan plan;
    plan.ratio = 0.15;
    plan.full_warming = true;
    const sample::IntervalLayout layout =
        sample::resolve_layout(plan, op_budget, op_budget / 4);
    RecordingSink sampled(&layout);
    drive(sampled, seed, op_budget);

    LedgerResult out;
    out.ops = exact.ops.size();
    for (const RecordingSink::WarmBatch& b : sampled.warm_batches)
        out.warm_ops += b.represented.total();

    LedgerWorkload workload;
    // One call of each part per repetition, interleaved, so host drift
    // over the probe hits the direct run and its parts alike.
    std::vector<double> direct_s, datagen_s, driver_s, cpu_s, warm_s, mem_s;
    for (int r = 0; r < reps; ++r) {
        direct_s.push_back(timed(trace, "ledger.direct", "core", [&] {
            g_keep = g_keep + core::run_workload(workload, config).cycles;
        }));
        datagen_s.push_back(timed(trace, "ledger.datagen", "datagen", [&] {
            datagen::TextGenerator text(kVocab, 1.0, seed);
            std::size_t words = 0;
            for (std::uint64_t d = 0; d < docs; ++d)
                words += text.next_document(kMeanWords).words.size();
            g_keep = g_keep + static_cast<double>(words);
        }));
        driver_s.push_back(timed(trace, "ledger.emit", "trace", [&] {
            NullSink null;
            drive(null, seed, op_budget);
        }));
        cpu_s.push_back(timed(trace, "ledger.cpu", "cpu", [&] {
            cpu::Core core(config.core_config, config.memory_config);
            std::size_t at = 0;
            for (std::size_t n : exact.batches) {
                core.consume_batch(exact.ops.data() + at, n);
                at += n;
            }
            g_keep = g_keep + core.cycles();
        }));
        warm_s.push_back(timed(trace, "ledger.cpu_warm", "cpu", [&] {
            cpu::Core core(config.core_config, config.memory_config);
            core.set_sample_layout(layout);
            std::size_t at = 0;
            for (const RecordingSink::WarmBatch& b : sampled.warm_batches) {
                core.consume_warm_batch(sampled.warm.data() + at, b.n,
                                        b.represented);
                at += b.n;
            }
            g_keep =
                g_keep + static_cast<double>(core.caches().l1d_misses());
        }));
        mem_s.push_back(timed(trace, "ledger.mem", "mem", [&] {
            mem::CacheHierarchy caches(config.memory_config);
            std::uint64_t latency = 0;
            std::uint64_t accesses = 0;
            for (const trace::MicroOp& op : exact.ops) {
                latency += caches.fetch(op.fetch_addr).latency;
                if (op.cls == trace::OpClass::kLoad ||
                    op.cls == trace::OpClass::kStore) {
                    latency +=
                        caches
                            .data_access(op.addr,
                                         op.cls == trace::OpClass::kStore)
                            .latency;
                    ++accesses;
                }
            }
            out.mem_accesses = exact.ops.size() + accesses;
            g_keep = g_keep + static_cast<double>(latency);
        }));
    }
    out.direct_s = median(direct_s);
    out.datagen_s = median(datagen_s);
    out.emit_s = median(driver_s) - out.datagen_s;
    out.cpu_s = median(cpu_s);
    out.warm_s = median(warm_s);
    out.mem_s = median(mem_s);
    span(trace, "ledger", "ledger", ledger_start_us);
    return out;
}

}  // namespace perfbench

/**
 * @file
 * The kernels of the eleven representative data-analysis workloads of
 * Table I, each a real algorithm (src/analytics) over synthetic data
 * (src/datagen), executed inside the Hadoop-style structure the paper
 * measures: the three basic operations run as full MapReduce jobs
 * through the engine (spill/sort/shuffle/replicated output), and the
 * Mahout-driver workloads (classification, clustering, recommendation,
 * segmentation, graph, warehouse) run their iterations against
 * HDFS-style chunked I/O exactly as the Mahout drivers do.
 */

#include <algorithm>

#include "analytics/external_sort.h"
#include "analytics/fuzzy_kmeans.h"
#include "analytics/grep.h"
#include "analytics/hive.h"
#include "analytics/hmm.h"
#include "analytics/ibcf.h"
#include "analytics/kmeans.h"
#include "analytics/naive_bayes.h"
#include "analytics/pagerank.h"
#include "analytics/svm.h"
#include "analytics/word_count.h"
#include "datagen/graph.h"
#include "datagen/ratings.h"
#include "datagen/tables.h"
#include "datagen/text.h"
#include "datagen/vectors.h"
#include "mapreduce/engine.h"
#include "mapreduce/task_io.h"
#include "workloads/kernels.h"

namespace dcb::workloads::kernels {

namespace {

/**
 * Keeps a workload's HDFS input traffic pinned to the paper's measured
 * compute intensity: Table I gives retired instructions and input bytes,
 * so instructions-per-byte is known per workload; sync() reads however
 * many input bytes the ops retired since the last call correspond to.
 */
class PaperRatioIo
{
  public:
    PaperRatioIo(mapreduce::TaskIo& io, Env& env, const WorkloadInfo& info)
        : io_(io), env_(env),
          instr_per_byte_(info.paper_instructions_g * 1e9 /
                          (info.paper_input_gb * 1024.0 * 1024.0 * 1024.0))
    {
    }

    /** Charge input reads for the ops retired since the last sync. */
    void
    sync()
    {
        const std::uint64_t ops = env_.ops();
        const auto bytes = static_cast<std::uint64_t>(
            static_cast<double>(ops - last_ops_) / instr_per_byte_);
        io_.read_input(bytes);
        last_ops_ = ops;
    }

  private:
    mapreduce::TaskIo& io_;
    Env& env_;
    double instr_per_byte_;
    std::uint64_t last_ops_ = 0;
};

}  // namespace

// ====================================================================
// 1. Sort -- full MapReduce job, identity map/reduce, data-plane bound.
// ====================================================================
void
sort(Env& env, const RunConfig& config, const WorkloadInfo&)
{
    mapreduce::EngineConfig ecfg;
    ecfg.num_map_tasks = 2;
    ecfg.num_reduce_tasks = 2;
    ecfg.spill_records = 2 * 1024;
    ecfg.output_replicas = 3;  // dfs.replication default
    mapreduce::SimpleMapReduce engine(env.ctx, env.space, *env.os, ecfg);

    const std::size_t batch = 4 * 1024;
    std::vector<mapreduce::Record> input(batch);
    while (env.ops() < config.op_budget) {
        for (auto& r : input) {
            r.key = env.rng.next_u64();
            r.value = env.rng.next_u64();
        }
        engine.run(
            input,
            [](const mapreduce::Record& r, mapreduce::Emitter& out) {
                out.emit(r.key, r.value);
            },
            [](std::uint64_t key,
               std::span<const std::uint64_t> values,
               mapreduce::Emitter& out) {
                for (std::uint64_t v : values)
                    out.emit(key, v);
            },
            nullptr);
    }
}

// ====================================================================
// 2. WordCount -- MapReduce with a combiner-style spill path.
// ====================================================================
void
word_count(Env& env, const RunConfig& config, const WorkloadInfo& info)
{
    datagen::TextGenerator text(30'000, 1.0, env.rng.next_u64());
    analytics::WordCounter counter(env.ctx, env.space, 1 << 16);
    mapreduce::TaskIo io(*env.os, env.space);
    PaperRatioIo ratio_io(io, env, info);
    mapreduce::EngineConfig ecfg;
    ecfg.num_map_tasks = 2;
    ecfg.num_reduce_tasks = 2;
    ecfg.spill_records = 8192;
    mapreduce::SimpleMapReduce engine(env.ctx, env.space, *env.os, ecfg);

    std::uint64_t batch_no = 0;
    while (env.ops() < config.op_budget) {
        // Map side: tokenize + in-mapper combine (the Hadoop
        // WordCount combiner) over a batch of documents.
        std::vector<mapreduce::Record> combined;
        for (int d = 0; d < 48; ++d) {
            const datagen::Document doc = text.next_document(120);
            counter.add_document(doc.words);
        }
        ratio_io.sync();
        // The combined output is tiny; flush it through the reduce
        // job at combiner-flush cadence, not per batch.
        if (++batch_no % 8 != 0)
            continue;
        // Emit a sample of combined (word, count) pairs downstream.
        combined.reserve(2048);
        for (std::uint32_t w = 0; w < 2048; ++w) {
            const std::uint64_t c = counter.count_of(w);
            if (c > 0)
                combined.push_back({w, c});
        }
        engine.run(
            combined,
            [](const mapreduce::Record& r, mapreduce::Emitter& out) {
                out.emit(r.key, r.value);
            },
            [&env](std::uint64_t key,
                   std::span<const std::uint64_t> values,
                   mapreduce::Emitter& out) {
                std::uint64_t sum = 0;
                for (std::uint64_t v : values) {
                    sum += v;
                    env.ctx.alu(1);
                }
                out.emit(key, sum);
            },
            nullptr);
    }
    io.flush();
}

// ====================================================================
// 3. Grep -- streaming scan, near-empty intermediate data.
// ====================================================================
void
grep(Env& env, const RunConfig& config, const WorkloadInfo& info)
{
    datagen::TextGenerator text(200'000, 1.0, env.rng.next_u64());
    analytics::Grep grep(env.ctx, env.space, "dataxcenter",
                         1 << 20);
    mapreduce::TaskIo io(*env.os, env.space);
    PaperRatioIo ratio_io(io, env, info);

    std::string line;
    std::uint64_t lines = 0;
    while (env.ops() < config.op_budget) {
        // Build a line of ~40 words; occasionally implant the pattern.
        line.clear();
        for (int w = 0; w < 40; ++w) {
            line += datagen::TextGenerator::word_string(text.next_word());
            line += ' ';
        }
        if (env.rng.next_bool(0.02))
            line.insert(line.size() / 2, "dataxcenter");
        grep.scan_line(line);
        if ((++lines & 31) == 0)
            ratio_io.sync();
    }
    io.flush();
}

// ====================================================================
// 4. Naive Bayes -- Mahout trainer + classifier.
// ====================================================================
void
naive_bayes(Env& env, const RunConfig& config, const WorkloadInfo& info)
{
    constexpr std::uint32_t kVocab = 16'000;
    constexpr std::uint32_t kClasses = 4;
    datagen::LabelledTextGenerator text(kVocab, kClasses, 1.0,
                                        env.rng.next_u64());
    analytics::NaiveBayes bayes(env.ctx, env.space, kVocab, kClasses);
    mapreduce::TaskIo io(*env.os, env.space);
    PaperRatioIo ratio_io(io, env, info);

    // Training pass over roughly half the budget.
    std::uint64_t docs = 0;
    while (env.ops() < config.op_budget / 4) {
        bayes.train(text.next_document(140));
        if ((++docs & 31) == 0)
            ratio_io.sync();
    }
    bayes.finalize();
    // Classification pass consumes the rest.
    while (env.ops() < config.op_budget) {
        bayes.classify(text.next_document(140));
        if ((++docs & 31) == 0)
            ratio_io.sync();
    }
    io.flush();
}

// ====================================================================
// 5. SVM -- Pegasos trainer.
// ====================================================================
void
svm(Env& env, const RunConfig& config, const WorkloadInfo& info)
{
    constexpr std::uint32_t kVocab = 50'000;
    datagen::LabelledTextGenerator text(kVocab, 2, 1.0,
                                        env.rng.next_u64());
    analytics::LinearSvm svm(env.ctx, env.space, kVocab, 1e-4);
    mapreduce::TaskIo io(*env.os, env.space);
    PaperRatioIo ratio_io(io, env, info);

    std::uint64_t docs = 0;
    while (env.ops() < config.op_budget) {
        svm.train_step(text.next_document(120));
        if ((++docs & 31) == 0)
            ratio_io.sync();
    }
    io.flush();
}

// ====================================================================
// 6. K-means -- Mahout driver: every Lloyd iteration re-reads input.
// ====================================================================
void
kmeans(Env& env, const RunConfig& config, const WorkloadInfo& info)
{
    constexpr std::uint32_t kDims = 16;
    constexpr std::uint32_t kCenters = 16;
    constexpr std::size_t kPoints = 24'000;
    datagen::VectorGenerator gen(kDims, kCenters, 1.5,
                                 env.rng.next_u64());
    std::vector<double> points;
    points.reserve(kPoints * kDims);
    std::vector<double> p;
    for (std::size_t i = 0; i < kPoints; ++i) {
        gen.next_point(p);
        points.insert(points.end(), p.begin(), p.end());
    }
    analytics::Kmeans kmeans(env.ctx, env.space, points, kPoints,
                             kDims, kCenters);
    mapreduce::TaskIo io(*env.os, env.space);
    PaperRatioIo ratio_io(io, env, info);
    constexpr std::size_t kBlock = 1024;
    while (env.ops() < config.op_budget) {
        // One Lloyd iteration = one Mahout MR job over the input,
        // processed in split-sized blocks so op budgets are honoured.
        kmeans.begin_pass();
        for (std::size_t p = 0; p < kPoints; p += kBlock) {
            ratio_io.sync();
            kmeans.assign_block(p, kBlock);
            if (env.ops() >= config.op_budget)
                break;
        }
        kmeans.finish_pass();
        io.write_output(kCenters * kDims * sizeof(double));
    }
    io.flush();
}

// ====================================================================
// 7. Fuzzy K-means -- soft memberships, ~5x the FP work of K-means.
// ====================================================================
void
fuzzy_kmeans(Env& env, const RunConfig& config, const WorkloadInfo& info)
{
    constexpr std::uint32_t kDims = 16;
    constexpr std::uint32_t kCenters = 12;
    constexpr std::size_t kPoints = 8'000;
    datagen::VectorGenerator gen(kDims, kCenters, 1.5,
                                 env.rng.next_u64());
    std::vector<double> points;
    points.reserve(kPoints * kDims);
    std::vector<double> p;
    for (std::size_t i = 0; i < kPoints; ++i) {
        gen.next_point(p);
        points.insert(points.end(), p.begin(), p.end());
    }
    analytics::FuzzyKmeans fkm(env.ctx, env.space, points, kPoints,
                               kDims, kCenters, 2.0);
    mapreduce::TaskIo io(*env.os, env.space);
    PaperRatioIo ratio_io(io, env, info);
    constexpr std::size_t kBlock = 512;
    while (env.ops() < config.op_budget) {
        fkm.begin_pass();
        for (std::size_t p = 0; p < kPoints; p += kBlock) {
            ratio_io.sync();
            fkm.process_block(p, kBlock);
            if (env.ops() >= config.op_budget)
                break;
        }
        fkm.finish_pass();
        io.write_output(kCenters * kDims * sizeof(double));
    }
    io.flush();
}

// ====================================================================
// 8. IBCF -- pairwise similarity build + prediction serving.
// ====================================================================
void
ibcf(Env& env, const RunConfig& config, const WorkloadInfo& info)
{
    constexpr std::uint32_t kUsers = 3'000;
    constexpr std::uint32_t kItems = 512;
    datagen::RatingsGenerator gen(kUsers, kItems, env.rng.next_u64());
    analytics::Ibcf ibcf(env.ctx, env.space, kUsers, kItems);
    mapreduce::TaskIo io(*env.os, env.space);

    PaperRatioIo ratio_io(io, env, info);
    const std::size_t ratings = kUsers * 12;
    for (std::size_t i = 0; i < ratings; ++i) {
        if ((i & 1023) == 0)
            ratio_io.sync();
        ibcf.add_rating(gen.next());
    }
    while (env.ops() < config.op_budget) {
        ibcf.build_similarity();
        ratio_io.sync();
        for (std::uint32_t q = 0; q < 4096; ++q) {
            ibcf.predict(
                static_cast<std::uint32_t>(env.rng.next_below(kUsers)),
                static_cast<std::uint32_t>(env.rng.next_below(kItems)));
        }
        ratio_io.sync();
        io.write_output(kItems * 64);
    }
    io.flush();
}

// ====================================================================
// 9. HMM -- BMES word segmentation (train + Viterbi decode).
// ====================================================================
void
hmm(Env& env, const RunConfig& config, const WorkloadInfo& info)
{
    constexpr std::uint16_t kAlphabet = 512;
    constexpr std::uint32_t kMaxSeq = 4096;
    analytics::SegmentationSource source(kAlphabet,
                                         env.rng.next_u64());
    analytics::HmmSegmenter hmm(env.ctx, env.space, kAlphabet,
                                kMaxSeq);
    mapreduce::TaskIo io(*env.os, env.space);
    PaperRatioIo ratio_io(io, env, info);

    for (int i = 0; i < 400; ++i) {
        hmm.train(source.next_sequence(200));
        if ((i & 15) == 0)
            ratio_io.sync();
    }
    hmm.finalize();
    std::vector<std::uint8_t> decoded;
    std::uint64_t seqs = 0;
    while (env.ops() < config.op_budget) {
        const analytics::TaggedSequence seq = source.next_sequence(300);
        hmm.decode(seq.chars, decoded);
        if ((++seqs & 7) == 0)
            ratio_io.sync();
    }
    io.flush();
}

// ====================================================================
// 10. PageRank -- power iteration; each iteration re-reads the graph.
// ====================================================================
void
pagerank(Env& env, const RunConfig& config, const WorkloadInfo& info)
{
    const datagen::CsrGraph graph =
        datagen::make_web_graph(120'000, 8.0, 0.8, env.rng.next_u64());
    analytics::PageRank pr(env.ctx, env.space, graph, 0.85);
    mapreduce::TaskIo io(*env.os, env.space);
    PaperRatioIo ratio_io(io, env, info);
    constexpr std::uint32_t kBlock = 8192;
    while (env.ops() < config.op_budget) {
        pr.begin_iteration();
        std::uint32_t processed = 0;
        for (std::uint32_t v = 0; v < graph.num_nodes; v += kBlock) {
            const std::uint32_t hi =
                std::min(graph.num_nodes, v + kBlock);
            ratio_io.sync();
            pr.process_nodes(v, hi);
            processed = hi;
            if (env.ops() >= config.op_budget)
                break;
        }
        pr.finish_iteration();
        // Rank output proportional to the slice actually computed.
        io.write_output(processed * 4);
    }
    io.flush();
}

// ====================================================================
// 11. Hive-bench -- the three representative SQL statements.
// ====================================================================
void
hive(Env& env, const RunConfig& config, const WorkloadInfo& info)
{
    constexpr std::size_t kRankings = 24'000;
    constexpr std::size_t kVisits = 32'000;
    datagen::TableGenerator gen(30'000, 20'000, env.rng.next_u64());
    std::vector<datagen::RankingRow> rankings(kRankings);
    std::vector<datagen::UserVisitRow> visits(kVisits);
    for (auto& r : rankings)
        r = gen.next_ranking();
    for (auto& v : visits)
        v = gen.next_visit();
    analytics::HiveEngine hive(env.ctx, env.space, std::move(rankings),
                               std::move(visits));
    mapreduce::TaskIo io(*env.os, env.space);
    PaperRatioIo ratio_io(io, env, info);
    while (env.ops() < config.op_budget) {
        hive.query_filter(200);
        ratio_io.sync();
        hive.query_group_revenue();
        ratio_io.sync();
        analytics::IpAggregate top;
        hive.query_join(14000, 17100, &top);
        ratio_io.sync();
        io.write_output(64 * 1024);
    }
    io.flush();
}

}  // namespace dcb::workloads::kernels

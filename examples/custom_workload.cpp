/**
 * @file
 * Extending DCBench-Repro with your own workload: an inverted-index
 * builder (the core of a search-engine indexer, one of the paper's three
 * headline domains) written against the public Workload + ExecCtx API,
 * then characterized exactly like the built-in suite.
 */

#include <cstdio>
#include <vector>

#include "analytics/simdata.h"
#include "core/dcbench.h"
#include "datagen/text.h"
#include "os/syscalls.h"
#include "trace/exec_ctx.h"
#include "util/string_util.h"
#include "workloads/profiles.h"

namespace {

/**
 * Inverted index: documents stream in; for each word, a posting (doc id)
 * is appended to that word's chain. The access pattern is WordCount-like
 * hashing plus pointer-chased posting-list appends.
 */
class InvertedIndexWorkload final : public dcb::workloads::Workload
{
  public:
    InvertedIndexWorkload()
    {
        info_.name = "Inverted Index";
        info_.category = dcb::workloads::Category::kDataAnalysis;
        info_.source = "example: custom workload";
    }

    const dcb::workloads::WorkloadInfo& info() const override
    {
        return info_;
    }

    void
    run(dcb::cpu::Core& core,
        const dcb::workloads::RunConfig& config) override
    {
        using dcb::workloads::FootprintClass;
        dcb::trace::ExecCtx ctx(
            core,
            dcb::workloads::make_code_layout(
                FootprintClass::kJvmFramework,
                dcb::workloads::kUserCodeBase, config.seed),
            dcb::os::kernel_code_layout(dcb::workloads::kKernelCodeBase,
                                        config.seed ^ 0x5A5A),
            dcb::workloads::data_analysis_exec_profile(), config.seed);
        dcb::mem::AddressSpace space;

        constexpr std::uint32_t kVocab = 200'000;
        dcb::datagen::TextGenerator text(kVocab, 1.0, config.seed);
        // heads[word] -> index of the newest posting; postings chain back.
        dcb::analytics::SimVec<std::uint32_t> heads(space, kVocab, 0u,
                                                    "index_heads");
        dcb::analytics::SimVec<std::uint64_t> postings(
            space, 4u << 20, 0ull, "index_postings");
        std::uint32_t next_posting = 1;
        std::uint32_t doc_id = 0;

        while (ctx.counts().total() < config.op_budget) {
            const auto doc = text.next_document(100);
            ++doc_id;
            for (std::size_t i = 0; i < doc.words.size(); ++i) {
                const std::uint32_t w = doc.words[i];
                ctx.alu(3);  // tokenize + hash
                ctx.load(heads.addr(w));
                const std::uint32_t prev = heads[w];
                const std::uint32_t slot =
                    next_posting++ % (4u << 20);
                postings[slot] =
                    (static_cast<std::uint64_t>(prev) << 32) | doc_id;
                ctx.store(postings.addr(slot));
                heads[w] = slot;
                ctx.store(heads.addr(w));
                ctx.branch(0xCAFE, i + 1 < doc.words.size());
            }
        }
    }

  private:
    dcb::workloads::WorkloadInfo info_;
};

}  // namespace

int
main(int argc, char** argv)
{
    dcb::util::expect_at_most_arguments(argc, argv, 0);
    InvertedIndexWorkload workload;
    const auto config = dcb::core::bench_config();
    const auto r = dcb::core::run_workload(workload, config);
    std::printf("custom workload: %s\n", r.workload.c_str());
    std::printf("IPC %.2f | L1I MPKI %.1f | L2 MPKI %.1f | "
                "L3 ratio %.1f%% | br miss %.2f%%\n",
                r.ipc, r.l1i_mpki, r.l2_mpki, 100.0 * r.l3_service_ratio,
                100.0 * r.branch_misprediction_ratio);
    std::printf("stalls: fetch %.0f%% rat %.0f%% rs %.0f%% rob %.0f%%\n",
                100.0 * r.stalls.fetch, 100.0 * r.stalls.rat,
                100.0 * r.stalls.rs, 100.0 * r.stalls.rob);
    std::printf("\nLike the built-in data-analysis workloads, a custom\n"
                "indexer stalls mostly in the out-of-order core, not the\n"
                "front end -- compare examples/characterize output.\n");
    return 0;
}

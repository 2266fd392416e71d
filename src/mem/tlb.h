#ifndef DCBENCH_MEM_TLB_H_
#define DCBENCH_MEM_TLB_H_

/**
 * @file
 * Translation lookaside buffers: a single set-associative TLB level and the
 * Westmere-style two-level arrangement (private L1 ITLB/DTLB backed by a
 * shared unified L2 TLB, with a hardware page walker behind it).
 *
 * The paper's Figures 8 and 11 count *completed page walks* caused by ITLB
 * and DTLB misses per thousand instructions; TwoLevelTlb::translate()
 * reports exactly that event.
 */

#include <cstdint>
#include <functional>

#include "mem/cache.h"
#include "mem/config.h"
#include "mem/page_table.h"

namespace dcb::mem {

/** One set-associative TLB level, tracking VPN tags only. */
class Tlb
{
  public:
    Tlb(const TlbGeometry& geometry, std::uint32_t page_bytes);

    /** Look up a virtual address; fills the entry on miss. */
    bool access(std::uint64_t vaddr) { return cache_.access(vaddr); }

    /** Look up without filling (probe only). */
    bool probe(std::uint64_t vaddr) const;

    void flush();

    std::uint64_t hits() const { return cache_.hits(); }
    std::uint64_t misses() const { return cache_.misses(); }
    void reset_counters() { cache_.reset_counters(); }

  private:
    static CacheGeometry as_cache_geometry(const TlbGeometry& g,
                                           std::uint32_t page_bytes);

    SetAssocCache cache_;
};

/** Result of one address translation through the TLB hierarchy. */
struct TranslationResult
{
    bool l1_hit = false;
    bool l2_hit = false;
    bool walked = false;          ///< a completed page walk occurred
    std::uint32_t latency = 0;    ///< cycles beyond a free L1 TLB hit
};

/**
 * Two-level TLB with a page walker.
 *
 * The walker performs the radix-walk PTE loads through a caller-supplied
 * memory access function (they go through the unified cache hierarchy, as
 * on real hardware), plus a fixed base latency.
 */
class TwoLevelTlb
{
  public:
    /** Memory access function: address -> access latency in cycles. */
    using MemAccessFn = std::function<std::uint32_t(std::uint64_t)>;

    TwoLevelTlb(const TlbGeometry& l1_geometry, const MemoryConfig& config,
                Tlb& shared_l2, PageTable& page_table,
                MemAccessFn pte_access);

    /**
     * Translate one virtual address, updating all levels. The L1 hit
     * path (the overwhelmingly common case) stays inline.
     */
    TranslationResult translate(std::uint64_t vaddr)
    {
        if (l1_.access(vaddr)) {
            TranslationResult result;
            result.l1_hit = true;
            return result;  // L1 hit is folded into the cache access time.
        }
        return translate_miss(vaddr);
    }

    /**
     * Functional-warming translate: identical TLB fill/LRU and page-walk
     * behaviour to translate() -- completed_walks_ advances, because
     * under sampling the full-stream walk count IS the Figure 8/11
     * metric source -- but the PTE loads' latency is discarded. Returns
     * true when the access triggered a page walk (event parity with
     * translate()).
     */
    bool warm_translate(std::uint64_t vaddr)
    {
        if (l1_.access(vaddr))
            return false;
        return warm_translate_miss(vaddr);
    }

    std::uint64_t l1_misses() const { return l1_.misses(); }
    std::uint64_t l1_accesses() const { return l1_.hits() + l1_.misses(); }
    /** Completed page walks triggered by misses at this L1 TLB. */
    std::uint64_t completed_walks() const { return completed_walks_; }

    void reset_counters();

  private:
    TranslationResult translate_miss(std::uint64_t vaddr);
    bool warm_translate_miss(std::uint64_t vaddr);

    Tlb l1_;
    Tlb& shared_l2_;
    PageTable& page_table_;
    MemAccessFn pte_access_;
    std::uint32_t page_bytes_;
    std::uint32_t walk_base_latency_;
    std::uint32_t walk_levels_;
    std::uint64_t completed_walks_ = 0;
};

}  // namespace dcb::mem

#endif  // DCBENCH_MEM_TLB_H_

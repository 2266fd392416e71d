#ifndef DCBENCH_MEM_HIERARCHY_H_
#define DCBENCH_MEM_HIERARCHY_H_

/**
 * @file
 * The three-level cache hierarchy of Table III: private L1I and L1D, a
 * private unified L2, and a shared inclusive-style L3, with a flat memory
 * behind it.
 *
 * All the cache-side counter metrics of the paper derive from this class:
 * L1I MPKI (Figure 7), L2 MPKI (Figure 9), and the L3-hit ratio of L2
 * misses (Figure 10, Equation 1).
 */

#include <cstdint>

#include "mem/cache.h"
#include "mem/config.h"
#include "mem/prefetcher.h"

namespace dcb::mem {

/** Level that finally served an access. */
enum class HitLevel : std::uint8_t { kL1, kL2, kL3, kMemory };

/** Outcome of one hierarchy access. */
struct AccessResult
{
    HitLevel level = HitLevel::kL1;
    std::uint32_t latency = 0;  ///< load-to-use cycles
};

/** One core's view of the Table III cache hierarchy. */
class CacheHierarchy
{
  public:
    explicit CacheHierarchy(const MemoryConfig& config);

    /**
     * Instruction fetch: L1I -> L2 -> L3 -> memory. The L1I-hit case
     * (sequential fetch) stays inline; misses take the out-of-line path.
     */
    AccessResult fetch(std::uint64_t addr)
    {
        if (l1i_.access(addr))
            return {HitLevel::kL1, config_.l1_latency};
        return fetch_miss(addr);
    }

    /** Data load/store: L1D -> L2 -> L3 -> memory (write-allocate). */
    AccessResult data_access(std::uint64_t addr, bool /*is_write*/)
    {
        // Write-allocate, write-back: stores behave like loads for tags.
        if (l1d_.access(addr)) {
            if (config_.enable_data_prefetch)
                prefetch_data(addr);
            return {HitLevel::kL1, config_.l1_latency};
        }
        return data_miss(addr);
    }

    /**
     * Page-walker PTE access: enters at L2 (Westmere walker loads bypass
     * the L1D but are cached in L2/L3).
     */
    AccessResult walker_access(std::uint64_t addr);

    const MemoryConfig& config() const { return config_; }

    // --- Counters (monotonic; reset via reset_counters) -----------------
    std::uint64_t l1i_accesses() const { return l1i_.accesses(); }
    std::uint64_t l1i_misses() const { return l1i_.misses(); }
    std::uint64_t l1d_accesses() const { return l1d_.accesses(); }
    std::uint64_t l1d_misses() const { return l1d_.misses(); }
    std::uint64_t l2_accesses() const { return l2_.accesses(); }
    std::uint64_t l2_misses() const { return l2_.misses(); }
    std::uint64_t l3_accesses() const { return l3_.accesses(); }
    std::uint64_t l3_misses() const { return l3_.misses(); }

    /** Equation 1 of the paper: (L2 misses - L3 misses) / L2 misses. */
    double l3_service_ratio() const;

    /** Lines installed by the prefetchers. */
    std::uint64_t prefetch_fills() const { return prefetch_fills_; }
    /** Prefetch fills that had to come from memory (bus traffic). */
    std::uint64_t prefetch_memory_fills() const
    {
        return prefetch_memory_fills_;
    }

    void reset_counters();
    /** Drop all cached state (cold start). */
    void flush();

  private:
    AccessResult miss_path(std::uint64_t addr, std::uint32_t base_latency);
    AccessResult fetch_miss(std::uint64_t addr);
    AccessResult data_miss(std::uint64_t addr);
    void prefetch_data(std::uint64_t addr);

    MemoryConfig config_;
    SetAssocCache l1i_;
    SetAssocCache l1d_;
    SetAssocCache l2_;
    SetAssocCache l3_;
    StridePrefetcher data_prefetcher_;
    std::uint64_t prefetch_fills_ = 0;
    std::uint64_t prefetch_memory_fills_ = 0;
};

}  // namespace dcb::mem

#endif  // DCBENCH_MEM_HIERARCHY_H_

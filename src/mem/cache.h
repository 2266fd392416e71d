#ifndef DCBENCH_MEM_CACHE_H_
#define DCBENCH_MEM_CACHE_H_

/**
 * @file
 * A single level of set-associative cache with selectable replacement.
 *
 * The simulator tracks tags only (no data): the paper's counter metrics
 * depend on hit/miss behaviour, not on values. Accesses are by full
 * byte address; the cache extracts set index and tag from the line-aligned
 * address.
 */

#include <cstdint>
#include <vector>

#include "mem/config.h"
#include "util/fastdiv.h"
#include "util/rng.h"

namespace dcb::mem {

/** Replacement policy for SetAssocCache. */
enum class Replacement { kLru, kRandom };

/** Tag-only set-associative cache model. */
class SetAssocCache
{
  public:
    SetAssocCache(const CacheGeometry& geometry, Replacement policy,
                  std::uint64_t rng_seed = 1);

    /**
     * Look up an address, filling the line on miss.
     * @return true on hit.
     *
     * Consecutive accesses to the same line (sequential instruction
     * fetch, page-granular TLB lookups) take an inline fast path that
     * only counts the hit. The memoized line is the one the last slow
     * access touched, and every call that stamps or drops any other
     * line (fill, fill_if_absent, invalidate, flush) also drops the
     * memo; so while the memo is set its line holds the newest stamp in
     * the whole cache. Re-stamping it would move no line's rank in the
     * recency order and so could change no victim choice; the hit skips
     * the stamp and the LRU write.
     */
    bool access(std::uint64_t addr)
    {
        const std::uint64_t line_addr = addr >> line_shift_;
        if (line_addr == memo_addr_) {
            ++hits_;
            return true;
        }
        return access_slow(line_addr);
    }

    /** Look up without filling or updating recency (probe only). */
    bool probe(std::uint64_t addr) const;

    /**
     * Insert a line without touching the demand hit/miss counters
     * (prefetch fill). An already-present line only has its recency
     * refreshed.
     * @return true when the line was absent (and is now inserted).
     */
    bool fill(std::uint64_t addr);

    /**
     * Insert a line that is absent, as fill() does; leave a present
     * line, its recency included, untouched.
     * @return true when the line was inserted.
     */
    bool fill_if_absent(std::uint64_t addr);

    /** Invalidate a single line if present. */
    void invalidate(std::uint64_t addr);

    /** Drop all contents and reset recency (counters are kept). */
    void flush();

    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }
    std::uint64_t accesses() const { return hits_ + misses_; }
    /** Miss ratio in [0,1]; 0 when never accessed. */
    double miss_ratio() const;

    /** Zero the hit/miss counters (contents are kept). */
    void reset_counters();

    const CacheGeometry& geometry() const { return geometry_; }

  private:
    /**
     * Tag of an invalid way. A line address is a byte address shifted
     * right by at least one bit, and a tag is at most its line address,
     * so no real tag (nor line address) equals it.
     */
    static constexpr std::uint64_t kInvalidTag = ~std::uint64_t{0};
    /** find_way() result for an absent tag. */
    static constexpr std::uint32_t kNoWay = ~std::uint32_t{0};

    std::uint64_t set_index(std::uint64_t line_addr) const;
    std::uint64_t tag_of(std::uint64_t line_addr) const;
    std::uint32_t find_way(std::uint64_t set, std::uint64_t tag) const;
    std::uint32_t lru_way(std::uint64_t set) const;
    std::uint32_t pick_victim(std::uint64_t set);
    void install(std::uint64_t set, std::uint32_t way, std::uint64_t tag);
    bool access_slow(std::uint64_t line_addr);

    CacheGeometry geometry_;
    Replacement policy_;
    std::uint32_t ways_;
    std::uint32_t line_shift_;
    std::uint64_t num_sets_;
    /**
     * Power-of-two set counts (every structure of the Table III machine
     * except the 12288-set L3) index with a precomputed shift+mask
     * instead of a 64-bit divide on every access.
     */
    bool pow2_sets_;
    std::uint32_t set_shift_ = 0;  ///< log2(num_sets_) when pow2
    std::uint64_t set_mask_ = 0;   ///< num_sets_ - 1 when pow2
    /** Reciprocal divmod for the non-pow2 fallback (12288-set L3):
        same index/tag as `%` and `/` without the per-access divide. */
    util::FastDiv set_div_;
    /**
     * The tag store: two parallel arrays of sets * ways entries,
     * row-major by set, so a set walk reads one contiguous run of tags
     * (128 B for a 16-way set) and, on a miss, one of stamps. An invalid
     * way holds kInvalidTag and stamp 0; a valid way holds a stamp of at
     * least 1, unique since the last flush.
     */
    std::vector<std::uint64_t> tags_;
    std::vector<std::uint64_t> lru_;  ///< last-touch stamp (LRU policy)
    /** Line address of the last slow access; kInvalidTag when none. */
    std::uint64_t memo_addr_ = kInvalidTag;
    std::uint64_t stamp_ = 0;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
    util::Rng rng_;
};

}  // namespace dcb::mem

#endif  // DCBENCH_MEM_CACHE_H_

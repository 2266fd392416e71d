#include "mem/cache.h"

#include <algorithm>
#include <bit>

#include "util/assert.h"

namespace dcb::mem {

SetAssocCache::SetAssocCache(const CacheGeometry& geometry,
                             Replacement policy, std::uint64_t rng_seed)
    : geometry_(geometry), policy_(policy), ways_(geometry.ways),
      line_shift_(std::countr_zero(geometry.line_bytes)),
      num_sets_(geometry.num_sets()),
      pow2_sets_(std::has_single_bit(geometry.num_sets())),
      set_div_(geometry.num_sets()),
      tags_(geometry.num_sets() * geometry.ways, kInvalidTag),
      lru_(geometry.num_sets() * geometry.ways, 0), rng_(rng_seed)
{
    DCB_EXPECTS(std::has_single_bit(
        static_cast<std::uint64_t>(geometry.line_bytes)));
    // A line shift of at least one keeps every tag below kInvalidTag.
    DCB_EXPECTS(line_shift_ >= 1);
    DCB_EXPECTS(num_sets_ >= 1);
    if (pow2_sets_) {
        set_shift_ = static_cast<std::uint32_t>(std::countr_zero(num_sets_));
        set_mask_ = num_sets_ - 1;
    }
}

std::uint64_t
SetAssocCache::set_index(std::uint64_t line_addr) const
{
    // Modulo indexing handles non-power-of-two set counts (the E5645's
    // 12 MB L3 has 12288 sets; real hardware hashes the index). For the
    // pow2 sets the mask selects exactly the same bits, so the fast path
    // produces bit-identical placement; the non-pow2 fallback goes
    // through a precomputed-reciprocal divmod (util::FastDiv) instead
    // of a hardware divide, with identical results (util_test asserts
    // equality against `%` exhaustively around the index space).
    return pow2_sets_ ? (line_addr & set_mask_) : set_div_.rem(line_addr);
}

std::uint64_t
SetAssocCache::tag_of(std::uint64_t line_addr) const
{
    return pow2_sets_ ? (line_addr >> set_shift_)
                      : set_div_.quot(line_addr);
}

std::uint32_t
SetAssocCache::find_way(std::uint64_t set, std::uint64_t tag) const
{
    // A compare and a conditional move per way, with no data-dependent
    // branch. Walking down from the last way leaves the lowest matching
    // way, the one an early-exit walk would stop at (only invalid ways
    // share a tag); kNoWay when no way matches.
    const std::uint64_t* tags = &tags_[set * ways_];
    std::uint32_t way = kNoWay;
    for (std::uint32_t w = ways_; w-- > 0;)
        way = tags[w] == tag ? w : way;
    return way;
}

std::uint32_t
SetAssocCache::lru_way(std::uint64_t set) const
{
    // The first way with the smallest stamp: the first invalid way
    // (stamp 0) if there is one, else the least recently used.
    const std::uint64_t* lru = &lru_[set * ways_];
    std::uint64_t oldest = lru[0];
    std::uint32_t victim = 0;
    for (std::uint32_t w = 1; w < ways_; ++w) {
        const bool older = lru[w] < oldest;
        oldest = older ? lru[w] : oldest;
        victim = older ? w : victim;
    }
    return victim;
}

std::uint32_t
SetAssocCache::pick_victim(std::uint64_t set)
{
    if (policy_ == Replacement::kRandom) {
        // Prefer an invalid way; otherwise evict at random.
        const std::uint32_t invalid = find_way(set, kInvalidTag);
        return invalid != kNoWay
                   ? invalid
                   : static_cast<std::uint32_t>(rng_.next_below(ways_));
    }
    return lru_way(set);
}

void
SetAssocCache::install(std::uint64_t set, std::uint32_t way,
                       std::uint64_t tag)
{
    tags_[set * ways_ + way] = tag;
    lru_[set * ways_ + way] = stamp_;
}

bool
SetAssocCache::access_slow(std::uint64_t line_addr)
{
    ++stamp_;
    memo_addr_ = line_addr;
    const std::uint64_t set = set_index(line_addr);
    const std::uint64_t tag = tag_of(line_addr);
    const std::uint32_t way = find_way(set, tag);
    if (way != kNoWay) {
        lru_[set * ways_ + way] = stamp_;
        ++hits_;
        return true;
    }
    ++misses_;
    install(set, pick_victim(set), tag);
    return false;
}

bool
SetAssocCache::probe(std::uint64_t addr) const
{
    const std::uint64_t line_addr = addr >> line_shift_;
    return find_way(set_index(line_addr), tag_of(line_addr)) != kNoWay;
}

bool
SetAssocCache::fill(std::uint64_t addr)
{
    memo_addr_ = kInvalidTag;  // the fill may evict or outrank the memo
    ++stamp_;
    const std::uint64_t line_addr = addr >> line_shift_;
    const std::uint64_t set = set_index(line_addr);
    const std::uint64_t tag = tag_of(line_addr);
    const std::uint32_t way = find_way(set, tag);
    if (way != kNoWay) {
        lru_[set * ways_ + way] = stamp_;
        return false;
    }
    // Prefetch fills always evict LRU, independent of the demand policy.
    install(set, lru_way(set), tag);
    return true;
}

bool
SetAssocCache::fill_if_absent(std::uint64_t addr)
{
    const std::uint64_t line_addr = addr >> line_shift_;
    const std::uint64_t set = set_index(line_addr);
    const std::uint64_t tag = tag_of(line_addr);
    if (find_way(set, tag) != kNoWay)
        return false;
    memo_addr_ = kInvalidTag;
    ++stamp_;
    install(set, lru_way(set), tag);
    return true;
}

void
SetAssocCache::invalidate(std::uint64_t addr)
{
    memo_addr_ = kInvalidTag;
    const std::uint64_t line_addr = addr >> line_shift_;
    const std::uint64_t set = set_index(line_addr);
    const std::uint32_t way = find_way(set, tag_of(line_addr));
    if (way != kNoWay) {
        tags_[set * ways_ + way] = kInvalidTag;
        lru_[set * ways_ + way] = 0;
    }
}

void
SetAssocCache::flush()
{
    memo_addr_ = kInvalidTag;
    std::fill(tags_.begin(), tags_.end(), kInvalidTag);
    std::fill(lru_.begin(), lru_.end(), 0);
    stamp_ = 0;
}

double
SetAssocCache::miss_ratio() const
{
    const std::uint64_t total = hits_ + misses_;
    return total ? static_cast<double>(misses_) / static_cast<double>(total)
                 : 0.0;
}

void
SetAssocCache::reset_counters()
{
    hits_ = 0;
    misses_ = 0;
}

}  // namespace dcb::mem

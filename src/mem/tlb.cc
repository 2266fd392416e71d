#include "mem/tlb.h"

#include <bit>

#include "util/assert.h"

namespace dcb::mem {

CacheGeometry
Tlb::as_cache_geometry(const TlbGeometry& g, std::uint32_t page_bytes)
{
    CacheGeometry cg;
    cg.size_bytes = static_cast<std::uint64_t>(g.entries) * page_bytes;
    cg.ways = g.ways;
    cg.line_bytes = page_bytes;
    return cg;
}

Tlb::Tlb(const TlbGeometry& geometry, std::uint32_t page_bytes)
    : cache_(as_cache_geometry(geometry, page_bytes), Replacement::kLru)
{
}

bool
Tlb::probe(std::uint64_t vaddr) const
{
    return cache_.probe(vaddr);
}

void
Tlb::flush()
{
    cache_.flush();
}

TwoLevelTlb::TwoLevelTlb(const TlbGeometry& l1_geometry,
                         const MemoryConfig& config, Tlb& shared_l2,
                         PageTable& page_table, MemAccessFn pte_access)
    : l1_(l1_geometry, config.page_bytes), shared_l2_(shared_l2),
      page_table_(page_table), pte_access_(std::move(pte_access)),
      page_bytes_(config.page_bytes),
      walk_base_latency_(config.walk_base_latency),
      walk_levels_(config.walk_levels)
{
    DCB_EXPECTS(pte_access_ != nullptr);
}

TranslationResult
TwoLevelTlb::translate_miss(std::uint64_t vaddr)
{
    TranslationResult result;
    // L2 TLB lookup costs a few cycles even on hit.
    result.latency += 6;
    if (shared_l2_.access(vaddr)) {
        result.l2_hit = true;
        return result;
    }
    // Page walk: one PTE load per radix level, through the cache hierarchy.
    std::array<std::uint64_t, PageTable::kMaxLevels> ptes{};
    page_table_.walk_addresses(vaddr, ptes);
    result.latency += walk_base_latency_;
    for (std::uint32_t level = 0; level < walk_levels_; ++level)
        result.latency += pte_access_(ptes[level]);
    result.walked = true;
    ++completed_walks_;
    return result;
}

bool
TwoLevelTlb::warm_translate_miss(std::uint64_t vaddr)
{
    if (shared_l2_.access(vaddr))
        return false;
    std::array<std::uint64_t, PageTable::kMaxLevels> ptes{};
    page_table_.walk_addresses(vaddr, ptes);
    for (std::uint32_t level = 0; level < walk_levels_; ++level)
        (void)pte_access_(ptes[level]);
    ++completed_walks_;
    return true;
}

void
TwoLevelTlb::reset_counters()
{
    l1_.reset_counters();
    completed_walks_ = 0;
}

}  // namespace dcb::mem

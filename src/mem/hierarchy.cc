#include "mem/hierarchy.h"

#include <bit>

namespace dcb::mem {

CacheHierarchy::CacheHierarchy(const MemoryConfig& config)
    : config_(config),
      l1i_(config.l1i, Replacement::kLru, 11),
      l1d_(config.l1d, Replacement::kLru, 13),
      l2_(config.l2, Replacement::kLru, 17),
      l3_(config.l3, Replacement::kLru, 19),
      data_prefetcher_(config.prefetch_table_entries,
                       config.prefetch_degree, config.page_bytes)
{
    config_.validate();
}

void
CacheHierarchy::prefetch_data(std::uint64_t addr)
{
    std::uint64_t targets[StridePrefetcher::kMaxPrefetches];
    const std::uint32_t n = data_prefetcher_.observe(addr, targets);
    // Targets run monotonically away from the demand address. One on
    // the demand line, or on the previous target's line, is resident in
    // the L1D by construction (that line was just accessed or placed,
    // and no L1D fill came since), so its lookup is skipped.
    const auto line_shift =
        static_cast<std::uint32_t>(std::countr_zero(config_.l1d.line_bytes));
    std::uint64_t last_line = addr >> line_shift;
    for (std::uint32_t i = 0; i < n; ++i) {
        const std::uint64_t line = targets[i] >> line_shift;
        if (line == last_line)
            continue;
        last_line = line;
        if (l1d_.fill_if_absent(targets[i])) {
            l2_.fill(targets[i]);
            if (l3_.fill(targets[i]))
                ++prefetch_memory_fills_;
            ++prefetch_fills_;
        }
    }
}

AccessResult
CacheHierarchy::miss_path(std::uint64_t addr, std::uint32_t base_latency)
{
    AccessResult r;
    if (l2_.access(addr)) {
        r.level = HitLevel::kL2;
        r.latency = base_latency + config_.l2_latency;
        return r;
    }
    if (l3_.access(addr)) {
        r.level = HitLevel::kL3;
        r.latency = base_latency + config_.l3_latency;
        return r;
    }
    r.level = HitLevel::kMemory;
    r.latency = base_latency + config_.memory_latency;
    return r;
}

AccessResult
CacheHierarchy::fetch_miss(std::uint64_t addr)
{
    const AccessResult r = miss_path(addr, 0);
    if (config_.enable_insn_prefetch) {
        // Next-line instruction prefetch: sequential fetch rarely re-misses.
        const std::uint64_t next = addr + config_.l1i.line_bytes;
        if (l1i_.fill_if_absent(next)) {
            l2_.fill(next);
            l3_.fill(next);
            ++prefetch_fills_;
        }
    }
    return r;
}

AccessResult
CacheHierarchy::data_miss(std::uint64_t addr)
{
    const AccessResult r = miss_path(addr, 0);
    if (config_.enable_data_prefetch)
        prefetch_data(addr);
    return r;
}

AccessResult
CacheHierarchy::walker_access(std::uint64_t addr)
{
    return miss_path(addr, 0);
}

double
CacheHierarchy::l3_service_ratio()
const
{
    const auto l2_miss = static_cast<double>(l2_.misses());
    if (l2_miss == 0.0)
        return 0.0;
    const auto l3_miss = static_cast<double>(l3_.misses());
    return (l2_miss - l3_miss) / l2_miss;
}

void
CacheHierarchy::reset_counters()
{
    l1i_.reset_counters();
    l1d_.reset_counters();
    l2_.reset_counters();
    l3_.reset_counters();
}

void
CacheHierarchy::flush()
{
    l1i_.flush();
    l1d_.flush();
    l2_.flush();
    l3_.flush();
}

}  // namespace dcb::mem

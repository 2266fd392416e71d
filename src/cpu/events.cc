#include "cpu/events.h"

namespace dcb::cpu {

const char*
event_name(Event e)
{
    switch (e) {
      case Event::kCycles: return "cycles";
      case Event::kInstRetired: return "inst_retired";
      case Event::kLoads: return "loads";
      case Event::kStores: return "stores";
      case Event::kBrRetired: return "br_retired";
      case Event::kBrMispred: return "br_mispred";
      case Event::kL1IAccess: return "l1i_access";
      case Event::kL1IMiss: return "l1i_miss";
      case Event::kITlbL1Miss: return "itlb_miss";
      case Event::kITlbWalk: return "itlb_walk";
      case Event::kL1DAccess: return "l1d_access";
      case Event::kL1DMiss: return "l1d_miss";
      case Event::kL2Access: return "l2_access";
      case Event::kL2Miss: return "l2_miss";
      case Event::kL3Access: return "l3_access";
      case Event::kL3Miss: return "l3_miss";
      case Event::kDTlbL1Miss: return "dtlb_miss";
      case Event::kDTlbWalk: return "dtlb_walk";
      case Event::kFetchStallCycles: return "fetch_stall";
      case Event::kRatStallCycles: return "rat_stall";
      case Event::kLoadBufStallCycles: return "load_buf_stall";
      case Event::kStoreBufStallCycles: return "store_buf_stall";
      case Event::kRsFullStallCycles: return "rs_full_stall";
      case Event::kRobFullStallCycles: return "rob_full_stall";
      case Event::kPrefetchFill: return "prefetch_fill";
      case Event::kCount: break;
    }
    return "unknown";
}

}  // namespace dcb::cpu

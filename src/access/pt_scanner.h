// Page-table reference-bit scanner used by scanning-based baselines
// (Nimble, MULTI-CLOCK, and TPP's LRU aging).
//
// Policies mark pages referenced from their per-access hook (modelling the
// hardware setting the PTE accessed bit); Scan() then sweeps all live pages,
// reports and clears the bits, and returns the modelled CPU cost — which grows
// linearly with memory size, the scalability problem the paper highlights
// (§2.1).

#ifndef MEMTIS_SIM_SRC_ACCESS_PT_SCANNER_H_
#define MEMTIS_SIM_SRC_ACCESS_PT_SCANNER_H_

#include <cstdint>
#include <vector>

#include "src/mem/memory_system.h"
#include "src/mem/types.h"
#include "src/snapshot/state_codec.h"

namespace memtis {

struct PtScanConfig {
  // Cost to test-and-clear one PTE accessed bit during a scan sweep
  // (amortised; includes the TLB flushing the kernel batches per scan).
  uint64_t per_page_cost_ns = 60;
};

class PtScanner {
 public:
  explicit PtScanner(const PtScanConfig& config = {}) : config_(config) {}

  // Hot-path hook: the processor sets the accessed bit.
  void MarkAccessed(PageIndex index) {
    if (index >= referenced_.size()) {
      referenced_.resize(index + 1024, 0);
    }
    referenced_[index] = 1;
  }

  // Sweeps all live pages; fn(PageIndex, PageInfo&, bool referenced) is
  // invoked per page and the bits are cleared. Returns the modelled scan cost
  // in ns (charged to the scanning daemon or to app time by the caller).
  template <typename Fn>
  uint64_t Scan(MemorySystem& mem, Fn&& fn) {
    uint64_t scanned = 0;
    mem.ForEachLivePage([&](PageIndex index, PageInfo& page) {
      const bool referenced = index < referenced_.size() && referenced_[index] != 0;
      if (referenced) {
        referenced_[index] = 0;
      }
      fn(index, page, referenced);
      ++scanned;
    });
    const uint64_t cost = scanned * config_.per_page_cost_ns;
    busy_ns_ += cost;
    ++scans_;
    return cost;
  }

  uint64_t busy_ns() const { return busy_ns_; }
  uint64_t scans() const { return scans_; }

  // Checkpointing: the referenced bitmap is sized lazily, so the restored
  // vector adopts the snapshot's length.
  void VisitState(StateCodec& c) {
    c.Array("referenced", referenced_);
    c.Field("busy_ns", busy_ns_);
    c.Field("scans", scans_);
  }

 private:
  PtScanConfig config_;
  std::vector<uint8_t> referenced_;
  uint64_t busy_ns_ = 0;
  uint64_t scans_ = 0;
};

}  // namespace memtis

#endif  // MEMTIS_SIM_SRC_ACCESS_PT_SCANNER_H_

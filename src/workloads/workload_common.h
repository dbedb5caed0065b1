// Building blocks for the synthetic application models.
//
// Each paper benchmark is reproduced by composing three access primitives:
//   SkewedRegion     - Zipf popularity over chunks of the region. With
//                      chunk = 512 pages (2 MiB) hot huge pages are uniformly
//                      hot inside (high utilisation, e.g. Liblinear, paper
//                      Fig. 3a); with chunk = 1 page hotness is scattered at
//                      4 KiB granularity.
//   SparseHugeRegion - Zipf-over-2MiB-blocks where each block concentrates
//                      accesses on a small fixed subset of subpages and only
//                      a subset of subpages is ever written (low utilisation
//                      and THP bloat, e.g. Silo/Btree, paper Fig. 3b).
//   SequentialScanner- streaming sweeps (PageRank edge lists, SPEC arrays).

#ifndef MEMTIS_SIM_SRC_WORKLOADS_WORKLOAD_COMMON_H_
#define MEMTIS_SIM_SRC_WORKLOADS_WORKLOAD_COMMON_H_

#include <cstdint>
#include <vector>

#include "src/common/rng.h"
#include "src/mem/types.h"

namespace memtis {

// Zipf-distributed popularity over chunks of `chunk_pages` 4 KiB pages; ranks
// are scattered by a permutation so the hot set is not contiguous. Accesses
// pick a chunk by Zipf, then a uniform page and offset inside it.
class SkewedRegion {
 public:
  SkewedRegion(Vaddr start, uint64_t num_pages, double zipf_s, uint64_t seed,
               uint64_t chunk_pages = 1);

  Vaddr start() const { return start_; }
  uint64_t num_pages() const { return num_pages_; }
  uint64_t num_chunks() const { return num_chunks_; }

  Vaddr SampleAddr(Rng& rng) const;

  // Address of the first byte of the chunk with popularity rank `rank`.
  Vaddr AddrOfRank(uint64_t rank) const;

 private:
  Vaddr start_;
  uint64_t num_pages_;
  uint64_t chunk_pages_;
  uint64_t num_chunks_;
  ZipfSampler zipf_;
  std::vector<uint32_t> perm_;
};

// Low huge-page-utilisation region. Each 2 MiB block has `written_per_block`
// subpages that hold data (the rest stay all-zero: THP bloat) and, among
// those, `hot_per_block` subpages that receive the block's traffic. Traffic
// picks a block by Zipf, then a hot subpage, or — with `stray_prob` — any
// written subpage (cold-record lookups).
class SparseHugeRegion {
 public:
  SparseHugeRegion(Vaddr start, uint64_t num_blocks, double zipf_s,
                   uint32_t hot_per_block, uint32_t written_per_block,
                   double stray_prob, uint64_t seed);

  Vaddr start() const { return start_; }
  uint64_t num_blocks() const { return num_blocks_; }
  uint32_t hot_per_block() const { return hot_per_block_; }
  uint32_t written_per_block() const { return written_per_block_; }

  Vaddr SampleAddr(Rng& rng) const;

  // Iterates every written subpage address (population phase writes these).
  template <typename Fn>  // Fn(Vaddr)
  void ForEachWrittenSubpage(Fn&& fn) const {
    for (uint64_t b = 0; b < num_blocks_; ++b) {
      for (uint32_t i = 0; i < written_per_block_; ++i) {
        fn(start_ + b * kHugePageSize +
           (static_cast<Vaddr>(subpages_[b * written_per_block_ + i]) << kPageShift));
      }
    }
  }

 private:
  Vaddr start_;
  uint64_t num_blocks_;
  uint32_t hot_per_block_;
  uint32_t written_per_block_;
  double stray_prob_;
  ZipfSampler zipf_;
  std::vector<uint32_t> block_perm_;
  // written_per_block_ subpage indices per block, flattened; the first
  // hot_per_block_ of each block's slice are the hot ones.
  std::vector<uint16_t> subpages_;
};

// Streaming sweeps over a region with a configurable stride, wrapping around.
class SequentialScanner {
 public:
  SequentialScanner(Vaddr start, uint64_t num_pages, uint64_t stride_bytes = 256);

  Vaddr Next();
  // Run form of Next(): returns the start address of a run of `*n` accesses
  // (clamped from `max_n` so the run never wraps past the region end) and
  // advances the cursor past it. Issuing the run with this stride produces
  // exactly the address stream `*n` scalar Next() calls would.
  Vaddr NextRun(uint64_t max_n, uint64_t* n);
  void Reset() { cursor_ = 0; }
  // Fraction of a full sweep completed (for phase logic).
  double progress() const;

  uint64_t stride_bytes() const { return stride_bytes_; }

  // Checkpointing: only the cursor is mutable state (the region geometry is
  // reconstructed from the owning workload's params).
  void VisitState(StateCodec& c) { c.Field("cursor", cursor_); }

 private:
  Vaddr start_;
  uint64_t span_bytes_;
  uint64_t stride_bytes_;
  uint64_t cursor_ = 0;
};

}  // namespace memtis

#endif  // MEMTIS_SIM_SRC_WORKLOADS_WORKLOAD_COMMON_H_

// Workload interface: a synthetic application driving the simulator.
//
// Workloads allocate regions and issue accesses through the App facade, which
// routes them through the engine's access pipeline. Step() issues a batch of
// accesses and returns false when the workload's natural run is complete (the
// engine may also stop earlier at its access budget).

#ifndef MEMTIS_SIM_SRC_SIM_WORKLOAD_H_
#define MEMTIS_SIM_SRC_SIM_WORKLOAD_H_

#include <cstdint>
#include <memory>
#include <string_view>

#include "src/common/rng.h"
#include "src/mem/types.h"

namespace memtis {

class Engine;
class StateCodec;

// Facade handed to workloads; forwards to the engine.
class App {
 public:
  explicit App(Engine& engine) : engine_(engine) {}

  // Allocates a region (rounded up to 2 MiB); placement is chosen by the
  // active tiering policy. Returns the start address.
  Vaddr Alloc(uint64_t bytes, bool use_thp = true);

  void Free(Vaddr start);

  // Issues one memory access (post-LLC, per the PEBS events modelled).
  void Read(Vaddr addr);
  void Write(Vaddr addr);

  // Issues `count` accesses starting at `addr`, advancing `stride` bytes per
  // access. Semantically identical to a loop of Read/Write calls; the engine
  // coalesces same-page runs for raw replay speed (see Engine::DoAccessRun).
  void ReadRun(Vaddr addr, uint64_t count, uint64_t stride);
  void WriteRun(Vaddr addr, uint64_t count, uint64_t stride);

  uint64_t now_ns() const;
  uint64_t accesses_issued() const;

  // Escape hatch for scheduler workloads (the tenant plane) that tag memory
  // ownership and attribute engine counters per tenant between batches.
  Engine& engine() const { return engine_; }

 private:
  Engine& engine_;
};

class Workload {
 public:
  virtual ~Workload() = default;

  virtual std::string_view name() const = 0;

  // Approximate footprint the workload will allocate; used to size machines.
  virtual uint64_t footprint_bytes() const = 0;

  // Allocates initial regions and performs any population phase bookkeeping.
  virtual void Setup(App& app, Rng& rng) = 0;

  // Issues a batch of accesses (typically a few hundred); returns false once
  // the workload is naturally finished.
  virtual bool Step(App& app, Rng& rng) = 0;

  // Sharded-by-range execution hook (see src/sim/sharded_engine.h): returns a
  // fresh workload covering this workload's shard `shard` of `num_shards`
  // deterministic, disjoint slices — or nullptr when the workload is not
  // range-shardable (the default). ShardSlice(0, 1) must reproduce the whole
  // workload: ShardedEngine with one shard is byte-identical to a plain
  // Engine run.
  virtual std::unique_ptr<Workload> ShardSlice(uint32_t shard,
                                               uint32_t num_shards) const {
    (void)shard;
    (void)num_shards;
    return nullptr;
  }

  // --- Checkpointing (src/snapshot/) ------------------------------------------
  //
  // Like TieringPolicy's hook. VisitState lists the workload's cursors and
  // the base addresses of its regions (StateCodec::Region, which a restore
  // checks against the restored memory system); a load restores them into
  // a freshly constructed workload of the same (name, scale, seed). Setup()
  // is NOT called on the restore path (the restored MemorySystem already
  // holds the regions), so Setup and the load branch share one layout
  // helper that rebuilds the derived structures (indices, samplers) from
  // the bases. Every workload MakeWorkload builds overrides it; the no-op
  // default serves trace replay, which no JobSpec can name.
  virtual void VisitState(StateCodec& c) { (void)c; }
};

}  // namespace memtis

#endif  // MEMTIS_SIM_SRC_SIM_WORKLOAD_H_

// Randomised stress tests: interleave every mutation the memory system and
// MEMTIS support and audit the invariants continuously.

#include <gtest/gtest.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <random>
#include <string>
#include <type_traits>
#include <vector>

#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include "src/audit/audit.h"
#include "src/common/json_fields.h"
#include "src/common/netio.h"
#include "src/runner/coordinator.h"
#include "src/runner/work_queue.h"
#include "src/runner/worker.h"
#include "src/fault/fault.h"
#include "src/memtis/memtis_policy.h"
#include "src/memtis/policy_registry.h"
#include "src/runner/job_codec.h"
#include "src/runner/checkpoint_runner.h"
#include "src/runner/manifest.h"
#include "src/runner/supervisor.h"
#include "src/runner/sweep.h"
#include "src/snapshot/serializer.h"
#include "src/snapshot/state_codec.h"
#include "src/snapshot/snapshot_file.h"
#include "src/workloads/registry.h"
#include "tests/socket_campaign.h"
#include "tests/test_util.h"

namespace memtis {
namespace {

// Runs the component-level audit checks over a bare memory system + TLB and
// returns the collected report (empty = all invariants hold).
AuditReport AuditMemorySystem(MemorySystem& mem, const Tlb& tlb) {
  AuditReport report;
  AuditCollector out(&report);
  CheckFrameConservation(mem, out);
  CheckPageTableMapping(mem, out);
  CheckHugePageAccounting(mem, out);
  CheckIncrementalCounters(mem, out);
  CheckTlbCoherence(tlb, mem, out);
  return report;
}

TEST(Fuzz, MemorySystemRandomOps) {
  Rng rng(2024);
  MemorySystem mem(MemoryConfig{.fast_frames = 8192, .capacity_frames = 16384});
  Tlb tlb;
  mem.AttachTlb(&tlb);
  std::vector<Vaddr> regions;

  for (int step = 0; step < 3000; ++step) {
    const uint64_t op = rng.NextBelow(100);
    if (op < 30 || regions.empty()) {
      // Allocate 1-3 huge pages, random tier preference.
      if (mem.tier(TierId::kFast).free_frames() +
              mem.tier(TierId::kCapacity).free_frames() >
          4 * kSubpagesPerHuge) {
        AllocOptions opts;
        opts.preferred = rng.NextBool(0.5) ? TierId::kFast : TierId::kCapacity;
        opts.use_thp = rng.NextBool(0.8);
        regions.push_back(
            mem.AllocateRegion((1 + rng.NextBelow(3)) * kHugePageSize, opts));
      }
    } else if (op < 45) {
      const size_t pick = rng.NextBelow(regions.size());
      mem.FreeRegion(regions[pick]);
      regions[pick] = regions.back();
      regions.pop_back();
    } else if (op < 70) {
      // Migrate a random page of a random region.
      const Vaddr base = regions[rng.NextBelow(regions.size())];
      const PageIndex index = mem.Lookup(VpnOf(base));
      if (index != kInvalidPage) {
        mem.Migrate(index, rng.NextBool(0.5) ? TierId::kFast : TierId::kCapacity);
      }
    } else if (op < 85) {
      // Split a huge page with random written bits.
      const Vaddr base = regions[rng.NextBelow(regions.size())];
      const PageIndex index = mem.Lookup(VpnOf(base));
      if (index != kInvalidPage && mem.page(index).kind() == PageKind::kHuge) {
        PageInfo& page = mem.page(index);
        for (int j = 0; j < 64; ++j) {
          mem.NoteSubpageAccess(page, rng.NextBelow(kSubpagesPerHuge),
                                /*is_write=*/true);
        }
        mem.SplitHugePage(index, [&](uint32_t) {
          return rng.NextBool(0.5) ? TierId::kFast : TierId::kCapacity;
        });
      }
    } else {
      // Demand-fault a random hole if one exists in this region.
      const Vaddr base = regions[rng.NextBelow(regions.size())];
      const auto region = mem.RegionAt(base);
      ASSERT_TRUE(region.has_value());
      const Vpn vpn = region->first + rng.NextBelow(region->second);
      if (mem.Lookup(vpn) == kInvalidPage) {
        mem.DemandFault(vpn, AllocOptions{});
      }
    }
    if ((step & 63) == 0) {
      const AuditReport report = AuditMemorySystem(mem, tlb);
      ASSERT_TRUE(report.ok()) << "step " << step << ": " << report.ToJson(2);
    }
  }
  const AuditReport report = AuditMemorySystem(mem, tlb);
  ASSERT_TRUE(report.ok()) << report.ToJson(2);
  // The pool must conserve buffers even after thousands of random ops.
  EXPECT_EQ(mem.huge_meta_allocated(),
            mem.huge_meta_pooled() + mem.TakeCensus().live_huge_pages);
}

TEST(Fuzz, ExchangeInterleavesWithEveryOtherMutation) {
  // Random interleavings of exchange / migrate / split / collapse / shrink /
  // free / demand-fault. Exchanges swap frames in place, so any stale frame
  // accounting or missed shootdown they introduce surfaces in the periodic
  // audit sweeps (frame conservation, TLB coherence, exchange counters).
  Rng rng(20260809);
  MemorySystem mem(MemoryConfig{.fast_frames = 4096, .capacity_frames = 16384});
  Tlb tlb;
  mem.AttachTlb(&tlb);
  std::vector<Vaddr> regions;
  uint64_t attempted_exchanges = 0;

  const auto audit_all = [&](int step) {
    AuditReport report = AuditMemorySystem(mem, tlb);
    AuditCollector out(&report);
    // No injector attached: zero injected aborts must pair with zero counted.
    CheckExchangeAccounting(mem, FaultStats{}, out);
    CheckTenantConservation(mem, out);
    ASSERT_TRUE(report.ok()) << "step " << step << ": " << report.ToJson(2);
  };

  for (int step = 0; step < 3000; ++step) {
    const uint64_t op = rng.NextBelow(100);
    if (op < 22 || regions.empty()) {
      if (mem.tier(TierId::kFast).free_frames() +
              mem.tier(TierId::kCapacity).free_frames() >
          4 * kSubpagesPerHuge) {
        AllocOptions opts;
        opts.preferred = rng.NextBool(0.3) ? TierId::kFast : TierId::kCapacity;
        opts.use_thp = rng.NextBool(0.7);
        regions.push_back(
            mem.AllocateRegion((1 + rng.NextBelow(3)) * kHugePageSize, opts));
      }
    } else if (op < 32) {
      const size_t pick = rng.NextBelow(regions.size());
      mem.FreeRegion(regions[pick]);
      regions[pick] = regions.back();
      regions.pop_back();
    } else if (op < 47) {
      const Vaddr base = regions[rng.NextBelow(regions.size())];
      const PageIndex index = mem.Lookup(VpnOf(base));
      if (index != kInvalidPage) {
        mem.Migrate(index, rng.NextBool(0.5) ? TierId::kFast : TierId::kCapacity);
      }
    } else if (op < 72) {
      // Exchange: pick a random (capacity, fast) pair of the same kind. The
      // candidate scan is deterministic given the RNG, so reruns replay.
      std::vector<PageIndex> hot_side;
      std::vector<PageIndex> cold_side;
      mem.ForEachLivePage([&](PageIndex i, PageInfo& page) {
        (page.tier() == TierId::kCapacity ? hot_side : cold_side).push_back(i);
      });
      if (!hot_side.empty() && !cold_side.empty()) {
        const PageIndex hot = hot_side[rng.NextBelow(hot_side.size())];
        const PageIndex cold = cold_side[rng.NextBelow(cold_side.size())];
        mem.ExchangePages(hot, cold);  // kind mismatches count as failures
        ++attempted_exchanges;
      }
    } else if (op < 82) {
      const Vaddr base = regions[rng.NextBelow(regions.size())];
      const PageIndex index = mem.Lookup(VpnOf(base));
      if (index != kInvalidPage && mem.page(index).kind() == PageKind::kHuge) {
        PageInfo& page = mem.page(index);
        for (int j = 0; j < 96; ++j) {
          mem.NoteSubpageAccess(page, rng.NextBelow(kSubpagesPerHuge),
                                /*is_write=*/true);
        }
        mem.SplitHugePage(index, [&](uint32_t) {
          return rng.NextBool(0.5) ? TierId::kFast : TierId::kCapacity;
        });
      }
    } else if (op < 88) {
      // Collapse the first huge span of a region if its 512 children qualify.
      const Vaddr base = regions[rng.NextBelow(regions.size())];
      mem.CollapseToHuge(HugeBaseVpn(VpnOf(base)),
                         rng.NextBool(0.5) ? TierId::kFast : TierId::kCapacity);
    } else if (op < 92) {
      // Shrink a tier by a small pinned slice (permanent, like hot-unplug).
      if (mem.pinned_frames_total() < 1024) {
        mem.ShrinkTier(rng.NextBool(0.5) ? TierId::kFast : TierId::kCapacity,
                       rng.NextBelow(32));
      }
    } else {
      const Vaddr base = regions[rng.NextBelow(regions.size())];
      const auto region = mem.RegionAt(base);
      ASSERT_TRUE(region.has_value());
      const Vpn vpn = region->first + rng.NextBelow(region->second);
      if (mem.Lookup(vpn) == kInvalidPage) {
        mem.DemandFault(vpn, AllocOptions{});
      }
    }
    if ((step & 63) == 0) {
      audit_all(step);
    }
  }
  audit_all(3000);
  // The mix must actually exercise the new primitive, both outcomes included.
  EXPECT_GT(attempted_exchanges, 0u);
  const MigrationStats& stats = mem.migration_stats();
  EXPECT_GT(stats.exchanges, 0u);
  EXPECT_GT(stats.failed_exchanges, 0u);  // wrong-kind / wrong-tier picks
  EXPECT_EQ(stats.aborted_exchanges, 0u);
  EXPECT_EQ(mem.huge_meta_allocated(),
            mem.huge_meta_pooled() + mem.TakeCensus().live_huge_pages);
}

TEST(Fuzz, HugePageMetaPoolRecycles) {
  // Split/collapse churn on a steady-state set of huge pages must reuse
  // pooled HugePageMeta buffers instead of growing the allocation count.
  Rng rng(77);
  MemorySystem mem(MemoryConfig{.fast_frames = 8192, .capacity_frames = 8192});
  Tlb tlb;
  mem.AttachTlb(&tlb);
  std::vector<Vaddr> regions;
  for (int i = 0; i < 4; ++i) {
    const Vaddr base = mem.AllocateRegion(kHugePageSize, AllocOptions{});
    regions.push_back(base);
    // Write every subpage so splits keep all 512 children mapped (unwritten
    // subpages would be freed) and collapse preconditions always hold.
    PageInfo& page = mem.page(mem.Lookup(VpnOf(base)));
    for (uint64_t j = 0; j < kSubpagesPerHuge; ++j) {
      mem.NoteSubpageAccess(page, j, /*is_write=*/true);
    }
  }
  const uint64_t allocated_after_warmup = mem.huge_meta_allocated();
  ASSERT_GE(allocated_after_warmup, 4u);
  for (int cycle = 0; cycle < 200; ++cycle) {
    const Vaddr base = regions[rng.NextBelow(regions.size())];
    const PageIndex index = mem.Lookup(VpnOf(base));
    ASSERT_NE(index, kInvalidPage);
    if (mem.page(index).kind() == PageKind::kHuge) {
      mem.SplitHugePage(index, [&](uint32_t) {
        return rng.NextBool(0.5) ? TierId::kFast : TierId::kCapacity;
      });
    } else {
      ASSERT_TRUE(mem.CollapseToHuge(VpnOf(base), TierId::kFast));
    }
    // Conservation: every buffer is either pooled or owned by a live page.
    ASSERT_EQ(mem.huge_meta_allocated(),
              mem.huge_meta_pooled() + mem.live_huge_pages());
  }
  // Steady-state churn may need at most one extra buffer per collapse in
  // flight; it must not scale with the cycle count.
  EXPECT_LE(mem.huge_meta_allocated(), allocated_after_warmup + regions.size());
  EXPECT_TRUE(mem.CheckConsistency());
  const AuditReport report = AuditMemorySystem(mem, tlb);
  ASSERT_TRUE(report.ok()) << report.ToJson(2);
}

TEST(Fuzz, FaultStormSurvivesEveryPolicy) {
  // Every registered policy must degrade gracefully under a dense fault plan:
  // no crash, no invariant violation. MEMTIS_FAULTS overrides the plan
  // (scripts/check.sh's third pass sets it explicitly; "none" skips).
  const char* env = std::getenv("MEMTIS_FAULTS");
  const std::string spec =
      (env != nullptr && env[0] != '\0') ? env : std::string("storm");
  FaultPlan plan;
  std::string error;
  ASSERT_TRUE(FaultPlan::Parse(spec, &plan, &error)) << spec << ": " << error;
  if (!plan.enabled()) {
    GTEST_SKIP() << "MEMTIS_FAULTS=" << spec << " disables the storm";
  }
  for (const std::string& name : KnownPolicyNames()) {
    for (const uint64_t seed : {11ull, 1011ull}) {
      auto workload = MakeWorkload("btree", 0.12);
      auto policy = MakePolicy(name, workload->footprint_bytes(),
                               workload->footprint_bytes() / 3);
      EngineOptions opts;
      opts.max_accesses = 80'000;
      opts.seed = seed;
      opts.faults = plan;
      AuditSession audit;  // collect mode: report inspected below
      opts.audit = &audit;
      Engine engine(MachineFor(*workload, 1.0 / 3.0), *policy, opts);
      const Metrics metrics = engine.Run(*workload);
      ASSERT_TRUE(audit.report().ok())
          << "reproducer: policy=" << name << " benchmark=btree seed=" << seed
          << " faults=" << plan.ToSpec() << "\n"
          << audit.report().ToJson(2);
      // A dense plan on a live policy must actually exercise the plane.
      EXPECT_GT(metrics.faults.total_injected(), 0u)
          << name << " seed " << seed;
    }
  }
}

// Fuzzes the --resume checkpoint manifest: random specs and outcomes are
// written, random torn/garbage lines are interleaved at the tail, and the
// loader must recover exactly the valid last-wins image — never abort, never
// mistake a truncated record for a completed cell.
TEST(Fuzz, ManifestRoundTripSurvivesTornLines) {
  const std::string path =
      ::testing::TempDir() + "memtis_fuzz_manifest.jsonl";
  std::remove(path.c_str());
  std::mt19937_64 rng(20260807);

  const std::vector<std::string> systems = {"memtis", "autonuma", "hemem"};
  std::map<std::string, bool> expected_ok;        // fingerprint -> ok
  std::map<std::string, std::string> expected_result;  // serialized bytes
  std::vector<std::string> valid_lines;
  size_t lines_written = 0;

  {
    ManifestWriter writer;
    ASSERT_TRUE(writer.Open(path));
    for (int i = 0; i < 64; ++i) {
      JobSpec spec;
      spec.system = systems[rng() % systems.size()];
      spec.benchmark = "btree";
      spec.fast_ratio = 1.0 / static_cast<double>(2 + rng() % 8);
      spec.base_seed = rng() % 4;
      spec.seed_index = static_cast<uint32_t>(rng() % 3);
      spec.accesses = 10'000 + rng() % 50'000;

      SupervisedOutcome outcome;
      outcome.ok = (rng() % 4) != 0;
      outcome.attempts = 1 + static_cast<int>(rng() % 3);
      if (outcome.ok) {
        outcome.result.footprint_bytes = rng();
        outcome.result.fast_bytes = rng();
        outcome.result.mean_ehr =
            static_cast<double>(rng()) / static_cast<double>(rng() | 1);
        outcome.result.metrics.app_ns = rng();
        outcome.result.metrics.fast_accesses = rng();
      } else {
        outcome.failure.kind =
            (rng() % 2) ? FailureKind::kCrash : FailureKind::kTimeout;
        outcome.failure.signal = (rng() % 2) ? 6 : 9;
        outcome.failure.message = "fuzzed failure";
        outcome.failure.stderr_tail = "line1\nline2 \"quoted\"";
      }

      const std::string fp = JobFingerprint(spec);
      writer.Append(fp, spec, outcome);
      ++lines_written;
      expected_ok[fp] = outcome.ok;  // map semantics mirror last-wins
      if (outcome.ok) {
        std::string bytes;
        JsonWriter w(&bytes, 0);
        WriteJobResultJson(w, outcome.result);
        expected_result[fp] = bytes;
      } else {
        expected_result.erase(fp);
      }
    }
    writer.Close();
  }

  // Capture the valid lines so torn variants can be synthesized from them.
  {
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
      if (!line.empty()) valid_lines.push_back(line);
    }
    ASSERT_EQ(valid_lines.size(), lines_written);
  }

  // Append garbage: strict prefixes of real records (every nonempty prefix of
  // a one-line JSON object is unparseable) plus free-form junk.
  size_t garbage = 0;
  {
    std::ofstream tail(path, std::ios::app);
    for (int i = 0; i < 16; ++i) {
      const std::string& src = valid_lines[rng() % valid_lines.size()];
      tail << src.substr(0, 1 + rng() % (src.size() - 1)) << "\n";
      ++garbage;
    }
    tail << "not json at all\n";
    ++garbage;
    // And one genuinely torn final record, no trailing newline.
    const std::string& src = valid_lines[0];
    tail << src.substr(0, src.size() / 2);
    ++garbage;
  }

  std::map<std::string, ManifestEntry> loaded;
  ManifestLoadStats stats;
  ASSERT_TRUE(LoadManifest(path, &loaded, &stats));
  EXPECT_EQ(stats.lines_total, lines_written + garbage);
  EXPECT_EQ(stats.lines_skipped, garbage);
  ASSERT_EQ(loaded.size(), expected_ok.size());
  for (const auto& [fp, ok] : expected_ok) {
    ASSERT_NE(loaded.find(fp), loaded.end()) << fp;
    EXPECT_EQ(loaded.at(fp).ok, ok) << fp;
    if (ok) {
      std::string bytes;
      JsonWriter w(&bytes, 0);
      WriteJobResultJson(w, loaded.at(fp).result);
      EXPECT_EQ(bytes, expected_result.at(fp)) << fp;
    }
  }
  std::remove(path.c_str());
}

// A supervised sweep under the dense fault-injection preset: every cell runs
// in a forked child with the storm active and must come back ok — zero parent
// deaths, zero invariant violations, faults actually firing in every cell.
TEST(Fuzz, SupervisedStormSweepKeepsParentAlive) {
  const char* env = std::getenv("MEMTIS_FAULTS");
  const std::string spec =
      (env != nullptr && env[0] != '\0') ? env : std::string("storm");
  FaultPlan plan;
  std::string error;
  ASSERT_TRUE(FaultPlan::Parse(spec, &plan, &error)) << spec << ": " << error;
  if (!plan.enabled()) {
    GTEST_SKIP() << "MEMTIS_FAULTS=" << spec << " disables the storm";
  }

  SweepSpec sweep;
  sweep.systems = {"memtis", "autonuma"};
  sweep.benchmarks = {"btree"};
  sweep.accesses = 60'000;
  sweep.audit = true;
  sweep.faults = spec;
  const std::vector<JobSpec> jobs = ExpandJobs(sweep);

  const std::vector<CellOutcome> outcomes =
      RunJobsResilient(jobs, CampaignOptions{}, 4);

  ASSERT_EQ(outcomes.size(), jobs.size());
  for (size_t i = 0; i < outcomes.size(); ++i) {
    ASSERT_TRUE(outcomes[i].ok)
        << jobs[i].system << "/" << jobs[i].benchmark << ": "
        << outcomes[i].failure.message << "\n"
        << outcomes[i].failure.stderr_tail;
    EXPECT_EQ(outcomes[i].attempts, 1);
    EXPECT_TRUE(outcomes[i].result.audit_report.ok())
        << outcomes[i].result.audit_report.ToJson(2);
    EXPECT_GT(outcomes[i].result.metrics.faults.total_injected(), 0u)
        << jobs[i].system;
  }
}

// ---------------------------------------------------------------------------
// Distributed-campaign wire and on-disk fuzzing: truncated, garbled, and
// duplicated frames — and torn queue-directory files — must yield parse
// failures and structured recovery, never an abort.

std::string SerializeResult(const JobResult& result) {
  std::string out;
  JsonWriter w(&out, 0);
  WriteJobResultJson(w, result);
  return out;
}

TEST(Fuzz, FrameDecoderSurvivesGarbageTruncationAndSplits) {
  // A valid frame split at every possible boundary still decodes.
  const std::string payload = "{\"type\":\"claim\",\"worker\":\"fuzz\"}";
  const std::string frame = EncodeFrame(payload);
  for (size_t split = 0; split <= frame.size(); ++split) {
    FrameDecoder decoder;
    decoder.Feed(frame.data(), split);
    std::string out;
    EXPECT_FALSE(decoder.bad());
    const bool early = decoder.Next(&out);
    EXPECT_EQ(early, split == frame.size());
    decoder.Feed(frame.data() + split, frame.size() - split);
    if (!early) {
      ASSERT_TRUE(decoder.Next(&out));
    }
    EXPECT_EQ(out, payload);
  }

  // Truncation: any prefix of the frame yields no output and no badness.
  for (size_t len = 0; len < frame.size(); ++len) {
    FrameDecoder decoder;
    decoder.Feed(frame.data(), len);
    std::string out;
    EXPECT_FALSE(decoder.Next(&out));
    EXPECT_FALSE(decoder.bad());
  }

  // An oversize length prefix poisons the decoder instead of allocating.
  {
    FrameDecoder decoder;
    const unsigned char huge[4] = {0xFF, 0xFF, 0xFF, 0xFF};
    decoder.Feed(reinterpret_cast<const char*>(huge), 4);
    std::string out;
    EXPECT_FALSE(decoder.Next(&out));
    EXPECT_TRUE(decoder.bad());
  }

  // Random byte soup: frames may decode (any 4-byte prefix is a length) but
  // nothing crashes, and buffering stays bounded by what was fed.
  std::mt19937_64 rng(20260809);
  for (int round = 0; round < 64; ++round) {
    FrameDecoder decoder;
    size_t fed = 0;
    for (int chunk = 0; chunk < 16 && !decoder.bad(); ++chunk) {
      std::string bytes(1 + rng() % 64, '\0');
      for (char& c : bytes) {
        c = static_cast<char>(rng());
      }
      decoder.Feed(bytes.data(), bytes.size());
      fed += bytes.size();
      std::string out;
      while (decoder.Next(&out)) {
      }
      EXPECT_LE(decoder.buffered_bytes(), fed);
    }
  }
}

TEST(Fuzz, ProtocolParsersNeverAbortOnMutatedFrames) {
  JobSpec spec;
  spec.system = "memtis";
  spec.benchmark = "btree";
  spec.accesses = 10'000;
  WorkItem item;
  item.index = 2;
  item.attempt = 1;
  item.issue = 3;
  item.fingerprint = JobFingerprint(spec);
  item.spec = spec;
  SupervisedOutcome outcome;
  outcome.ok = true;
  outcome.attempts = 2;

  std::vector<std::string> seeds = {
      EncodeClaimRequest("w0"),
      EncodeRenewRequest(item),
      EncodeResultRequest("w0", item, outcome),
      EncodeCellReply(item),
      EncodeSimpleReply(CoordinatorReply::Kind::kDone),
      EncodeErrorReply("boom"),
      "",
      "{",
      "[1,2,3]",
      "null",
      "{\"type\":\"claim\"",
      "{\"type\":\"result\",\"index\":0}",
      "{\"type\":\"cell\",\"index\":0,\"spec\":7}",
      "{\"type\":\"nonsense\"}",
  };
  std::mt19937_64 rng(4242);
  WorkerRequest req;
  CoordinatorReply reply;
  std::string error;
  for (const std::string& seed : seeds) {
    // The pristine seed, every truncation of it, and byte-flipped variants:
    // parsers must return true or false, never crash or abort.
    for (size_t len = 0; len <= seed.size(); ++len) {
      const std::string t = seed.substr(0, len);
      ParseWorkerRequest(t, &req, &error);
      ParseCoordinatorReply(t, &reply, &error);
    }
    for (int round = 0; round < 32; ++round) {
      std::string mutated = seed + seed;  // duplicated content
      if (!mutated.empty()) {
        for (int flips = 0; flips < 3; ++flips) {
          mutated[rng() % mutated.size()] = static_cast<char>(rng());
        }
      }
      ParseWorkerRequest(mutated, &req, &error);
      ParseCoordinatorReply(mutated, &reply, &error);
    }
  }

  // Structurally valid results with out-of-range numerics parse (or are
  // rejected) without aborting; attempts < 1 must be rejected.
  EXPECT_FALSE(ParseWorkerRequest(
      "{\"type\":\"result\",\"worker\":\"w\",\"index\":0,\"attempt\":0,"
      "\"issue\":0,\"ok\":true,\"attempts\":0,\"result\":{}}",
      &req, &error));
}

TEST(Fuzz, CoordinatorSurvivesGarbageClients) {
  SweepSpec sweep;
  sweep.systems = {"memtis"};
  sweep.benchmarks = {"btree"};
  sweep.accesses = 20'000;
  const std::vector<JobSpec> jobs = ExpandJobs(sweep);

  // A parade of hostile clients: raw garbage, a garbled frame, an oversize
  // length prefix, and an instant hangup. Each should cost only its own
  // connection. They connect once the port is bound, before the healthy
  // worker, which still completes the campaign.
  const auto hostile_clients = [](uint16_t port) {
    NetAddress addr;
    addr.port = port;
    std::mt19937_64 rng(7);
    for (int client = 0; client < 8; ++client) {
      std::string error;
      const int fd = ConnectTcp(addr, &error);
      ASSERT_GE(fd, 0) << error;
      std::string bytes;
      switch (client % 4) {
        case 0:  // random soup
          bytes.resize(64 + rng() % 256);
          for (char& c : bytes) c = static_cast<char>(rng());
          break;
        case 1:  // well-framed non-JSON
          bytes = EncodeFrame("!!not json!!");
          break;
        case 2: {  // oversize length prefix
          const unsigned char huge[4] = {0xFF, 0xFF, 0xFF, 0xFF};
          bytes.assign(reinterpret_cast<const char*>(huge), 4);
          break;
        }
        case 3:  // connect-and-slam
          break;
      }
      if (!bytes.empty()) {
        send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL);
      }
      close(fd);
    }
  };
  WorkerOptions healthy;
  healthy.name = "healthy";
  const SocketCampaignRun run = RunSocketCampaign(
      jobs, CampaignOptions{}, {healthy}, false, {}, hostile_clients);
  EXPECT_EQ(run.worker_exits, std::vector<int>{0});
  const std::string& serve_error = run.error;
  const std::vector<CellOutcome>& outcomes = run.outcomes;

  ASSERT_TRUE(serve_error.empty()) << serve_error;
  ASSERT_EQ(outcomes.size(), jobs.size());
  for (size_t i = 0; i < outcomes.size(); ++i) {
    ASSERT_TRUE(outcomes[i].ok) << outcomes[i].failure.message;
    EXPECT_EQ(SerializeResult(outcomes[i].result),
              SerializeResult(RunJob(jobs[i])));
  }
}

TEST(Fuzz, JobSpecJsonRoundTripPreservesFingerprint) {
  std::mt19937_64 rng(20260808);
  const std::vector<std::string> systems = {"memtis", "autonuma", "hemem",
                                            "nobody\"quoted\\name"};
  for (int round = 0; round < 128; ++round) {
    JobSpec spec;
    spec.system = systems[rng() % systems.size()];
    spec.benchmark = "btree";
    spec.fast_ratio = 1.0 / static_cast<double>(2 + rng() % 9);
    spec.cxl = (rng() % 2) != 0;
    spec.cpu_contention = (rng() % 2) != 0;
    spec.accesses = rng() % 100'000;
    spec.snapshot_interval_ns = rng() % 2 ? 0 : rng();
    spec.fast_bytes_override = rng() % 2 ? 0 : rng();
    spec.footprint_scale = 0.5 + static_cast<double>(rng() % 1000) / 100.0;
    spec.base_seed = rng();
    spec.seed_index = static_cast<uint32_t>(rng() % 16);
    spec.engine_seed = rng();
    spec.audit = (rng() % 2) != 0;
    spec.audit_epoch_interval_ns = rng() % 2 ? 0 : rng() % 1'000'000;
    spec.shards = 1 + static_cast<uint32_t>(rng() % 4);
    spec.faults = rng() % 2 ? "" : "migrate-abort=0.1,seed=7";

    std::string bytes;
    JsonWriter w(&bytes, 0);
    WriteJobSpecJson(w, spec);
    JsonValue doc;
    std::string error;
    ASSERT_TRUE(JsonValue::Parse(bytes, &doc, &error)) << error;
    JobSpec back;
    ASSERT_TRUE(ReadJobSpecJson(doc, &back)) << bytes;
    EXPECT_EQ(JobFingerprint(back), JobFingerprint(spec)) << bytes;
  }

  // Garbage documents are rejected, not aborted on.
  for (const char* text :
       {"null", "[]", "{}", "{\"system\":\"\"}", "{\"system\":7}",
        "{\"system\":\"memtis\"}"}) {
    JsonValue doc;
    if (JsonValue::Parse(text, &doc, nullptr)) {
      JobSpec back;
      ReadJobSpecJson(doc, &back);  // false or harmless true; never aborts
    }
  }
}

// ---------------------------------------------------------------------------
// The JSON field-list codec (src/common/json_fields.h): every record that
// crosses a transport round-trips byte-identically, and the decoder refuses
// mistyped fields instead of silently defaulting them.

// A third visitor over the same field lists: gives every field a distinct
// non-default value and enters every conditional block (flags come out true,
// WriteIf holds), so a field added to any VisitFields is covered here
// without touching this file.
class FieldFiller {
 public:
  template <class T>
  void Field(std::string_view, T& value) { value = Next<T>(); }
  template <class Getter>
  void Derived(std::string_view, Getter&&) {}
  template <class Getter, class Setter>
  void Mapped(std::string_view, Getter&& get, Setter&& set) {
    using Raw = std::decay_t<decltype(get())>;
    if constexpr (std::is_convertible_v<Raw, std::string_view>) {
      set(std::string(get()) + "-x");  // an unknown name decodes as a fallback
    } else {
      set(Next<Raw>());
    }
  }
  template <class R>
  void Record(std::string_view, R& record) { record.VisitFields(*this); }
  template <class R>
  void RequiredRecord(std::string_view key, R& record) { Record(key, record); }
  template <class Fn>
  void Object(std::string_view, Fn&& fn) { fn(*this); }
  template <class C>
  void Array(std::string_view, C& container) {
    if constexpr (requires { container.resize(2); }) container.resize(2);
    for (auto& element : container) {
      if constexpr (std::is_arithmetic_v<std::decay_t<decltype(element)>>) {
        element = Next<std::decay_t<decltype(element)>>();
      } else {
        element.VisitFields(*this);
      }
    }
  }
  bool WriteIf(bool) const { return true; }

 private:
  template <class T>
  T Next() {
    ++n_;
    if constexpr (std::is_same_v<T, bool>) {
      return true;
    } else if constexpr (std::is_same_v<T, std::string>) {
      return "s" + std::to_string(n_) + " \"q\"\n";
    } else if constexpr (std::is_floating_point_v<T>) {
      return static_cast<T>(n_) + 1.0 / 3.0;
    } else if constexpr (std::is_signed_v<T>) {
      return static_cast<T>(-1000 - n_);
    } else {
      return static_cast<T>(1000 + n_);
    }
  }
  uint64_t n_ = 0;
};

template <class R>
R Filled() {
  R record;
  FieldFiller filler;
  record.VisitFields(filler);
  return record;
}

template <class R>
std::string EncodeRecord(const R& record) {
  std::string out;
  JsonWriter w(&out, 0);
  EncodeJson(w, record);
  return out;
}

// The record's binary encoding through the snapshot codec
// (src/snapshot/state_codec.h), which walks the same field list.
template <class R>
std::string EncodeState(R record) {
  StateWriter w;
  StateCodec codec(w);
  codec.Record("record", record);
  return w.Take();
}

struct CodecCase {
  std::string name;
  std::string bytes;
  // Decodes `bytes` and encodes the result again.
  std::function<bool(const JsonValue&, std::string*)> reencode;
  // Keys of conditional blocks the filled record must have written.
  std::vector<std::string> blocks;
  // The record through the snapshot codec: its binary encoding, and the
  // binary and JSON encodings of what that decodes to.
  std::string binary;
  std::function<bool(std::string* binary, std::string* json)> state_reencode;
};

template <class R>
CodecCase MakeCase(std::string name, const R& record,
                   std::vector<std::string> blocks = {}) {
  const std::string binary = EncodeState(record);
  return CodecCase{std::move(name), EncodeRecord(record),
                   [](const JsonValue& v, std::string* out) {
                     R back;
                     if (!DecodeJson(v, &back)) return false;
                     *out = EncodeRecord(back);
                     return true;
                   },
                   std::move(blocks), binary,
                   [binary](std::string* binary_out, std::string* json_out) {
                     R back;
                     StateReader r(binary);
                     StateCodec codec(r);
                     codec.Record("record", back);
                     if (!r.Done()) return false;
                     *binary_out = EncodeState(back);
                     *json_out = EncodeRecord(back);
                     return true;
                   }};
}

TEST(Codec, EveryRecordRoundTripsByteIdentically) {
  SupervisedOutcome failed;
  failed.attempts = 3;
  failed.failure = Filled<JobFailure>();
  failed.failure.kind = FailureKind::kTimeout;

  const std::vector<CodecCase> cases = {
      MakeCase("Metrics", Filled<Metrics>(),
               {"\"exchanges\"", "\"exchanged_4k\"", "\"per_tenant\"",
                "\"exchange-abort\"", "\"timeline\"", "\"classified\""}),
      MakeCase("FaultStats", Filled<FaultStats>(), {"\"exchange-abort\""}),
      MakeCase("AuditReport", Filled<AuditReport>(), {"\"invariant\""}),
      MakeCase("EpochSample", Filled<EpochSample>(),
               {"\"tenant_fast_pages\"", "\"hist_bins\"", "\"split_backlog\""}),
      MakeCase("JobResult", Filled<JobResult>(),
               {"\"memtis_stats\"", "\"pebs_store_period\"",
                "\"hemem_overalloc_bytes\"", "\"audit_report\"", "\"epochs\""}),
      MakeCase("JobFailure", Filled<JobFailure>(), {"\"kind\":\"crash\""}),
      MakeCase("JobSpec", Filled<JobSpec>(), {"\"shards\""}),
      MakeCase("SupervisedOutcome(ok)", Filled<SupervisedOutcome>(),
               {"\"result\""}),
      MakeCase("SupervisedOutcome(failed)", failed,
               {"\"failure\"", "\"kind\":\"timeout\""}),
      MakeCase("WorkItem", Filled<WorkItem>(),
               {"\"checkpoint_ns\"", "\"spec\""}),
  };
  for (const CodecCase& c : cases) {
    for (const std::string& block : c.blocks) {
      EXPECT_NE(c.bytes.find(block), std::string::npos)
          << c.name << ": " << block;
    }
    JsonValue doc;
    std::string error;
    ASSERT_TRUE(JsonValue::Parse(c.bytes, &doc, &error))
        << c.name << ": " << error;
    std::string again;
    ASSERT_TRUE(c.reencode(doc, &again)) << c.name << ": " << c.bytes;
    EXPECT_EQ(again, c.bytes) << c.name;

    // The snapshot codec round-trips it too: byte-identical binary, and the
    // same JSON (every WriteIf block, every double bit for bit) after.
    std::string binary_again;
    std::string json_again;
    ASSERT_TRUE(c.state_reencode(&binary_again, &json_again)) << c.name;
    EXPECT_EQ(binary_again, c.binary) << c.name;
    EXPECT_EQ(json_again, c.bytes) << c.name;
  }
}

// Replaces the first `"key":<value>` in `json` (value = the balanced object,
// array or scalar after the colon) with `"key":replacement`.
std::string ReplaceValue(const std::string& json, const std::string& key,
                         const std::string& replacement) {
  const std::string needle = "\"" + key + "\":";
  const size_t at = json.find(needle);
  EXPECT_NE(at, std::string::npos) << key;
  const size_t begin = at + needle.size();
  size_t end = begin;
  int depth = 0;
  bool in_string = false;
  for (; end < json.size(); ++end) {
    const char c = json[end];
    if (in_string) {
      if (c == '\\') ++end;
      else if (c == '"') in_string = false;
      continue;
    }
    if (c == '"') in_string = true;
    else if (c == '{' || c == '[') ++depth;
    else if (c == '}' || c == ']') {
      if (depth == 0) break;
      if (--depth == 0) { ++end; break; }
    } else if (c == ',' && depth == 0) break;
  }
  return json.substr(0, begin) + replacement + json.substr(end);
}

bool DecodesAsResult(const std::string& json) {
  JsonValue doc;
  JobResult result;
  return JsonValue::Parse(json, &doc) && ReadJobResultJson(doc, &result);
}

JobResult AuditedResult() {
  JobResult result;
  result.audited = true;
  result.audit_report.ticks_audited = 4;
  result.audit_report.violations_total = 1;
  result.audit_report.violations.push_back({"frame-conservation", "x", 1, 2});
  result.epochs.resize(2);
  return result;
}

TEST(Codec, MistypedFieldFailsTheRead) {
  const std::string good = SerializeResult(AuditedResult());
  ASSERT_TRUE(DecodesAsResult(good));
  // A nested record, an array element, a scalar and a nested scalar of the
  // wrong kind each fail the whole record.
  EXPECT_FALSE(DecodesAsResult(ReplaceValue(good, "audit_report", "5")));
  EXPECT_FALSE(DecodesAsResult(ReplaceValue(good, "epochs", "[7,{}]")));
  EXPECT_FALSE(DecodesAsResult(ReplaceValue(good, "epochs", "{}")));
  EXPECT_FALSE(DecodesAsResult(ReplaceValue(good, "fast_bytes", "\"12\"")));
  EXPECT_FALSE(DecodesAsResult(ReplaceValue(good, "cores", "true")));
  EXPECT_FALSE(DecodesAsResult(ReplaceValue(good, "invariant", "null")));
  // Required records stay required.
  EXPECT_FALSE(DecodesAsResult(ReplaceValue(good, "metrics", "5")));
  EXPECT_FALSE(DecodesAsResult("{\"fast_bytes\":1}"));

  // The manifest skips such a line, so a resumed sweep recomputes the cell
  // instead of trusting an audit with its violations dropped.
  const std::string path = ::testing::TempDir() + "memtis_codec_manifest.jsonl";
  std::remove(path.c_str());
  JobSpec spec_a;
  spec_a.system = "memtis";
  spec_a.benchmark = "btree";
  JobSpec spec_b = spec_a;
  spec_b.system = "hemem";
  SupervisedOutcome outcome;
  outcome.ok = true;
  outcome.attempts = 1;
  outcome.result = AuditedResult();
  {
    ManifestWriter writer;
    ASSERT_TRUE(writer.Open(path));
    writer.Append(JobFingerprint(spec_a), spec_a, outcome);
    writer.Append(JobFingerprint(spec_b), spec_b, outcome);
    writer.Close();
    std::ifstream in(path);
    std::string line_a, line_b;
    ASSERT_TRUE(std::getline(in, line_a) && std::getline(in, line_b));
    in.close();
    std::ofstream(path, std::ios::trunc)
        << line_a << "\n" << ReplaceValue(line_b, "audit_report", "5") << "\n";
  }
  std::map<std::string, ManifestEntry> loaded;
  ManifestLoadStats stats;
  ASSERT_TRUE(LoadManifest(path, &loaded, &stats));
  EXPECT_EQ(stats.lines_total, 2u);
  EXPECT_EQ(stats.lines_skipped, 1u);
  EXPECT_EQ(loaded.count(JobFingerprint(spec_a)), 1u);
  EXPECT_EQ(loaded.count(JobFingerprint(spec_b)), 0u);
  std::remove(path.c_str());

  // The socket wire refuses the same result frame.
  WorkItem item;
  item.fingerprint = JobFingerprint(spec_a);
  item.spec = spec_a;
  const std::string frame = EncodeResultRequest("w0", item, outcome);
  WorkerRequest req;
  std::string error;
  EXPECT_TRUE(ParseWorkerRequest(frame, &req, &error)) << error;
  EXPECT_FALSE(ParseWorkerRequest(ReplaceValue(frame, "audit_report", "5"),
                                  &req, &error));
}

TEST(Codec, AbsentFieldsTakeTheirDefaults) {
  JsonValue doc;
  ASSERT_TRUE(JsonValue::Parse("{\"metrics\":{}}", &doc));
  JobResult result;
  ASSERT_TRUE(ReadJobResultJson(doc, &result));
  EXPECT_EQ(result.metrics.cores, 20u);
  EXPECT_TRUE(result.metrics.cpu_contention);

  ASSERT_TRUE(JsonValue::Parse("{\"memtis\":true}", &doc));
  EpochSample sample;
  ASSERT_TRUE(DecodeJson(doc, &sample));
  EXPECT_EQ(sample.hot_bin, -1);
  EXPECT_EQ(sample.cold_bin, -1);

  CoordinatorReply reply;
  std::string error;
  ASSERT_TRUE(ParseCoordinatorReply(
      "{\"type\":\"cell\",\"index\":0,\"fingerprint\":\"f\","
      "\"spec\":{\"system\":\"memtis\",\"benchmark\":\"btree\",\"shards\":0}}",
      &reply, &error))
      << error;
  EXPECT_EQ(reply.item.checkpoint_ns, 0u);
  EXPECT_EQ(reply.item.spec.shards, 1u);
  // The required-field checks hold: a named cell, a positive attempt count.
  EXPECT_FALSE(ParseCoordinatorReply(
      "{\"type\":\"cell\",\"index\":0,\"fingerprint\":\"\","
      "\"spec\":{\"system\":\"memtis\",\"benchmark\":\"btree\"}}",
      &reply, &error));
  EXPECT_FALSE(ParseCoordinatorReply(
      "{\"type\":\"cell\",\"index\":0,\"fingerprint\":\"f\","
      "\"spec\":{\"system\":\"\",\"benchmark\":\"btree\"}}",
      &reply, &error));
  WorkerRequest req;
  EXPECT_FALSE(ParseWorkerRequest(
      "{\"type\":\"result\",\"index\":0,\"attempt\":0,\"issue\":0,"
      "\"ok\":false,\"attempts\":0,\"failure\":{}}",
      &req, &error));
  // Out-of-range exponent tokens read as the default, never through an
  // undefined float-to-integer cast; in-range ones truncate.
  EXPECT_FALSE(ParseWorkerRequest(
      "{\"type\":\"result\",\"index\":0,\"attempt\":0,\"issue\":0,"
      "\"ok\":false,\"attempts\":1e300,\"failure\":{}}",
      &req, &error));
  ASSERT_TRUE(JsonValue::Parse(
      "{\"metrics\":{\"accesses\":-1e300,\"app_ns\":2.5e3,\"cores\":1e30}}",
      &doc));
  ASSERT_TRUE(ReadJobResultJson(doc, &result));
  EXPECT_EQ(result.metrics.accesses, 0u);
  EXPECT_EQ(result.metrics.app_ns, 2500u);
}

class HistogramAuditTest : public ::testing::TestWithParam<std::string> {};

TEST_P(HistogramAuditTest, IncrementalStateMatchesRecomputation) {
  // Run MEMTIS over a benchmark, pausing periodically to recompute both
  // histograms from scratch and compare with the incremental bookkeeping.
  auto workload = MakeWorkload(GetParam(), 0.12);
  MemtisConfig cfg = MemtisConfig::ScaledDefaults(workload->footprint_bytes(),
                                                  workload->footprint_bytes() / 9);
  MemtisPolicy policy(cfg);
  EngineOptions opts;
  opts.max_accesses = 1;
  Engine engine(MachineFor(*workload, 1.0 / 9.0), policy, opts);
  for (uint64_t budget = 150'000; budget <= 1'200'000; budget += 150'000) {
    engine.set_max_accesses(budget);
    engine.Run(*workload);
    AuditReport report;
    AuditCollector out(&report);
    CheckMemtisHistogramsFull(policy, engine.mem(), out);
    CheckMemtisHistogramMass(policy, engine.mem(), out);
    CheckMemtisSampleLedger(policy, out);
    CheckPageTableMapping(engine.mem(), out);
    ASSERT_TRUE(report.ok()) << "at " << budget << ": " << report.ToJson(2);
  }
}

// The snapshot loader is the one parser that runs on bytes a SIGKILL may
// have torn mid-write: whatever it is fed, it must either decode the exact
// blob that was encoded or refuse — never crash, never return a mangled
// blob. Fuzz every corruption class the checkpoint plane defends against.
TEST(Fuzz, SnapshotLoaderSurvivesArbitraryCorruption) {
  std::mt19937_64 rng(20260809);

  for (int trial = 0; trial < 64; ++trial) {
    SnapshotBlob blob;
    blob.fingerprint = std::to_string(rng());
    blob.attempt = static_cast<uint32_t>(rng() % 4);
    blob.sequence = rng();
    blob.payload.resize(1 + rng() % 4096);
    for (char& c : blob.payload) {
      c = static_cast<char>(rng());
    }
    const std::string image = EncodeSnapshot(blob);

    SnapshotBlob out;
    std::string error;
    ASSERT_TRUE(DecodeSnapshot(image, &out, &error)) << error;
    ASSERT_EQ(out.payload, blob.payload);

    // Torn tail: a random strict prefix (what a crash mid-write leaves when
    // the atomic rename never happened).
    const size_t cut = rng() % image.size();
    EXPECT_FALSE(DecodeSnapshot(image.substr(0, cut), &out, &error))
        << "prefix " << cut << "/" << image.size() << " decoded";

    // Single random bit flip anywhere in the image.
    std::string flipped = image;
    const size_t pos = rng() % flipped.size();
    flipped[pos] = static_cast<char>(flipped[pos] ^ (1u << (rng() % 8)));
    EXPECT_FALSE(DecodeSnapshot(flipped, &out, &error))
        << "bit flip at " << pos << " decoded";

    // Appended garbage after a valid image.
    std::string padded = image;
    padded.append(1 + rng() % 16, static_cast<char>(rng()));
    EXPECT_FALSE(DecodeSnapshot(padded, &out, &error));

    // Version skew with a recomputed (valid) CRC: only the version check can
    // reject it, and it must.
    std::string skewed = image;
    skewed[4] = static_cast<char>(skewed[4] + 1 + rng() % 16);
    const uint32_t crc =
        Crc32(std::string_view(skewed.data(), skewed.size() - 4));
    for (int i = 0; i < 4; ++i) {
      skewed[skewed.size() - 4 + static_cast<size_t>(i)] =
          static_cast<char>((crc >> (8 * i)) & 0xFF);
    }
    EXPECT_FALSE(DecodeSnapshot(skewed, &out, &error));
    EXPECT_NE(error.find("version"), std::string::npos) << error;
  }

  // Pure garbage of assorted lengths must also bounce off the loader.
  for (int trial = 0; trial < 256; ++trial) {
    std::string junk(rng() % 512, '\0');
    for (char& c : junk) {
      c = static_cast<char>(rng());
    }
    SnapshotBlob out;
    EXPECT_FALSE(DecodeSnapshot(junk, &out, nullptr));
  }
}

// A SnapshotStore facing a corrupted newest slot must quarantine it and fall
// back to the older valid snapshot — fuzzing the damage location this time.
TEST(Fuzz, SnapshotStoreFallsBackFromFuzzedSlotDamage) {
  std::mt19937_64 rng(4242);
  for (int trial = 0; trial < 16; ++trial) {
    const std::string dir = ::testing::TempDir() + "memtis_fuzz_snapstore";
    std::string cmd = "rm -rf '" + dir + "' && mkdir -p '" + dir + "'";
    ASSERT_EQ(std::system(cmd.c_str()), 0);
    const std::string base = dir + "/cell.ckpt";

    SnapshotStore store(base);
    std::string error;
    ASSERT_TRUE(store.Write("fp", 0, "older-good", &error)) << error;
    ASSERT_TRUE(store.Write("fp", 0, "newer-good", &error)) << error;

    // Find the slot holding the newest snapshot and damage a random byte (or
    // tear it at a random offset — alternate per trial).
    bool damaged = false;
    for (int slot = 0; slot < 2 && !damaged; ++slot) {
      const std::string path = SnapshotStore::SlotPath(base, slot);
      std::ifstream in(path, std::ios::binary);
      if (!in.is_open()) continue;
      std::string image((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
      SnapshotBlob blob;
      if (!DecodeSnapshot(image, &blob, nullptr) ||
          blob.payload != "newer-good") {
        continue;
      }
      if (trial % 2 == 0) {
        image[rng() % image.size()] ^= static_cast<char>(1u << (rng() % 8));
      } else {
        image.resize(rng() % image.size());  // torn write
      }
      std::ofstream(path, std::ios::binary | std::ios::trunc)
          .write(image.data(), static_cast<long>(image.size()));
      damaged = true;
    }
    ASSERT_TRUE(damaged) << "newest slot not found";

    SnapshotStore reader(base);
    SnapshotBlob fallback;
    ASSERT_TRUE(reader.LoadNewest("fp", 0, &fallback)) << "trial " << trial;
    EXPECT_EQ(fallback.payload, "older-good");
  }
}

// The payload loader behind the envelope. A CRC proves a file was written
// whole, not that it was written by this build's writer: whatever payload it
// holds, RestoreFromPayload must refuse a torn one and never crash on a
// corrupted one. Real payloads, from cells that exercise every section:
// the storm preset, the auditor and 1 ms epochs.
struct PayloadCell {
  std::unique_ptr<Workload> workload;
  std::unique_ptr<TieringPolicy> policy;
  std::unique_ptr<AuditSession> audit;
  std::unique_ptr<Engine> engine;

  explicit PayloadCell(const std::string& system)
      : workload(MakeWorkload("btree", 0.05)) {
    const uint64_t footprint = workload->footprint_bytes();
    policy = MakePolicy(system, footprint, footprint / 9);
    EngineOptions opts;
    opts.max_accesses = 60'000;
    std::string error;
    EXPECT_TRUE(FaultPlan::Parse("storm", &opts.faults, &error)) << error;
    AuditSessionOptions audit_opts;
    audit_opts.epochs.interval_ns = 1'000'000;
    audit = std::make_unique<AuditSession>(audit_opts);
    opts.audit = audit.get();
    engine = std::make_unique<Engine>(MachineFor(*workload, 1.0 / 9.0),
                                      *policy, opts);
  }

  bool Restore(const std::string& payload) {
    return RestoreFromPayload(payload, *engine, *policy, *workload, audit.get());
  }
};

// The cell's last mid-run snapshot payload.
std::string MidRunPayload(const std::string& system) {
  PayloadCell cell(system);
  std::string payload;
  cell.engine->EnableCheckpoints(200'000, [&] {
    payload = BuildSnapshotPayload(*cell.engine, *cell.policy, *cell.workload,
                                   cell.audit.get());
  });
  cell.engine->Run(*cell.workload);
  return payload;
}

TEST(Fuzz, SnapshotPayloadPrefixesAreRefused) {
  std::mt19937_64 rng(20261020);
  for (const std::string system : {"memtis", "hemem"}) {
    const std::string payload = MidRunPayload(system);
    ASSERT_GT(payload.size(), 1000u) << system;
    ASSERT_TRUE(PayloadCell(system).Restore(payload)) << system;
    std::vector<size_t> cuts = {0, 1, payload.size() / 2, payload.size() - 1};
    for (int i = 0; i < 40; ++i) {
      cuts.push_back(rng() % payload.size());
    }
    for (const size_t cut : cuts) {
      EXPECT_FALSE(PayloadCell(system).Restore(payload.substr(0, cut)))
          << system << ": prefix " << cut << "/" << payload.size();
    }
  }
}

// The payload with the btree base moved by 2^40: CRC-valid bytes naming a
// region the restored memory system does not hold.
std::string MoveBtreeBase(std::string payload) {
  // StateWriter::Section's marker for "BTRE", little-endian; the base follows.
  const uint32_t marker = 0x53454331u ^ 0x42545245u;
  const std::string tag(reinterpret_cast<const char*>(&marker), 4);
  const size_t at = payload.find(tag);
  EXPECT_NE(at, std::string::npos);
  EXPECT_EQ(payload.find(tag, at + 1), std::string::npos) << "ambiguous tag";
  uint64_t base = 0;
  std::memcpy(&base, payload.data() + at + 4, 8);
  base += uint64_t{1} << 40;
  std::memcpy(payload.data() + at + 4, &base, 8);
  return payload;
}

// Runs an accepted restore to its end in a forked child (so a SIM_CHECK
// downs only the child); true when the child exits cleanly.
bool RunsToEndInChild(PayloadCell& cell) {
  const pid_t pid = fork();
  if (pid == 0) {
    alarm(60);  // a runaway run fails the trial instead of wedging the test
    cell.engine->Run(*cell.workload);
    _exit(0);
  }
  int status = -1;
  while (pid > 0 && waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  return pid > 0 && WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

TEST(Fuzz, SnapshotPayloadMutationsNeverCrash) {
  std::mt19937_64 rng(20261021);
  for (const std::string system : {"memtis", "hemem"}) {
    const std::string payload = MidRunPayload(system);
    EXPECT_FALSE(PayloadCell(system).Restore(MoveBtreeBase(payload))) << system;
    int refused = 0;
    for (int trial = 0; trial < 256; ++trial) {
      std::string mutated = payload;
      const size_t pos = rng() % mutated.size();
      mutated[pos] = static_cast<char>(mutated[pos] ^ (1 + rng() % 255));
      // Either outcome is fine, but an accepted payload must then run.
      PayloadCell cell(system);
      if (!cell.Restore(mutated)) {
        ++refused;
        continue;
      }
      EXPECT_TRUE(RunsToEndInChild(cell))
          << system << " trial " << trial << ": byte " << pos;
    }
    // Section tags, counts, checks and trailing bytes catch some of them.
    EXPECT_GT(refused, 0) << system;
  }
}

INSTANTIATE_TEST_SUITE_P(Benchmarks, HistogramAuditTest,
                         ::testing::Values("silo", "btree", "pagerank",
                                           "603.bwaves", "xsbench"));

}  // namespace
}  // namespace memtis

// The checkpoint plane's acceptance tests: a run killed at any tick and
// restored from its snapshot must finish with byte-identical metrics, audit
// document, and sink bytes — uninterrupted or SIGKILLed, fault-free or under
// the storm preset, plain or audited, supervised-local or distributed across
// four workers. Plus unit coverage of the serializer, the CRC-guarded
// snapshot envelope, and the SnapshotStore's rotation/quarantine behaviour.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <string>
#include <sys/stat.h>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/json.h"
#include "src/common/status.h"
#include "src/memtis/policy_registry.h"
#include "src/runner/checkpoint_runner.h"
#include "src/runner/coordinator.h"
#include "src/runner/job_codec.h"
#include "src/runner/result_sink.h"
#include "src/runner/supervisor.h"
#include "src/runner/sweep.h"
#include "src/runner/work_queue.h"
#include "src/runner/worker.h"
#include "src/snapshot/serializer.h"
#include "src/snapshot/snapshot_file.h"
#include "src/workloads/registry.h"
#include "tests/socket_campaign.h"

namespace memtis {
namespace {

class ScopedEnv {
 public:
  ScopedEnv(const char* name, const std::string& value) : name_(name) {
    setenv(name, value.c_str(), 1);
  }
  ~ScopedEnv() { unsetenv(name_); }

 private:
  const char* name_;
};

std::string TempDirFor(const std::string& name) {
  const std::string dir = ::testing::TempDir() + name;
  std::string cmd = "rm -rf '" + dir + "'";
  std::system(cmd.c_str());
  mkdir(dir.c_str(), 0777);
  return dir;
}

// The acceptance bytes of one cell: the complete lossless JobResult JSON
// (metrics + audit report + epochs), exactly what every sink serializes.
std::string ResultBytes(const JobResult& result) {
  std::string out;
  JsonWriter w(&out, 0);
  WriteJobResultJson(w, result);
  return out;
}

JobSpec CheckpointableSpec(const std::string& system, uint64_t engine_seed,
                           const std::string& faults = "",
                           bool audit = false) {
  JobSpec spec;
  spec.system = system;
  spec.benchmark = "btree";
  spec.accesses = 30'000;
  spec.engine_seed = engine_seed;
  spec.faults = faults;
  spec.audit = audit;
  if (audit) {
    spec.audit_epoch_interval_ns = 500'000;
  }
  return spec;
}

// Snapshot cadence dense enough that a 30k-access run writes several
// snapshots, so "kill after the Nth" lands mid-run, not at the end.
constexpr uint64_t kIntervalNs = 200'000;

// The kill-anywhere tables, built from the registries so that a policy or
// workload registered later is covered without editing a list: every policy
// on btree, and memtis on every paper workload.
std::vector<JobSpec> EveryRegisteredCell(uint64_t engine_seed) {
  std::vector<JobSpec> cells;
  for (const std::string& system : KnownPolicyNames()) {
    cells.push_back(CheckpointableSpec(system, engine_seed));
  }
  for (const std::string& benchmark : StandardBenchmarks()) {
    JobSpec spec = CheckpointableSpec("memtis", engine_seed);
    spec.benchmark = benchmark;
    if (benchmark == "603.bwaves") {
      // Past its 60k-access churn_interval: later snapshots hold a buffer
      // that was freed and allocated again.
      spec.accesses = 90'000;
    }
    cells.push_back(spec);
  }
  return cells;
}

std::string CellName(const JobSpec& spec) {
  return spec.system + "/" + spec.benchmark + " seed " +
         std::to_string(spec.engine_seed);
}

// ---------------------------------------------------------------------------
// Serializer.

TEST(Serializer, RoundTripsEveryType) {
  StateWriter w;
  w.Section(0x54455354);
  w.U8(0xAB);
  w.Bool(true);
  w.Bool(false);
  w.U32(0xDEADBEEFu);
  w.U64(0x0123456789ABCDEFull);
  w.I64(-42);
  w.F64(3.141592653589793);
  w.F64(-0.0);
  w.Str("");
  w.Str(std::string("binary\0safe", 11));

  StateReader r(w.data());
  r.Section(0x54455354);
  EXPECT_EQ(r.U8(), 0xAB);
  EXPECT_TRUE(r.Bool());
  EXPECT_FALSE(r.Bool());
  EXPECT_EQ(r.U32(), 0xDEADBEEFu);
  EXPECT_EQ(r.U64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.I64(), -42);
  EXPECT_EQ(r.F64(), 3.141592653589793);
  const double neg_zero = r.F64();
  EXPECT_EQ(neg_zero, 0.0);
  EXPECT_TRUE(std::signbit(neg_zero));  // bit pattern, not value, restored
  EXPECT_EQ(r.Str(), "");
  EXPECT_EQ(r.Str(), std::string("binary\0safe", 11));
  EXPECT_TRUE(r.Done());
}

TEST(Serializer, SectionMismatchLatchesError) {
  StateWriter w;
  w.Section(0x41414141);
  w.U64(7);
  StateReader r(w.data());
  r.Section(0x42424242);  // wrong tag: layout skew
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.U64(), 0u);  // reads after the latch return zero values
  EXPECT_FALSE(r.Done());
}

TEST(Serializer, TrailingGarbageRejected) {
  StateWriter w;
  w.U32(1);
  std::string data = w.Take();
  data.push_back('\x00');
  StateReader r(data);
  EXPECT_EQ(r.U32(), 1u);
  EXPECT_TRUE(r.ok());
  EXPECT_FALSE(r.Done());  // one unread byte = writer/reader disagree
}

TEST(Serializer, TruncatedStringLatchesError) {
  StateWriter w;
  w.Str("hello");
  std::string data = w.Take();
  data.resize(data.size() - 2);  // torn tail inside the string body
  StateReader r(data);
  EXPECT_EQ(r.Str(), "");
  EXPECT_FALSE(r.ok());
}

TEST(Serializer, ZeroLengthBytesAcceptNullBuffers) {
  // An empty vector's data() may be null on either side of a zero-length
  // region; memcpy must never see it.
  StateWriter w;
  w.U32(7);
  w.Bytes(nullptr, 0);
  w.U32(9);
  StateReader r(w.data());
  EXPECT_EQ(r.U32(), 7u);
  EXPECT_TRUE(r.Bytes(nullptr, 0));
  EXPECT_EQ(r.U32(), 9u);
  EXPECT_TRUE(r.Done());
  StateReader latched("");
  EXPECT_EQ(latched.U32(), 0u);
  EXPECT_FALSE(latched.Bytes(nullptr, 0));  // a latched reader still fails
}

// Bitwise CRC-32 (reflected 0xEDB88320) over one byte of the running state
// (the complemented CRC): the definition Crc32's tables are derived from.
uint32_t ReferenceCrcStep(uint32_t state, uint8_t byte) {
  state ^= byte;
  for (int k = 0; k < 8; ++k) {
    state = (state & 1) ? 0xEDB88320u ^ (state >> 1) : state >> 1;
  }
  return state;
}

TEST(Serializer, Crc32MatchesTheStandardCheckValue) {
  EXPECT_EQ(Crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(Crc32(""), 0u);
  EXPECT_EQ(Crc32("The quick brown fox jumps over the lazy dog"), 0x414FA339u);
  // Chaining: a CRC seeded with a prefix's CRC is the CRC of the whole.
  EXPECT_EQ(Crc32(std::string_view("56789"), Crc32("1234")), 0xCBF43926u);
}

TEST(Serializer, Crc32SliceBy8MatchesTheByteLoop) {
  constexpr size_t kMaxLen = 4096;
  constexpr size_t kOffsets = 16;
  std::vector<uint8_t> buf(kMaxLen + kOffsets);
  uint64_t x = 0x9E3779B97F4A7C15ULL;
  for (uint8_t& b : buf) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    b = static_cast<uint8_t>(x);
  }
  // Every alignment of the 8-byte steps and every tail length, from zero and
  // from nonzero seed CRCs. The reference runs incrementally over lengths.
  for (uint32_t seed : {0u, 0xFFFFFFFFu, 0xCBF43926u, 0x12345678u}) {
    for (size_t offset = 0; offset < kOffsets; ++offset) {
      const uint8_t* data = buf.data() + offset;
      uint32_t state = ~seed;
      for (size_t len = 0; len <= kMaxLen; ++len) {
        ASSERT_EQ(Crc32(data, len, seed), ~state)
            << "offset " << offset << ", length " << len << ", seed " << seed;
        if (len < kMaxLen) {
          state = ReferenceCrcStep(state, data[len]);
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Snapshot envelope + store.

SnapshotBlob TestBlob(uint64_t sequence = 1, uint32_t attempt = 0) {
  SnapshotBlob blob;
  blob.fingerprint = "0123456789abcdef";
  blob.attempt = attempt;
  blob.sequence = sequence;
  blob.payload = std::string(1000, '\x5A') + "payload";
  return blob;
}

TEST(SnapshotFile, EncodeDecodeRoundTrip) {
  const SnapshotBlob blob = TestBlob();
  const std::string image = EncodeSnapshot(blob);
  SnapshotBlob out;
  std::string error;
  ASSERT_TRUE(DecodeSnapshot(image, &out, &error)) << error;
  EXPECT_EQ(out.fingerprint, blob.fingerprint);
  EXPECT_EQ(out.attempt, blob.attempt);
  EXPECT_EQ(out.sequence, blob.sequence);
  EXPECT_EQ(out.payload, blob.payload);
}

TEST(SnapshotFile, RejectsEveryCorruptionClass) {
  const std::string image = EncodeSnapshot(TestBlob());
  SnapshotBlob out;
  std::string error;

  // Bad magic.
  std::string bad = image;
  bad[0] = 'X';
  EXPECT_FALSE(DecodeSnapshot(bad, &out, &error));

  // Version skew with a VALID checksum — a snapshot written by a future
  // build, not random damage. Bump the version field (bytes 4..7,
  // little-endian) and recompute the trailing CRC so only the version check
  // can reject it.
  const auto with_version = [&](uint32_t version) {
    std::string skewed = image;
    for (int i = 0; i < 4; ++i) {
      skewed[4 + static_cast<size_t>(i)] =
          static_cast<char>((version >> (8 * i)) & 0xFF);
    }
    const uint32_t crc =
        Crc32(std::string_view(skewed.data(), skewed.size() - 4));
    for (int i = 0; i < 4; ++i) {
      skewed[skewed.size() - 4 + static_cast<size_t>(i)] =
          static_cast<char>((crc >> (8 * i)) & 0xFF);
    }
    return skewed;
  };
  EXPECT_FALSE(DecodeSnapshot(with_version(kSnapshotVersion + 1), &out, &error));
  EXPECT_NE(error.find("version"), std::string::npos) << error;
  // A file of the previous layout (version 2 embedded JSON strings) is
  // rejected the same way: there is no in-place migration.
  ASSERT_EQ(kSnapshotVersion, 3u);
  error.clear();
  EXPECT_FALSE(DecodeSnapshot(with_version(2), &out, &error));
  EXPECT_NE(error.find("version skew"), std::string::npos) << error;

  // Torn tail: every strict prefix must be rejected (sampled for speed).
  for (size_t len = 0; len < image.size(); len += 97) {
    EXPECT_FALSE(DecodeSnapshot(image.substr(0, len), &out, &error))
        << "prefix of length " << len << " decoded";
  }
  EXPECT_FALSE(DecodeSnapshot(image.substr(0, image.size() - 1), &out, &error));

  // Single bit flips anywhere must be caught by the CRC (sampled).
  for (size_t pos = 0; pos < image.size(); pos += 13) {
    bad = image;
    bad[pos] = static_cast<char>(bad[pos] ^ 0x10);
    EXPECT_FALSE(DecodeSnapshot(bad, &out, &error))
        << "bit flip at byte " << pos << " decoded";
  }

  // Appended garbage.
  EXPECT_FALSE(DecodeSnapshot(image + "trailing", &out, &error));
}

TEST(SnapshotStore, RotatesSlotsAndLoadsNewest) {
  const std::string dir = TempDirFor("snap_store");
  SnapshotStore store(dir + "/cell.ckpt");
  std::string error;
  ASSERT_TRUE(store.Write("fp", 0, "state-1", &error)) << error;
  ASSERT_TRUE(store.Write("fp", 0, "state-2", &error)) << error;
  ASSERT_TRUE(store.Write("fp", 0, "state-3", &error)) << error;

  SnapshotBlob blob;
  ASSERT_TRUE(store.LoadNewest("fp", 0, &blob));
  EXPECT_EQ(blob.payload, "state-3");

  // Stale identity: other fingerprint or attempt is skipped, not quarantined.
  EXPECT_FALSE(store.LoadNewest("other", 0, &blob));
  EXPECT_FALSE(store.LoadNewest("fp", 1, &blob));
  ASSERT_TRUE(store.LoadNewest("fp", 0, &blob));  // still intact

  // A fresh store on the same base continues the sequence past a restart.
  SnapshotStore reopened(dir + "/cell.ckpt");
  ASSERT_TRUE(reopened.Write("fp", 0, "state-4", &error)) << error;
  ASSERT_TRUE(reopened.LoadNewest("fp", 0, &blob));
  EXPECT_EQ(blob.payload, "state-4");
}

// Decodes one slot file; an absent or undecodable slot yields no blob.
std::optional<SnapshotBlob> ReadSlot(const std::string& base, int slot) {
  std::ifstream in(SnapshotStore::SlotPath(base, slot), std::ios::binary);
  if (!in.is_open()) {
    return std::nullopt;
  }
  const std::string image((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  SnapshotBlob blob;
  if (!DecodeSnapshot(image, &blob, nullptr)) {
    return std::nullopt;
  }
  return blob;
}

void FlipMiddleByte(const std::string& path) {
  std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
  f.seekg(0, std::ios::end);
  const std::streamoff middle = f.tellg() / 2;
  f.seekg(middle);
  char c = 0;
  f.read(&c, 1);
  c = static_cast<char>(c ^ 0x40);
  f.seekp(middle);
  f.write(&c, 1);
}

TEST(SnapshotStore, WriteAfterLoadNewestRotatesLikeAFreshProbe) {
  // One slot holds a corrupt snapshot, the other a valid but stale one (other
  // fingerprint) with a higher sequence. LoadNewest quarantines the first and
  // skips the second; the Write that follows must pick the slot and sequence
  // a fresh store (which scans the slots itself) picks in a twin directory.
  for (int corrupt_slot = 0; corrupt_slot < 2; ++corrupt_slot) {
    SCOPED_TRACE("corrupt slot " + std::to_string(corrupt_slot));
    std::string bases[2];
    for (int twin = 0; twin < 2; ++twin) {
      bases[twin] = TempDirFor("snap_scan_" + std::to_string(corrupt_slot) +
                               "_" + std::to_string(twin)) +
                    "/cell.ckpt";
      SnapshotStore writer(bases[twin]);
      std::string error;
      // Slots fill 0, 1, 0, ...: the corrupt slot's snapshot is written
      // first, the stale one last.
      if (corrupt_slot == 1) {
        ASSERT_TRUE(writer.Write("fp", 0, "oldest", &error)) << error;
      }
      ASSERT_TRUE(writer.Write("fp", 0, "to-corrupt", &error)) << error;
      ASSERT_TRUE(writer.Write("other", 0, "stale", &error)) << error;
      FlipMiddleByte(SnapshotStore::SlotPath(bases[twin], corrupt_slot));
    }
    const int stale_slot = corrupt_slot ^ 1;
    const uint64_t stale_seq = corrupt_slot == 1 ? 3 : 2;
    ASSERT_EQ(ReadSlot(bases[0], stale_slot).value().sequence, stale_seq);

    SnapshotStore loader(bases[0]);
    SnapshotBlob blob;
    std::string why;
    EXPECT_FALSE(loader.LoadNewest("fp", 0, &blob, &why));
    EXPECT_NE(why.find("quarantined"), std::string::npos) << why;
    EXPECT_NE(why.find("stale"), std::string::npos) << why;
    std::string error;
    ASSERT_TRUE(loader.Write("fp", 0, "resumed", &error)) << error;

    SnapshotStore fresh(bases[1]);
    ASSERT_TRUE(fresh.Write("fp", 0, "resumed", &error)) << error;

    for (const std::string& base : bases) {
      const std::optional<SnapshotBlob> written = ReadSlot(base, corrupt_slot);
      ASSERT_TRUE(written.has_value()) << base;
      EXPECT_EQ(written->payload, "resumed");
      EXPECT_EQ(written->sequence, stale_seq + 1);
      EXPECT_EQ(ReadSlot(base, stale_slot).value().payload, "stale") << base;
    }
    struct stat st;
    EXPECT_EQ(::stat((SnapshotStore::SlotPath(bases[0], corrupt_slot) +
                      ".corrupt").c_str(), &st), 0)
        << "corrupt slot was not quarantined";
  }
}

TEST(SnapshotStore, QuarantinesCorruptSlotAndFallsBack) {
  const std::string dir = TempDirFor("snap_quarantine");
  SnapshotStore store(dir + "/cell.ckpt");
  std::string error;
  ASSERT_TRUE(store.Write("fp", 0, "older", &error)) << error;
  ASSERT_TRUE(store.Write("fp", 0, "newer", &error)) << error;

  // Flip a byte in whichever slot holds "newer".
  SnapshotBlob probe;
  ASSERT_TRUE(store.LoadNewest("fp", 0, &probe));
  ASSERT_EQ(probe.payload, "newer");
  for (int slot = 0; slot < 2; ++slot) {
    const std::string path = SnapshotStore::SlotPath(dir + "/cell.ckpt", slot);
    std::ifstream in(path, std::ios::binary);
    if (!in.is_open()) {
      continue;
    }
    std::string image((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    SnapshotBlob blob;
    if (DecodeSnapshot(image, &blob, nullptr) && blob.payload == "newer") {
      image[image.size() / 2] ^= 0x40;
      std::ofstream(path, std::ios::binary).write(image.data(),
                                                  static_cast<long>(image.size()));
      // The corrupt slot is quarantined, the older snapshot still loads.
      SnapshotStore reader(dir + "/cell.ckpt");
      SnapshotBlob fallback;
      ASSERT_TRUE(reader.LoadNewest("fp", 0, &fallback));
      EXPECT_EQ(fallback.payload, "older");
      struct stat st;
      EXPECT_EQ(::stat((path + ".corrupt").c_str(), &st), 0)
          << "corrupt slot was not quarantined";
      return;
    }
  }
  FAIL() << "no slot held the newest snapshot";
}

// ---------------------------------------------------------------------------
// Checkpointed execution: in-process differentials.

TEST(Checkpoint, UninterruptedRunIsByteIdenticalToPlain) {
  for (const uint64_t seed : {42ull, 1337ull}) {
    for (const JobSpec& spec : EveryRegisteredCell(seed)) {
      const std::string reference = ResultBytes(RunJob(spec));

      const std::string dir = TempDirFor("ck_plain");
      CheckpointContext ctx;
      ctx.interval_ns = kIntervalNs;
      ctx.snapshot_base = dir + "/cell.ckpt";
      ctx.fingerprint = JobFingerprint(spec);
      bool resumed = true;
      ctx.resumed = &resumed;
      EXPECT_EQ(ResultBytes(RunJobCheckpointed(spec, ctx)), reference)
          << CellName(spec);
      EXPECT_FALSE(resumed);

      // Snapshots were actually written at this cadence.
      SnapshotStore store(ctx.snapshot_base);
      SnapshotBlob blob;
      EXPECT_TRUE(store.LoadNewest(ctx.fingerprint, 0, &blob)) << CellName(spec);
    }
  }
}

// The in-process resume differential over every registered policy and
// workload: a second invocation restores the first one's newest snapshot
// and replays only the tail, and the result must not change by a byte.
TEST(Checkpoint, EveryRegisteredCellResumesByteIdentical) {
  for (const JobSpec& spec : EveryRegisteredCell(42)) {
    const std::string reference = ResultBytes(RunJob(spec));
    CheckpointContext ctx;
    ctx.interval_ns = kIntervalNs;
    ctx.snapshot_base = TempDirFor("ck_every") + "/cell.ckpt";
    ctx.fingerprint = JobFingerprint(spec);
    ASSERT_EQ(ResultBytes(RunJobCheckpointed(spec, ctx)), reference)
        << CellName(spec);
    bool resumed = false;
    ctx.resumed = &resumed;
    EXPECT_EQ(ResultBytes(RunJobCheckpointed(spec, ctx)), reference)
        << CellName(spec);
    EXPECT_TRUE(resumed) << CellName(spec);
  }
}

TEST(Checkpoint, ResumeFromMidRunSnapshotIsByteIdentical) {
  // Audited + storm: the hardest state to restore (histograms, fault
  // cursors, audit counters, epoch ring all live).
  const JobSpec spec =
      CheckpointableSpec("memtis", 42, "storm", /*audit=*/true);
  const std::string reference = ResultBytes(RunJob(spec));

  const std::string dir = TempDirFor("ck_resume");
  CheckpointContext ctx;
  ctx.interval_ns = kIntervalNs;
  ctx.snapshot_base = dir + "/cell.ckpt";
  ctx.fingerprint = JobFingerprint(spec);
  ASSERT_EQ(ResultBytes(RunJobCheckpointed(spec, ctx)), reference);

  // Second invocation restores from the newest snapshot (mid-to-late run)
  // and replays only the tail — the result must not change by a byte.
  bool resumed = false;
  ctx.resumed = &resumed;
  EXPECT_EQ(ResultBytes(RunJobCheckpointed(spec, ctx)), reference);
  EXPECT_TRUE(resumed);
}

TEST(Checkpoint, StaleAttemptSnapshotIsIgnored) {
  const JobSpec spec = CheckpointableSpec("autotiering", 42);
  const std::string dir = TempDirFor("ck_stale");
  CheckpointContext ctx;
  ctx.interval_ns = kIntervalNs;
  ctx.snapshot_base = dir + "/cell.ckpt";
  ctx.fingerprint = JobFingerprint(spec);
  ctx.attempt = 0;
  RunJobCheckpointed(spec, ctx);

  // Attempt 1 (different derived seed) must not resume attempt 0's state.
  JobSpec retry = spec;
  retry.engine_seed = AttemptEngineSeed(spec.engine_seed, 1);
  CheckpointContext retry_ctx = ctx;
  retry_ctx.attempt = 1;
  bool resumed = true;
  retry_ctx.resumed = &resumed;
  EXPECT_EQ(ResultBytes(RunJobCheckpointed(retry, retry_ctx)),
            ResultBytes(RunJob(retry)));
  EXPECT_FALSE(resumed);
}

// Only facts about the spec itself refuse; every policy and workload can.
TEST(Checkpoint, UnsupportedSpecsRefuseWithReason) {
  std::string why;
  JobSpec spec = CheckpointableSpec("memtis", 42);
  spec.benchmark = "stream";
  spec.shards = 4;
  EXPECT_FALSE(CheckpointSupported(spec, &why));
  EXPECT_NE(why.find("shards"), std::string::npos) << why;

  spec = CheckpointableSpec("memtis", 42);
  spec.memtis_tweak = [](MemtisConfig c) { return c; };
  EXPECT_FALSE(CheckpointSupported(spec, &why));
  EXPECT_NE(why.find("memtis_tweak"), std::string::npos) << why;

  EXPECT_TRUE(CheckpointSupported(CheckpointableSpec("memtis", 42)));
  EXPECT_TRUE(CheckpointSupported(CheckpointableSpec("all-fast", 42)));
  EXPECT_TRUE(CheckpointSupported(CheckpointableSpec("nimble", 42)));
  spec = CheckpointableSpec("memtis", 42);
  spec.benchmark = "pagerank";
  EXPECT_TRUE(CheckpointSupported(spec));
}

TEST(Checkpoint, SupervisedRefusalIsStructuredInvalidSpec) {
  SupervisorOptions sup;
  sup.checkpoint_ns = kIntervalNs;
  sup.checkpoint_dir = TempDirFor("ck_refuse");
  JobSpec sharded = CheckpointableSpec("memtis", 42);
  sharded.benchmark = "stream";
  sharded.shards = 4;
  const SupervisedOutcome outcome = RunJobSupervised(sharded, 0, sup);
  EXPECT_FALSE(outcome.ok);
  EXPECT_EQ(outcome.failure.kind, FailureKind::kInvalidSpec);
  EXPECT_NE(outcome.failure.message.find("checkpoint"), std::string::npos)
      << outcome.failure.message;
}

// ---------------------------------------------------------------------------
// The kill-anywhere differential, supervised local: a child SIGKILLed after
// its Nth snapshot resumes the SAME attempt and finishes byte-identical to an
// uninterrupted run — across policies, seeds, kill points, fault storms, and
// auditing.

TEST(Checkpoint, KilledChildResumesByteIdentical) {
  for (const uint64_t seed : {42ull, 1337ull}) {
    for (const JobSpec& spec : EveryRegisteredCell(seed)) {
      const std::string reference = ResultBytes(RunJob(spec));
      for (const char* kill_after : {"1", "2"}) {
        SupervisorOptions sup;
        sup.checkpoint_ns = kIntervalNs;
        sup.checkpoint_dir = TempDirFor("ck_kill");
        ScopedEnv kill("MEMTIS_KILL_AFTER_CHECKPOINTS", kill_after);
        const SupervisedOutcome outcome = RunJobSupervised(spec, 0, sup);
        ASSERT_TRUE(outcome.ok) << CellName(spec) << " kill@" << kill_after
                                << ": " << outcome.failure.message;
        EXPECT_EQ(outcome.attempts, 1);  // resumed, not retried
        EXPECT_EQ(ResultBytes(outcome.result), reference)
            << CellName(spec) << " kill@" << kill_after;
      }
    }
  }
}

TEST(Checkpoint, KilledChildResumesUnderStormAndAudit) {
  for (const std::string system : {"memtis", "hemem"}) {
    const JobSpec spec = CheckpointableSpec(system, 42, "storm", /*audit=*/true);
    const std::string reference = ResultBytes(RunJob(spec));
    SupervisorOptions sup;
    sup.checkpoint_ns = kIntervalNs;
    sup.checkpoint_dir = TempDirFor("ck_storm_" + system);
    ScopedEnv kill("MEMTIS_KILL_AFTER_CHECKPOINTS", "1");
    const SupervisedOutcome outcome = RunJobSupervised(spec, 0, sup);
    ASSERT_TRUE(outcome.ok) << outcome.failure.message;
    // The full audit document and epoch telemetry ride in ResultBytes.
    EXPECT_EQ(ResultBytes(outcome.result), reference) << system;
  }
}

// ---------------------------------------------------------------------------
// The kill-anywhere differential, distributed: a 4-worker socket campaign
// where every child self-SIGKILLs after its first snapshot AND one worker
// soft-dies while holding a lease (re-issued to a peer, which resumes from
// the shared snapshot directory) must merge to the single-host bytes.

TEST(Checkpoint, FourWorkerCampaignWithKillsIsByteIdentical) {
  SweepSpec sweep;
  sweep.systems = {"memtis", "autotiering"};
  sweep.benchmarks = {"btree"};
  sweep.accesses = 30'000;
  sweep.seeds = 2;
  const std::vector<JobSpec> jobs = ExpandJobs(sweep);

  const std::vector<CellOutcome> reference =
      RunJobsResilient(jobs, CampaignOptions{}, 2);

  const std::string ckpt_dir = TempDirFor("ck_dist");
  CampaignOptions options;
  options.checkpoint_ns = kIntervalNs;
  options.lease_timeout_ms = 4'000;

  std::vector<WorkerOptions> workers(4);
  for (int i = 0; i < 4; ++i) {
    workers[i].name = "ck" + std::to_string(i);
    workers[i].checkpoint_dir = ckpt_dir;  // shared: peers resume each other
  }
  workers[0].kill_after_cells = 1;  // soft-die holding the second lease
  ScopedEnv kill("MEMTIS_KILL_AFTER_CHECKPOINTS", "1");
  const SocketCampaignRun run = RunSocketCampaign(jobs, options, workers);
  const std::vector<CellOutcome>& outcomes = run.outcomes;

  ASSERT_TRUE(run.error.empty()) << run.error;
  ASSERT_EQ(outcomes.size(), reference.size());
  for (size_t i = 0; i < outcomes.size(); ++i) {
    ASSERT_TRUE(outcomes[i].ok) << "cell " << i << ": "
                                << outcomes[i].failure.message;
    ASSERT_TRUE(reference[i].ok);
    EXPECT_EQ(ResultBytes(outcomes[i].result), ResultBytes(reference[i].result))
        << "cell " << i;
  }
  // The aggregate sink bytes — what a report consumer actually reads.
  SinkOptions sink;
  sink.indent = 0;
  EXPECT_EQ(SweepToJson(sweep, jobs, outcomes, sink),
            SweepToJson(sweep, jobs, reference, sink));
  EXPECT_EQ(SweepToCsv(jobs, outcomes), SweepToCsv(jobs, reference));
}

}  // namespace
}  // namespace memtis

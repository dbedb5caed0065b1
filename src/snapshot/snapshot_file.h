// CRC-guarded, versioned snapshot files with atomic replacement.
//
// A snapshot file is a single self-validating blob:
//
//   "MTSP" | version u32 | body_len u64 | body | crc32 u32
//
// where body = fingerprint (string) | attempt u32 | sequence u64 |
// payload (string), all in StateWriter encoding. The CRC covers every byte
// before it, so torn tails, truncations, and bit flips are all caught by one
// check; the version field rejects snapshots written by a different layout
// generation before any body parsing happens.
//
// SnapshotStore rotates writes across two slots (<base>.s0 / <base>.s1) with
// a monotonic sequence number. Writes go to the slot *not* holding the
// newest valid snapshot, via temp file + rename, so a kill mid-write can
// only ever lose the snapshot being written — the previous one stays intact.
// Loading picks the valid slot with the highest sequence and quarantines
// invalid slot files to "<slot>.corrupt" instead of deleting them.

#ifndef MEMTIS_SIM_SRC_SNAPSHOT_SNAPSHOT_FILE_H_
#define MEMTIS_SIM_SRC_SNAPSHOT_SNAPSHOT_FILE_H_

#include <array>
#include <cstdint>
#include <string>
#include <string_view>

namespace memtis {

// 3: payloads walk each component's one state list (state_codec.h); metrics,
// the audit report and the epoch ring are binary records, not JSON strings.
inline constexpr uint32_t kSnapshotVersion = 3;

struct SnapshotBlob {
  std::string fingerprint;  // cell identity — must match to restore
  uint32_t attempt = 0;     // supervisor attempt the snapshot belongs to
  uint64_t sequence = 0;    // monotonic per cell; newest wins
  std::string payload;      // opaque serialized simulation state
};

// Serializes the blob into a complete file image (envelope + CRC).
std::string EncodeSnapshot(const SnapshotBlob& blob);

// Validates and parses a file image. Returns false with a reason in *error
// for anything short of a byte-perfect snapshot (bad magic, version skew,
// length mismatch, CRC mismatch, malformed body).
bool DecodeSnapshot(std::string_view image, SnapshotBlob* out,
                    std::string* error);

// Writes `contents` to `path` via a same-directory temp file + fsync +
// rename, so readers observe either the old file or the new one, never a
// torn mix.
bool WriteFileAtomic(const std::string& path, std::string_view contents,
                     std::string* error);

class SnapshotStore {
 public:
  explicit SnapshotStore(std::string base_path);

  const std::string& base_path() const { return base_; }

  // Persists a new snapshot for (fingerprint, attempt). The sequence number
  // is assigned internally; the write lands in the slot not holding the
  // newest valid snapshot (of any identity). Returns false on I/O failure.
  bool Write(const std::string& fingerprint, uint32_t attempt,
             std::string_view payload, std::string* error);

  // Loads the newest valid snapshot matching (fingerprint, attempt).
  // Corrupt slot files are renamed to "<slot>.corrupt"; valid-but-stale
  // snapshots (other fingerprint or attempt) are skipped without quarantine.
  // Returns false when nothing usable exists; *why (optional) says what was
  // found instead. The same scan seeds the next Write's slot and sequence.
  bool LoadNewest(const std::string& fingerprint, uint32_t attempt,
                  SnapshotBlob* out, std::string* why = nullptr);

  // Removes both slot files (clean restart).
  void Clear();

  static std::string SlotPath(const std::string& base, int slot);

 private:
  struct SlotRead {
    bool present = false;  // the slot file exists and could be read
    bool valid = false;    // ... and decoded; else `error` says why not
    std::string error;
    SnapshotBlob blob;
  };
  // Reads and decodes both slots, quarantining undecodable ones when asked,
  // and on the store's first scan seeds next_slot_/next_sequence_ from the
  // newest decodable slot.
  std::array<SlotRead, 2> ReadSlots(bool quarantine);

  std::string base_;
  bool probed_ = false;
  int next_slot_ = 0;
  uint64_t next_sequence_ = 1;
};

}  // namespace memtis

#endif  // MEMTIS_SIM_SRC_SNAPSHOT_SNAPSHOT_FILE_H_

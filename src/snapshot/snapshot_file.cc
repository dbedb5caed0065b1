#include "src/snapshot/snapshot_file.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>

#include "src/snapshot/serializer.h"

namespace memtis {

namespace {

constexpr char kMagic[4] = {'M', 'T', 'S', 'P'};

bool ReadWholeFile(const std::string& path, std::string* out) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return false;
  struct stat st;
  bool ok = ::fstat(fd, &st) == 0;
  if (ok) out->resize(static_cast<size_t>(st.st_size));
  size_t off = 0;
  while (ok && off < out->size()) {
    const ssize_t n = ::read(fd, out->data() + off, out->size() - off);
    if (n < 0 && errno == EINTR) continue;
    ok = n > 0;  // 0 before the end: the file shrank under us
    if (ok) off += static_cast<size_t>(n);
  }
  ::close(fd);
  return ok;
}

void Quarantine(const std::string& path) {
  const std::string corrupt = path + ".corrupt";
  ::unlink(corrupt.c_str());
  ::rename(path.c_str(), corrupt.c_str());
}

// The file image of one snapshot, built in a single buffer sized up front.
std::string EncodeImage(std::string_view fingerprint, uint32_t attempt,
                        uint64_t sequence, std::string_view payload) {
  // Str(fingerprint) | attempt u32 | sequence u64 | Str(payload)
  const uint64_t body_len =
      8 + fingerprint.size() + 4 + 8 + 8 + payload.size();
  StateWriter file;
  file.Reserve(sizeof(kMagic) + 4 + 8 + body_len + 4);
  file.Bytes(kMagic, sizeof(kMagic));
  file.U32(kSnapshotVersion);
  file.U64(body_len);
  file.Str(fingerprint);
  file.U32(attempt);
  file.U64(sequence);
  file.Str(payload);
  file.U32(Crc32(file.data()));
  return file.Take();
}

}  // namespace

std::string EncodeSnapshot(const SnapshotBlob& blob) {
  return EncodeImage(blob.fingerprint, blob.attempt, blob.sequence,
                     blob.payload);
}

bool DecodeSnapshot(std::string_view image, SnapshotBlob* out,
                    std::string* error) {
  const auto fail = [&](const char* why) {
    if (error) *error = why;
    return false;
  };
  // magic + version + body_len + crc is the minimum envelope.
  constexpr size_t kEnvelope = 4 + 4 + 8 + 4;
  if (image.size() < kEnvelope) return fail("truncated envelope");
  const std::string_view before_crc = image.substr(0, image.size() - 4);
  StateReader crc_tail(image.substr(image.size() - 4));
  if (crc_tail.U32() != Crc32(before_crc)) return fail("crc mismatch");

  StateReader r(before_crc);
  char magic[4];
  if (!r.Bytes(magic, sizeof(magic)) ||
      std::memcmp(magic, kMagic, sizeof(kMagic)) != 0)
    return fail("bad magic");
  const uint32_t version = r.U32();
  if (version != kSnapshotVersion) return fail("version skew");
  const uint64_t body_len = r.U64();
  if (body_len != r.remaining()) return fail("body length mismatch");

  SnapshotBlob blob;
  blob.fingerprint = r.Str();
  blob.attempt = r.U32();
  blob.sequence = r.U64();
  blob.payload = r.Str();
  if (!r.Done()) return fail("malformed body");
  *out = std::move(blob);
  return true;
}

bool WriteFileAtomic(const std::string& path, std::string_view contents,
                     std::string* error) {
  const auto fail = [&](const char* what) {
    if (error) *error = std::string(what) + ": " + std::strerror(errno);
    return false;
  };
  const std::string tmp = path + ".tmp";
  int fd = ::open(tmp.c_str(), O_CREAT | O_TRUNC | O_WRONLY, 0644);
  if (fd < 0) return fail("open");
  size_t off = 0;
  while (off < contents.size()) {
    ssize_t n = ::write(fd, contents.data() + off, contents.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      ::unlink(tmp.c_str());
      return fail("write");
    }
    off += static_cast<size_t>(n);
  }
  if (::fsync(fd) != 0) {
    ::close(fd);
    ::unlink(tmp.c_str());
    return fail("fsync");
  }
  ::close(fd);
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    ::unlink(tmp.c_str());
    return fail("rename");
  }
  return true;
}

SnapshotStore::SnapshotStore(std::string base_path)
    : base_(std::move(base_path)) {}

std::string SnapshotStore::SlotPath(const std::string& base, int slot) {
  return base + ".s" + std::to_string(slot);
}

std::array<SnapshotStore::SlotRead, 2> SnapshotStore::ReadSlots(
    bool quarantine) {
  std::array<SlotRead, 2> slots;
  uint64_t best_seq = 0;
  int best_slot = -1;
  for (int slot = 0; slot < 2; ++slot) {
    SlotRead& s = slots[slot];
    const std::string path = SlotPath(base_, slot);
    std::string image;
    s.present = ReadWholeFile(path, &image);
    if (!s.present) continue;
    s.valid = DecodeSnapshot(image, &s.blob, &s.error);
    if (!s.valid) {
      if (quarantine) Quarantine(path);
      continue;
    }
    if (s.blob.sequence > best_seq) {
      best_seq = s.blob.sequence;
      best_slot = slot;
    }
  }
  if (!probed_) {
    probed_ = true;
    next_sequence_ = best_seq + 1;
    // Never overwrite the newest valid snapshot; rotate into the other slot.
    next_slot_ = best_slot == 0 ? 1 : 0;
  }
  return slots;
}

bool SnapshotStore::Write(const std::string& fingerprint, uint32_t attempt,
                          std::string_view payload, std::string* error) {
  if (!probed_) ReadSlots(/*quarantine=*/false);
  if (!WriteFileAtomic(SlotPath(base_, next_slot_),
                       EncodeImage(fingerprint, attempt, next_sequence_, payload),
                       error))
    return false;
  ++next_sequence_;
  next_slot_ ^= 1;
  return true;
}

bool SnapshotStore::LoadNewest(const std::string& fingerprint,
                               uint32_t attempt, SnapshotBlob* out,
                               std::string* why) {
  bool found = false;
  std::string reasons;
  std::array<SlotRead, 2> slots = ReadSlots(/*quarantine=*/true);
  for (int slot = 0; slot < 2; ++slot) {
    SlotRead& s = slots[slot];
    if (!s.present) continue;
    if (!s.valid) {
      reasons += "slot " + std::to_string(slot) + " quarantined (" + s.error +
                 "); ";
      continue;
    }
    if (s.blob.fingerprint != fingerprint || s.blob.attempt != attempt) {
      reasons += "slot " + std::to_string(slot) + " stale; ";
      continue;
    }
    if (!found || s.blob.sequence > out->sequence) {
      *out = std::move(s.blob);
      found = true;
    }
  }
  if (!found && why) *why = reasons.empty() ? "no snapshot" : reasons;
  return found;
}

void SnapshotStore::Clear() {
  for (int slot = 0; slot < 2; ++slot)
    ::unlink(SlotPath(base_, slot).c_str());
  probed_ = false;
  next_slot_ = 0;
  next_sequence_ = 1;
}

}  // namespace memtis

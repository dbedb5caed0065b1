// Binary state serializer for the snapshot plane.
//
// StateWriter/StateReader move simulation state to and from a flat byte
// buffer: little-endian fixed-width integers, doubles as IEEE-754 bit
// patterns (so a restored double is the *same* double, not a near one),
// strings length-prefixed. The reader never throws and never reads past the
// end — any malformed input latches `ok() == false` and every subsequent
// read returns a zero value, so callers validate once at the end.
//
// Header-only on purpose: every layer of the tree (mem, sim, policies,
// workloads, audit) lists its state against these types, through the
// StateCodec of state_codec.h, without growing a new link edge.

#ifndef MEMTIS_SIM_SRC_SNAPSHOT_SERIALIZER_H_
#define MEMTIS_SIM_SRC_SNAPSHOT_SERIALIZER_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

namespace memtis {

// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320), slice-by-8: eight
// 256-entry tables fold eight input bytes per step, t[k][b] being the CRC
// contribution of byte b followed by k zero bytes. Same values as the
// byte-at-a-time loop, which still handles the tail.
inline uint32_t Crc32(const void* data, size_t len, uint32_t crc = 0) {
  using Tables = uint32_t[8][256];
  static const Tables& t = *[] {
    static Tables tables;
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      tables[0][i] = c;
    }
    for (uint32_t i = 0; i < 256; ++i) {
      for (int k = 1; k < 8; ++k) {
        const uint32_t prev = tables[k - 1][i];
        tables[k][i] = tables[0][prev & 0xFF] ^ (prev >> 8);
      }
    }
    return &tables;
  }();
  // Little-endian 32-bit load, whatever the host's byte order.
  const auto le32 = [](const uint8_t* b) {
    return static_cast<uint32_t>(b[0]) | static_cast<uint32_t>(b[1]) << 8 |
           static_cast<uint32_t>(b[2]) << 16 | static_cast<uint32_t>(b[3]) << 24;
  };
  crc = ~crc;
  const auto* p = static_cast<const uint8_t*>(data);
  for (; len >= 8; p += 8, len -= 8) {
    const uint32_t lo = le32(p) ^ crc;
    const uint32_t hi = le32(p + 4);
    crc = t[7][lo & 0xFF] ^ t[6][(lo >> 8) & 0xFF] ^ t[5][(lo >> 16) & 0xFF] ^
          t[4][lo >> 24] ^ t[3][hi & 0xFF] ^ t[2][(hi >> 8) & 0xFF] ^
          t[1][(hi >> 16) & 0xFF] ^ t[0][hi >> 24];
  }
  for (; len > 0; ++p, --len) crc = t[0][(crc ^ *p) & 0xFF] ^ (crc >> 8);
  return ~crc;
}

inline uint32_t Crc32(std::string_view s, uint32_t crc = 0) {
  return Crc32(s.data(), s.size(), crc);
}

class StateWriter {
 public:
  void U8(uint8_t v) { buf_.push_back(static_cast<char>(v)); }
  void Bool(bool v) { U8(v ? 1 : 0); }
  void U16(uint16_t v) { AppendLe(v); }
  void U32(uint32_t v) { AppendLe(v); }
  void U64(uint64_t v) { AppendLe(v); }
  void I64(int64_t v) { AppendLe(static_cast<uint64_t>(v)); }
  void F64(double v) {
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    U64(bits);
  }
  void Str(std::string_view s) {
    U64(s.size());
    buf_.append(s.data(), s.size());
  }
  void Bytes(const void* p, size_t n) {
    buf_.append(static_cast<const char*>(p), n);
  }
  // Section markers let the reader cross-check that writer and reader agree
  // on layout; a mismatch latches the reader's error flag immediately
  // instead of silently misparsing everything after it.
  void Section(uint32_t tag) { U32(0x53454331u ^ tag); }

  void Reserve(size_t n) { buf_.reserve(n); }
  const std::string& data() const { return buf_; }
  std::string Take() { return std::move(buf_); }

 private:
  template <typename T>
  void AppendLe(T v) {
    char raw[sizeof(T)];
    for (size_t i = 0; i < sizeof(T); ++i) {
      raw[i] = static_cast<char>(v & 0xFF);
      v = static_cast<T>(v >> 8);
    }
    buf_.append(raw, sizeof(T));
  }

  std::string buf_;
};

class StateReader {
 public:
  explicit StateReader(std::string_view data) : data_(data) {}

  uint8_t U8() {
    if (!Need(1)) return 0;
    return static_cast<uint8_t>(data_[pos_++]);
  }
  bool Bool() { return U8() != 0; }
  uint16_t U16() { return ReadLe<uint16_t>(); }
  uint32_t U32() { return ReadLe<uint32_t>(); }
  uint64_t U64() { return ReadLe<uint64_t>(); }
  int64_t I64() { return static_cast<int64_t>(U64()); }
  double F64() {
    uint64_t bits = U64();
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }
  std::string Str() {
    uint64_t n = U64();
    if (!ok_ || n > data_.size() - pos_) {
      ok_ = false;
      return {};
    }
    std::string s(data_.substr(pos_, n));
    pos_ += n;
    return s;
  }
  bool Bytes(void* p, size_t n) {
    if (!Need(n)) return false;
    if (n == 0) return true;  // p may be null (an empty vector's data())
    std::memcpy(p, data_.data() + pos_, n);
    pos_ += n;
    return true;
  }
  void Section(uint32_t tag) {
    if (U32() != (0x53454331u ^ tag)) ok_ = false;
  }

  // Marks the stream invalid from caller-side validation (e.g. a count that
  // contradicts the engine's configuration).
  void Fail() { ok_ = false; }

  bool ok() const { return ok_; }
  size_t remaining() const { return data_.size() - pos_; }
  // A fully-consumed, error-free stream. Trailing garbage is rejected too:
  // it means writer and reader disagree on the layout.
  bool Done() const { return ok_ && pos_ == data_.size(); }

 private:
  bool Need(size_t n) {
    if (!ok_ || n > data_.size() - pos_) {
      ok_ = false;
      return false;
    }
    return true;
  }
  template <typename T>
  T ReadLe() {
    if (!Need(sizeof(T))) return 0;
    T v = 0;
    for (size_t i = sizeof(T); i-- > 0;) {
      v = static_cast<T>(v << 8);
      v = static_cast<T>(v | static_cast<uint8_t>(data_[pos_ + i]));
    }
    pos_ += sizeof(T);
    return v;
  }

  std::string_view data_;
  size_t pos_ = 0;
  bool ok_ = true;
};

}  // namespace memtis

#endif  // MEMTIS_SIM_SRC_SNAPSHOT_SERIALIZER_H_

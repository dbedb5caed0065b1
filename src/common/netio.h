// Minimal socket/poll plumbing for the distributed campaign plane
// (src/runner/coordinator.* / work_queue.*): length-prefixed framing over
// TCP, the numeric-IPv4 address form both ends accept, plus the
// monotonic-clock helpers they share.
//
// Framing: every message is a 4-byte big-endian payload length followed by
// the payload bytes. The decoder is incremental (feed arbitrary chunks, pop
// whole frames) and defensive: a length above kMaxFrameBytes poisons the
// stream (`bad()`) instead of allocating attacker-controlled amounts — a
// garbled peer can only ever cost its own connection, never the process
// (tests/fuzz_test.cc pins this).

#ifndef MEMTIS_SIM_SRC_COMMON_NETIO_H_
#define MEMTIS_SIM_SRC_COMMON_NETIO_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace memtis {

uint64_t MonotonicMs();
void SleepMs(uint64_t ms);

// Hard cap on one frame's payload. Large enough for a JobResult with full
// timeline and epoch telemetry, small enough that a hostile length prefix
// cannot balloon memory.
inline constexpr size_t kMaxFrameBytes = 64u * 1024 * 1024;

// 4-byte big-endian length + payload.
std::string EncodeFrame(std::string_view payload);

// Incremental frame reassembly. Once bad() (oversized length), the stream is
// poisoned for good: the owner must drop the connection.
class FrameDecoder {
 public:
  void Feed(const char* data, size_t size);
  // Pops the next complete frame into *frame. Returns false when no complete
  // frame is buffered (or the stream is bad).
  bool Next(std::string* frame);
  bool bad() const { return bad_; }
  size_t buffered_bytes() const { return buffer_.size(); }

 private:
  std::string buffer_;
  bool bad_ = false;
};

// A numeric IPv4 endpoint. Hostnames are never resolved: the campaign plane
// stays free of DNS, and an address means exactly what it says.
struct NetAddress {
  std::string host = "127.0.0.1";
  uint16_t port = 0;
};

// Parses "[HOST:]PORT": PORT alone means 127.0.0.1:PORT, HOST must be a
// numeric IPv4 address, PORT all digits in 0..65535. Anything else is false
// with *error set.
bool ParseNetAddress(const std::string& text, NetAddress* out,
                     std::string* error);

// Listens on `addr` (port 0 = kernel-assigned; *bound_port receives the
// actual port). Returns the listening fd, or -1 with *error set.
int ListenTcp(const NetAddress& addr, uint16_t* bound_port, std::string* error);

// Blocking connect to `addr` (port must be nonzero). Returns the fd, or -1
// with *error set.
int ConnectTcp(const NetAddress& addr, std::string* error);

// Writes one complete frame, polling through partial writes and EAGAIN.
// False on a dead peer (EPIPE/ECONNRESET — never raises SIGPIPE).
bool SendFrame(int fd, std::string_view payload);

// Blocks (poll + read) until one complete frame arrives in *frame, feeding
// `decoder`. timeout_ms < 0 waits forever. False on EOF, error, poisoned
// decoder, or timeout.
bool RecvFrame(int fd, FrameDecoder* decoder, std::string* frame,
               int timeout_ms);

}  // namespace memtis

#endif  // MEMTIS_SIM_SRC_COMMON_NETIO_H_

#include "src/common/netio.h"

#include <cerrno>
#include <charconv>
#include <cstring>
#include <utility>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <time.h>
#include <unistd.h>

namespace memtis {

uint64_t MonotonicMs() {
  timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1000 +
         static_cast<uint64_t>(ts.tv_nsec) / 1'000'000;
}

void SleepMs(uint64_t ms) {
  timespec ts;
  ts.tv_sec = static_cast<time_t>(ms / 1000);
  ts.tv_nsec = static_cast<long>((ms % 1000) * 1'000'000);
  while (nanosleep(&ts, &ts) != 0 && errno == EINTR) {
  }
}

std::string EncodeFrame(std::string_view payload) {
  std::string frame;
  frame.reserve(payload.size() + 4);
  const uint32_t len = static_cast<uint32_t>(payload.size());
  frame.push_back(static_cast<char>((len >> 24) & 0xff));
  frame.push_back(static_cast<char>((len >> 16) & 0xff));
  frame.push_back(static_cast<char>((len >> 8) & 0xff));
  frame.push_back(static_cast<char>(len & 0xff));
  frame.append(payload.data(), payload.size());
  return frame;
}

void FrameDecoder::Feed(const char* data, size_t size) {
  if (bad_) {
    return;
  }
  buffer_.append(data, size);
}

bool FrameDecoder::Next(std::string* frame) {
  if (bad_ || buffer_.size() < 4) {
    return false;
  }
  const unsigned char* p = reinterpret_cast<const unsigned char*>(buffer_.data());
  const uint64_t len = (static_cast<uint64_t>(p[0]) << 24) |
                       (static_cast<uint64_t>(p[1]) << 16) |
                       (static_cast<uint64_t>(p[2]) << 8) |
                       static_cast<uint64_t>(p[3]);
  if (len > kMaxFrameBytes) {
    bad_ = true;
    buffer_.clear();
    return false;
  }
  if (buffer_.size() < 4 + len) {
    return false;
  }
  frame->assign(buffer_, 4, static_cast<size_t>(len));
  buffer_.erase(0, 4 + static_cast<size_t>(len));
  return true;
}

namespace {

bool ToSockaddr(const NetAddress& addr, sockaddr_in* out, std::string* error) {
  *out = sockaddr_in{};
  out->sin_family = AF_INET;
  out->sin_port = htons(addr.port);
  if (inet_pton(AF_INET, addr.host.c_str(), &out->sin_addr) != 1) {
    if (error != nullptr) {
      *error = "bad numeric IPv4 host '" + addr.host + "'";
    }
    return false;
  }
  return true;
}

std::string Describe(const NetAddress& addr) {
  return addr.host + ":" + std::to_string(addr.port);
}

}  // namespace

bool ParseNetAddress(const std::string& text, NetAddress* out,
                     std::string* error) {
  NetAddress addr;
  std::string_view port_text = text;
  if (const size_t colon = text.rfind(':'); colon != std::string::npos) {
    addr.host = text.substr(0, colon);
    port_text.remove_prefix(colon + 1);
  }
  const char* end = port_text.data() + port_text.size();
  const auto [ptr, ec] = std::from_chars(port_text.data(), end, addr.port);
  if (port_text.empty() || ec != std::errc() || ptr != end) {
    if (error != nullptr) {
      *error = "bad port in address '" + text + "' (want [HOST:]PORT)";
    }
    return false;
  }
  sockaddr_in ignored;
  if (!ToSockaddr(addr, &ignored, nullptr)) {
    if (error != nullptr) {
      *error = "bad host in address '" + text +
               "' (want a numeric IPv4 address; hostnames are not resolved)";
    }
    return false;
  }
  *out = std::move(addr);
  return true;
}

int ListenTcp(const NetAddress& addr, uint16_t* bound_port, std::string* error) {
  sockaddr_in sa;
  if (!ToSockaddr(addr, &sa, error)) {
    return -1;
  }
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    if (error != nullptr) {
      *error = std::string("socket() failed: ") + std::strerror(errno);
    }
    return -1;
  }
  const int one = 1;
  setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (bind(fd, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)) != 0 ||
      listen(fd, 64) != 0) {
    if (error != nullptr) {
      *error = "cannot listen on " + Describe(addr) + ": " +
               std::strerror(errno);
    }
    close(fd);
    return -1;
  }
  if (bound_port != nullptr) {
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    if (getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) == 0) {
      *bound_port = ntohs(bound.sin_port);
    } else {
      *bound_port = addr.port;
    }
  }
  return fd;
}

int ConnectTcp(const NetAddress& addr, std::string* error) {
  sockaddr_in sa;
  if (!ToSockaddr(addr, &sa, error)) {
    return -1;
  }
  if (addr.port == 0) {
    if (error != nullptr) {
      *error = "cannot connect to " + Describe(addr) + ": port 0";
    }
    return -1;
  }
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    if (error != nullptr) {
      *error = std::string("socket() failed: ") + std::strerror(errno);
    }
    return -1;
  }
  if (connect(fd, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)) != 0) {
    if (error != nullptr) {
      *error = "cannot connect to " + Describe(addr) + ": " +
               std::strerror(errno);
    }
    close(fd);
    return -1;
  }
  const int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

bool SendFrame(int fd, std::string_view payload) {
  const std::string frame = EncodeFrame(payload);
  const char* data = frame.data();
  size_t left = frame.size();
  while (left > 0) {
    const ssize_t n = send(fd, data, left, MSG_NOSIGNAL);
    if (n > 0) {
      data += n;
      left -= static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) {
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      pollfd pfd{fd, POLLOUT, 0};
      poll(&pfd, 1, 1000);
      continue;
    }
    return false;  // peer gone (EPIPE/ECONNRESET) or hard error
  }
  return true;
}

bool RecvFrame(int fd, FrameDecoder* decoder, std::string* frame,
               int timeout_ms) {
  const uint64_t deadline =
      timeout_ms < 0 ? 0 : MonotonicMs() + static_cast<uint64_t>(timeout_ms);
  for (;;) {
    if (decoder->Next(frame)) {
      return true;
    }
    if (decoder->bad()) {
      return false;
    }
    int wait = -1;
    if (timeout_ms >= 0) {
      const uint64_t now = MonotonicMs();
      if (now >= deadline) {
        return false;
      }
      wait = static_cast<int>(deadline - now);
    }
    pollfd pfd{fd, POLLIN, 0};
    const int rc = poll(&pfd, 1, wait);
    if (rc < 0) {
      if (errno == EINTR) {
        continue;
      }
      return false;
    }
    if (rc == 0) {
      return false;  // timeout
    }
    char buf[16384];
    const ssize_t n = read(fd, buf, sizeof(buf));
    if (n > 0) {
      decoder->Feed(buf, static_cast<size_t>(n));
      continue;
    }
    if (n < 0 && (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK)) {
      continue;
    }
    return false;  // EOF or hard error
  }
}

}  // namespace memtis

#include "serve/net.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <optional>
#include <utility>

#include "common/check.hpp"
#include "common/fault.hpp"
#include "common/io.hpp"
#include "common/trace.hpp"
#include "serve/protocol.hpp"

namespace hsdl::serve {

Socket::~Socket() { close(); }

Socket::Socket(Socket&& other) noexcept
    : fd_(other.fd_), fault_site_(std::move(other.fault_site_)) {
  other.fd_ = -1;
}

Socket& Socket::operator=(Socket&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = other.fd_;
    fault_site_ = std::move(other.fault_site_);
    other.fd_ = -1;
  }
  return *this;
}

Socket Socket::connect(const std::string& host, std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  HSDL_CHECK_MSG(fd >= 0, "socket(): " << std::strerror(errno));
  Socket s(fd);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  HSDL_CHECK_MSG(::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) == 1,
                 "bad address: " << host);
  HSDL_CHECK_MSG(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                           sizeof(addr)) == 0,
                 "connect " << host << ":" << port << ": "
                            << std::strerror(errno));
  // Frames are small request/response units; coalescing delays hurt the
  // latency histograms far more than the per-segment overhead.
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return s;
}

void Socket::set_timeouts(std::uint32_t recv_ms, std::uint32_t send_ms) {
  const auto to_tv = [](std::uint32_t ms) {
    timeval tv{};
    tv.tv_sec = static_cast<time_t>(ms / 1000);
    tv.tv_usec = static_cast<suseconds_t>((ms % 1000) * 1000);
    return tv;
  };
  if (recv_ms > 0) {
    const timeval tv = to_tv(recv_ms);
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  }
  if (send_ms > 0) {
    const timeval tv = to_tv(send_ms);
    ::setsockopt(fd_, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
  }
}

void Socket::send_all(const void* data, std::size_t n) {
  const char* p = static_cast<const char*>(data);
  if (fault::armed()) {
    // A fired probe lets `keep` bytes reach the wire, then drops the
    // connection: the peer sees a truncated frame followed by EOF.
    if (const std::optional<std::size_t> keep =
            fault::short_io(fault_site_ + ".send", n)) {
      std::size_t left = *keep;
      while (left > 0) {
        const ssize_t w = ::send(fd_, p, left, MSG_NOSIGNAL);
        if (w <= 0) break;
        p += w;
        left -= static_cast<std::size_t>(w);
      }
      drop();
      throw CheckError("send: injected connection drop (" + fault_site_ +
                       ".send)");
    }
  }
  while (n > 0) {
    const ssize_t w = ::send(fd_, p, n, MSG_NOSIGNAL);
    if (w < 0 && errno == EINTR) continue;
    if (w < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
      throw NetTimeout("send: timed out (SO_SNDTIMEO)");
    HSDL_CHECK_MSG(w > 0, "send: " << (w < 0 ? std::strerror(errno)
                                             : "connection closed"));
    p += w;
    n -= static_cast<std::size_t>(w);
  }
}

bool Socket::recv_exact(void* out, std::size_t n) {
  if (fault::armed() &&
      fault::short_io(fault_site_ + ".recv", n).has_value()) {
    // Unlike the send side there is no honest way to half-read a live
    // stream, so any fired recv probe drops the connection outright.
    drop();
    throw CheckError("recv: injected connection drop (" + fault_site_ +
                     ".recv)");
  }
  char* p = static_cast<char*>(out);
  std::size_t got = 0;
  while (got < n) {
    const ssize_t r = ::recv(fd_, p + got, n - got, 0);
    if (r < 0 && errno == EINTR) continue;
    if (r < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
      throw NetTimeout("recv: timed out after " + std::to_string(got) +
                       " of " + std::to_string(n) + " bytes (SO_RCVTIMEO)");
    HSDL_CHECK_MSG(r >= 0, "recv: " << std::strerror(errno));
    if (r == 0) {
      HSDL_CHECK_MSG(got == 0, "connection closed mid-frame after "
                                   << got << " of " << n << " bytes");
      return false;
    }
    got += static_cast<std::size_t>(r);
  }
  return true;
}

void Socket::shutdown_read() {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RD);
}

void Socket::drop() {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

void Socket::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Listener::Listener(std::uint16_t port) {
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  HSDL_CHECK_MSG(fd_ >= 0, "socket(): " << std::strerror(errno));
  const int one = 1;
  ::setsockopt(fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  HSDL_CHECK_MSG(::bind(fd_, reinterpret_cast<const sockaddr*>(&addr),
                        sizeof(addr)) == 0,
                 "bind 127.0.0.1:" << port << ": " << std::strerror(errno));
  HSDL_CHECK_MSG(::listen(fd_, 64) == 0, "listen: " << std::strerror(errno));
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  HSDL_CHECK_MSG(::getsockname(fd_, reinterpret_cast<sockaddr*>(&bound),
                               &len) == 0,
                 "getsockname: " << std::strerror(errno));
  port_ = ntohs(bound.sin_port);
}

Listener::~Listener() {
  close();
  // The fd is only released here, once no accept() can be in flight
  // (the owning server joins its acceptor thread before destroying the
  // listener). Closing it from close() instead would let the kernel
  // recycle the descriptor while a racing accept() still holds it.
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Socket Listener::accept() {
  for (;;) {
    if (closed_.load(std::memory_order_acquire)) return Socket();
    const int fd = ::accept(fd_, nullptr, nullptr);
    if (fd >= 0) {
      if (closed_.load(std::memory_order_acquire)) {
        ::close(fd);  // connection raced the shutdown; drop it
        return Socket();
      }
      const int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      return Socket(fd);
    }
    if (errno == EINTR) continue;
    return Socket();  // closed / shutdown: signal "stop accepting"
  }
}

void Listener::close() {
  // shutdown(2) wakes a thread blocked in accept() and makes the kernel
  // refuse new connections; the fd stays allocated until the destructor.
  if (!closed_.exchange(true, std::memory_order_acq_rel) && fd_ >= 0)
    ::shutdown(fd_, SHUT_RDWR);
}

void send_frame(Socket& s, std::string_view frame) {
  s.send_all(frame.data(), frame.size());
}

bool recv_frame(Socket& s, std::string& buf, const std::string& context,
                std::uint64_t* arrival_ns) {
  std::uint8_t prefix[4];
  if (!s.recv_exact(prefix, sizeof(prefix))) return false;
  if (arrival_ns != nullptr) *arrival_ns = trace::timestamp_ns();
  const std::uint32_t len = static_cast<std::uint32_t>(prefix[0]) |
                            static_cast<std::uint32_t>(prefix[1]) << 8 |
                            static_cast<std::uint32_t>(prefix[2]) << 16 |
                            static_cast<std::uint32_t>(prefix[3]) << 24;
  if (len > kMaxFrameBytes || len == 0)
    throw io::IoError("frame length exceeds limit", 0, context);
  buf.resize(kFrameOverhead + len);
  std::memcpy(buf.data(), prefix, sizeof(prefix));
  HSDL_CHECK_MSG(
      s.recv_exact(buf.data() + sizeof(prefix), len + 4),
      "connection closed mid-frame (" << context << ")");
  return true;
}

}  // namespace hsdl::serve

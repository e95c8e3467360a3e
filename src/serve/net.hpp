// Minimal blocking TCP plumbing for the serving front-end: RAII socket
// and listener wrappers plus whole-frame send/receive. POSIX only (the
// rest of the repo already assumes a POSIX toolchain); everything
// surfaces failures as CheckError/IoError so callers reuse the existing
// error taxonomy.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>

#include "common/check.hpp"

namespace hsdl::serve {

/// A socket send/recv exceeded its SO_RCVTIMEO/SO_SNDTIMEO budget
/// (set_timeouts). The server's session loop catches this subtype to
/// reap stuck sessions — freeing the worker and the tenant quota —
/// distinctly from protocol errors.
class NetTimeout : public CheckError {
 public:
  using CheckError::CheckError;
};

/// Owns one connected socket fd; move-only.
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket();
  Socket(Socket&& other) noexcept;
  Socket& operator=(Socket&& other) noexcept;
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  bool valid() const { return fd_ >= 0; }
  int fd() const { return fd_; }

  /// Connects to host:port (blocking); throws CheckError on failure.
  static Socket connect(const std::string& host, std::uint16_t port);

  /// Arms kernel-level send/recv timeouts (milliseconds; 0 leaves that
  /// direction unbounded). A blocked send/recv past its budget throws
  /// NetTimeout instead of hanging the session worker forever.
  void set_timeouts(std::uint32_t recv_ms, std::uint32_t send_ms);

  /// Names this socket's fault-injection sites (common/fault.hpp):
  /// probes fire at `<site>.send` and `<site>.recv`. Defaults to "net";
  /// the server uses "serve.net", the client "client.net", so a chaos
  /// plan can break exactly one side of the wire.
  void set_fault_site(std::string site) { fault_site_ = std::move(site); }

  /// Writes all of `data`; throws CheckError when the peer is gone and
  /// NetTimeout when a send timeout (set_timeouts) expires.
  void send_all(const void* data, std::size_t n);
  /// Reads exactly n bytes. Returns false on clean EOF before the first
  /// byte; throws CheckError on EOF mid-buffer or a socket error, and
  /// NetTimeout when a recv timeout (set_timeouts) expires.
  bool recv_exact(void* out, std::size_t n);

  /// shutdown(2) the read side: a peer blocked in recv wakes with EOF.
  /// Used by graceful drain; the write side stays open so an in-flight
  /// response still reaches the client.
  void shutdown_read();
  void close();

 private:
  /// Injected connection drop: shutdown(2) both directions but keep the
  /// fd, which only the destructor closes — a drain thread still calling
  /// shutdown_read() can then never reach a recycled descriptor.
  void drop();

  int fd_ = -1;
  std::string fault_site_ = "net";
};

/// Listening socket bound to 127.0.0.1; move-only.
class Listener {
 public:
  /// Binds and listens on loopback. port 0 picks an ephemeral port —
  /// read the actual one back with port().
  explicit Listener(std::uint16_t port);
  ~Listener();
  Listener(const Listener&) = delete;
  Listener& operator=(const Listener&) = delete;

  std::uint16_t port() const { return port_; }

  /// Blocks for one connection. Returns an invalid Socket when the
  /// listener was closed (shutdown path).
  Socket accept();

  /// Unblocks any accept() and stops accepting connections (new
  /// connects are refused). Safe to call while another thread is
  /// blocked in accept(); the fd itself is released by the destructor,
  /// so a racing accept() can never touch a recycled descriptor.
  void close();

 private:
  int fd_ = -1;
  std::atomic<bool> closed_{false};
  std::uint16_t port_ = 0;
};

/// Sends one already-encoded frame (see protocol.hpp encode_frame).
void send_frame(Socket& s, std::string_view frame);

/// Receives one complete frame into `buf` (length prefix + payload +
/// CRC, ready for decode_frame). Returns false on clean EOF at a frame
/// boundary. Throws IoError when the length prefix exceeds the frame
/// limit and CheckError on mid-frame EOF.
///
/// `arrival_ns` (optional) receives the trace-clock timestamp taken
/// right after the length prefix landed — the closest observable point
/// to "the frame started arriving", before anyone knows what message it
/// carries. The server session uses it to emit the serve.recv span for
/// sampled requests; pass nullptr (the default) to skip the clock read.
bool recv_frame(Socket& s, std::string& buf, const std::string& context,
                std::uint64_t* arrival_ns = nullptr);

}  // namespace hsdl::serve

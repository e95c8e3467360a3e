// Always-on flight recorder for the serving front-end (DESIGN.md §15).
//
// A FlightRecorder keeps the last N completed requests — tenant,
// request id, clip count, deadline budget, outcome and per-stage wall
// times — in a fixed-size ring that is written on every
// request and read only when someone asks for a dump (SIGQUIT, a
// session-fatal error, graceful drain). It answers the question the
// live stats surface cannot: not "what is the p99" but "what were the
// exact last 256 requests doing when things went wrong".
//
// Concurrency: one cheap spinlock per slot (an atomic exchange pair).
// Writers from different session workers land on different slots except
// when the ring wraps mid-collision, so the lock is effectively
// uncontended; a reader taking a snapshot locks one slot at a time and
// never blocks writers on the other N-1 slots. Records are small and
// fixed-size (the tenant is a truncated char array, no heap), so the
// critical section is a plain struct copy. A per-slot lock was chosen
// over a seqlock on purpose: the serve tests run under TSan, and a
// seqlock's racing reads — benign by construction — would still be
// flagged.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "serve/protocol.hpp"

namespace hsdl::serve {

/// One completed (or rejected) score request. `error == 0` means the
/// request was answered with a ScoreResponse; otherwise it holds the
/// ErrorCode the client was sent. Stage times are milliseconds; a stage
/// the request never reached stays 0.
struct FlightRecord {
  std::uint64_t seq = 0;       ///< monotone completion index
  std::uint64_t wall_ms = 0;   ///< unix epoch ms at completion
  std::uint64_t request_id = 0;
  char tenant[24] = {};        ///< truncated, NUL-terminated
  std::uint32_t clips = 0;
  std::uint32_t deadline_ms = 0;  ///< wire budget (0 = none)
  std::uint8_t error = 0;         ///< 0 = ok, else ErrorCode
  float decode_ms = 0.0f;
  float quota_ms = 0.0f;
  float score_ms = 0.0f;
  float rank_ms = 0.0f;
  float send_ms = 0.0f;
  float total_ms = 0.0f;

  void set_tenant(const std::string& t);
};

json::Value to_json(const FlightRecord& r);

class FlightRecorder {
 public:
  /// `capacity` slots (>= 1; the server default is 256 ~ 16 KiB).
  explicit FlightRecorder(std::size_t capacity);

  std::size_t capacity() const { return slots_.size(); }
  /// Requests recorded over the recorder's lifetime (>= capacity once
  /// the ring has wrapped).
  std::uint64_t total_recorded() const {
    return seq_.load(std::memory_order_relaxed);
  }

  /// Stamps `r.seq` and stores the record, overwriting the oldest slot
  /// once the ring is full. Wait-free against readers except for the
  /// one-slot copy under its spinlock.
  void record(FlightRecord r);

  /// The retained records, oldest first.
  std::vector<FlightRecord> snapshot() const;

  /// Appends every retained record to `path` as JSONL (one object per
  /// line), preceded by a header line identifying the dump. Returns the
  /// number of records written; swallows I/O failures (the dump runs on
  /// failure paths and must never add a second failure).
  std::size_t dump_jsonl(const std::string& path,
                         const std::string& reason) const;

 private:
  struct alignas(64) Slot {
    mutable std::atomic<bool> locked{false};
    bool valid = false;
    FlightRecord rec;
  };

  std::atomic<std::uint64_t> seq_{0};
  std::vector<Slot> slots_;
};

}  // namespace hsdl::serve

#include "serve/flight_recorder.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <fstream>
#include <thread>

#include "common/check.hpp"

namespace hsdl::serve {
namespace {

class SlotLock {
 public:
  explicit SlotLock(std::atomic<bool>& flag) : flag_(flag) {
    while (flag_.exchange(true, std::memory_order_acquire)) {
      // Contention is a wrap-collision on one slot; yielding beats
      // burning the core for the rare case two writers meet here.
      std::this_thread::yield();
    }
  }
  ~SlotLock() { flag_.store(false, std::memory_order_release); }
  SlotLock(const SlotLock&) = delete;
  SlotLock& operator=(const SlotLock&) = delete;

 private:
  std::atomic<bool>& flag_;
};

}  // namespace

void FlightRecord::set_tenant(const std::string& t) {
  const std::size_t n = std::min(t.size(), sizeof(tenant) - 1);
  std::memcpy(tenant, t.data(), n);
  tenant[n] = '\0';
}

json::Value to_json(const FlightRecord& r) {
  json::Value v = json::Value::object();
  v.set("seq", r.seq);
  v.set("wall_ms", r.wall_ms);
  v.set("request_id", r.request_id);
  v.set("tenant", std::string(r.tenant));
  v.set("clips", static_cast<std::uint64_t>(r.clips));
  v.set("deadline_ms", static_cast<std::uint64_t>(r.deadline_ms));
  v.set("error", r.error == 0
                     ? std::string("ok")
                     : std::string(error_code_name(
                           static_cast<ErrorCode>(r.error))));
  v.set("decode_ms", static_cast<double>(r.decode_ms));
  v.set("quota_ms", static_cast<double>(r.quota_ms));
  v.set("score_ms", static_cast<double>(r.score_ms));
  v.set("rank_ms", static_cast<double>(r.rank_ms));
  v.set("send_ms", static_cast<double>(r.send_ms));
  v.set("total_ms", static_cast<double>(r.total_ms));
  return v;
}

FlightRecorder::FlightRecorder(std::size_t capacity)
    : slots_(std::max<std::size_t>(1, capacity)) {}

void FlightRecorder::record(FlightRecord r) {
  r.seq = seq_.fetch_add(1, std::memory_order_relaxed);
  r.wall_ms = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
  Slot& slot = slots_[static_cast<std::size_t>(r.seq) % slots_.size()];
  SlotLock lk(slot.locked);
  slot.rec = r;
  slot.valid = true;
}

std::vector<FlightRecord> FlightRecorder::snapshot() const {
  std::vector<FlightRecord> out;
  out.reserve(slots_.size());
  for (const Slot& slot : slots_) {
    SlotLock lk(slot.locked);
    if (slot.valid) out.push_back(slot.rec);
  }
  // Slot order is ring order, not age order, once the ring wraps; the
  // seq stamp restores oldest-first.
  std::sort(out.begin(), out.end(),
            [](const FlightRecord& a, const FlightRecord& b) {
              return a.seq < b.seq;
            });
  return out;
}

std::size_t FlightRecorder::dump_jsonl(const std::string& path,
                                       const std::string& reason) const {
  if (path.empty()) return 0;
  // Append: one file collects every dump of a server's lifetime (a
  // SIGQUIT dump followed by the drain dump must not erase the first —
  // the post-mortem usually wants exactly that earlier snapshot).
  std::ofstream out(path, std::ios::app);
  if (!out.is_open()) return 0;
  const std::vector<FlightRecord> records = snapshot();
  json::Value header = json::Value::object();
  header.set("event", "flight.dump");
  header.set("reason", reason);
  header.set("records", static_cast<std::uint64_t>(records.size()));
  header.set("total_recorded", total_recorded());
  out << header.dump() << '\n';
  for (const FlightRecord& r : records) out << to_json(r).dump() << '\n';
  out.flush();
  return records.size();
}

}  // namespace hsdl::serve

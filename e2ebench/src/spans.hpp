// The benchmark's own span recorder for the traced run. Spans are taken
// in the benchmark's files, around its calls into the runtime's public
// API; nothing inside src/ is instrumented.
//
// One lane per recording thread (lane 0: the main thread, lanes 1..T:
// the kv clients), each a preallocated vector written by its owner only,
// so recording takes no lock. A lane that is full drops further spans
// and counts them. Spans are written out once, by dump(), after every
// recording thread has joined.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace e2e {

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

class SpanRecorder {
 public:
  /// Span id: (lane << 32) | (index + 1); 0 means "no span" (recorder off,
  /// lane full, or a root's parent).
  using Id = std::uint64_t;

  struct Span {
    std::uint64_t start_ns = 0;
    std::uint64_t end_ns = 0;
    Id parent = 0;
    std::uint32_t run = 0;  // iteration of the workload loop
    std::uint32_t op = 0;   // op index within a client stream (kv only)
    const char* name = "";  // string literal
  };

  /// A disabled recorder (lanes == 0) records nothing and costs one
  /// branch per call.
  SpanRecorder(std::size_t lanes, std::size_t capacity_per_lane);

  [[nodiscard]] bool enabled() const { return !lanes_.empty(); }

  Id begin(std::size_t lane, const char* name, Id parent, std::uint32_t run,
           std::uint32_t op = 0) {
    if (lanes_.empty()) return 0;
    std::vector<Span>& l = lanes_[lane];
    if (l.size() == l.capacity()) {
      ++dropped_[lane];
      return 0;
    }
    l.push_back(Span{now_ns(), 0, parent, run, op, name});
    return (static_cast<Id>(lane) << 32) | l.size();
  }
  void end(Id id) {
    if (id == 0) return;
    lanes_[id >> 32][(id & 0xffffffffu) - 1].end_ns = now_ns();
  }

  struct NameTotals {
    std::uint64_t count = 0;
    double total_s = 0.0;
    double self_s = 0.0;  // total minus the union of its children's intervals
  };
  /// Per span name, over every recorded span.
  [[nodiscard]] std::map<std::string, NameTotals> totals() const;

  [[nodiscard]] std::uint64_t recorded() const;
  [[nodiscard]] std::uint64_t dropped() const;

  /// Writes one CSV line per span (id,parent,name,run,op,start_ns,end_ns).
  /// Returns false when the file cannot be written.
  bool dump(const std::string& path) const;

 private:
  std::vector<std::vector<Span>> lanes_;
  std::vector<std::uint64_t> dropped_;
};

/// Scoped span on lane 0.
class SpanScope {
 public:
  SpanScope(SpanRecorder& rec, const char* name, SpanRecorder::Id parent,
            std::uint32_t run)
      : rec_(rec), id_(rec.begin(0, name, parent, run)) {}
  ~SpanScope() { rec_.end(id_); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;
  [[nodiscard]] SpanRecorder::Id id() const { return id_; }

 private:
  SpanRecorder& rec_;
  SpanRecorder::Id id_;
};

}  // namespace e2e

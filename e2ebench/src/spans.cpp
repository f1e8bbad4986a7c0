#include "spans.hpp"

#include <algorithm>
#include <fstream>
#include <unordered_map>
#include <utility>

namespace e2e {

SpanRecorder::SpanRecorder(std::size_t lanes, std::size_t capacity_per_lane)
    : lanes_(lanes), dropped_(lanes, 0) {
  for (std::vector<Span>& l : lanes_) l.reserve(capacity_per_lane);
}

std::map<std::string, SpanRecorder::NameTotals> SpanRecorder::totals() const {
  using Interval = std::pair<std::uint64_t, std::uint64_t>;
  std::unordered_map<Id, std::vector<Interval>> children;
  for (const std::vector<Span>& l : lanes_) {
    for (const Span& s : l) {
      if (s.parent != 0 && s.end_ns != 0) children[s.parent].emplace_back(s.start_ns, s.end_ns);
    }
  }
  std::map<std::string, NameTotals> out;
  for (std::size_t lane = 0; lane < lanes_.size(); ++lane) {
    for (std::size_t i = 0; i < lanes_[lane].size(); ++i) {
      const Span& s = lanes_[lane][i];
      if (s.end_ns == 0) continue;
      NameTotals& t = out[s.name];
      const std::uint64_t dur = s.end_ns - s.start_ns;
      std::uint64_t covered = 0;
      const auto it = children.find((static_cast<Id>(lane) << 32) | (i + 1));
      if (it != children.end()) {
        std::vector<Interval>& iv = it->second;
        std::sort(iv.begin(), iv.end());
        std::uint64_t lo = 0;
        std::uint64_t hi = 0;
        for (const auto& [a0, b0] : iv) {
          const std::uint64_t a = std::max(a0, s.start_ns);
          const std::uint64_t b = std::min(b0, s.end_ns);
          if (a >= b) continue;
          if (a > hi) {
            covered += hi - lo;
            lo = a;
            hi = b;
          } else {
            hi = std::max(hi, b);
          }
        }
        covered += hi - lo;
      }
      ++t.count;
      t.total_s += static_cast<double>(dur) * 1e-9;
      t.self_s += static_cast<double>(dur - std::min(dur, covered)) * 1e-9;
    }
  }
  return out;
}

std::uint64_t SpanRecorder::recorded() const {
  std::uint64_t n = 0;
  for (const std::vector<Span>& l : lanes_) n += l.size();
  return n;
}

std::uint64_t SpanRecorder::dropped() const {
  std::uint64_t n = 0;
  for (const std::uint64_t d : dropped_) n += d;
  return n;
}

bool SpanRecorder::dump(const std::string& path) const {
  std::ofstream out(path);
  out << "id,parent,name,run,op,start_ns,end_ns\n";
  for (std::size_t lane = 0; lane < lanes_.size(); ++lane) {
    for (std::size_t i = 0; i < lanes_[lane].size(); ++i) {
      const Span& s = lanes_[lane][i];
      out << ((static_cast<Id>(lane) << 32) | (i + 1)) << ',' << s.parent << ','
          << s.name << ',' << s.run << ',' << s.op << ',' << s.start_ns << ','
          << s.end_ns << '\n';
    }
  }
  return static_cast<bool>(out.flush());
}

}  // namespace e2e

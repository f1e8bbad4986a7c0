#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

namespace e2e {

namespace {

// Process definitions of §3.1, as in examples/sdl/sum{1,2,3}.sdl.
constexpr const char* kSum1Def =
    "process Sum1(k, j)\n"
    "behavior\n"
    "  exists a, b : [k - 2**(j-1), a]!, [k, b]! => [k, a + b];\n"
    "  { when k % 2**(j+1) = 0 ^ spawn Sum1(k, j + 1)\n"
    "  | when k % 2**(j+1) != 0 ^ skip\n"
    "  }\n"
    "end\n";
constexpr const char* kSum2Def =
    "process Sum2(k, j)\n"
    "behavior\n"
    "  exists a, b : [k - 2**(j-1), a, j]!, [k, b, j]! => [k, a + b, j + 1]\n"
    "end\n";
constexpr const char* kSum3Def =
    "process Sum3\n"
    "behavior\n"
    "  ||{ exists v, a, u, b : [v, a]!, [u, b]! when v != u -> [u, a + b] }\n"
    "end\n";

}  // namespace

SumInput make_sum_input(SumStyle style, std::int64_t n, std::uint64_t seed) {
  if (n < 2 || (n & (n - 1)) != 0) {
    throw std::invalid_argument("sum size must be a power of two >= 2");
  }
  SplitMix64 rng(seed);
  SumInput in;
  std::string& s = in.source;
  s += style == SumStyle::Consensus ? kSum1Def
       : style == SumStyle::Society ? kSum2Def
                                    : kSum3Def;
  s += "\ninit {\n";
  for (std::int64_t k = 1; k <= n; ++k) {
    const auto v = static_cast<std::int64_t>(rng.below(1000));
    in.expected += v;
    s += "[" + std::to_string(k) + ", " + std::to_string(v);
    s += style == SumStyle::Society ? ", 1];\n" : "];\n";
  }
  s += "}\n\n";
  switch (style) {
    case SumStyle::Consensus:
      for (std::int64_t k = 2; k <= n; k += 2) {
        s += "spawn Sum1(" + std::to_string(k) + ", 1)\n";
      }
      break;
    case SumStyle::Society:
      for (std::int64_t j = 1; (std::int64_t{1} << j) <= n; ++j) {
        const std::int64_t step = std::int64_t{1} << j;
        for (std::int64_t k = step; k <= n; k += step) {
          s += "spawn Sum2(" + std::to_string(k) + ", " + std::to_string(j) + ")\n";
        }
      }
      break;
    case SumStyle::Replication:
      s += "spawn Sum3()\n";
      break;
  }
  return in;
}

KvInput make_kv_input(std::int64_t accounts, std::size_t clients,
                      std::size_t ops_per_client, double read_frac,
                      double theta, std::uint64_t seed) {
  SplitMix64 rng(seed);
  KvInput in;
  in.accounts = accounts;
  in.initial_balance = 1000;
  const auto n = static_cast<std::size_t>(accounts);

  in.init_source = "init {\n";
  for (std::int64_t k = 0; k < accounts; ++k) {
    in.init_source += "[" + std::to_string(k) + ", " +
                      std::to_string(in.initial_balance) + "];\n";
  }
  in.init_source += "}\n";

  // Zipf(theta) over ranks 1..n, mapped to keys by a seeded shuffle so
  // the hot keys differ per seed.
  std::vector<double> cdf(n);
  double total = 0.0;
  for (std::size_t r = 0; r < n; ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), theta);
    cdf[r] = total;
  }
  std::vector<std::uint32_t> key_of_rank(n);
  std::iota(key_of_rank.begin(), key_of_rank.end(), 0u);
  for (std::size_t i = n - 1; i > 0; --i) {
    std::swap(key_of_rank[i], key_of_rank[rng.below(i + 1)]);
  }
  auto draw = [&] {
    const double u = rng.unit() * total;
    const auto r = static_cast<std::size_t>(
        std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
    return key_of_rank[std::min(r, n - 1)];
  };

  in.per_client.resize(clients);
  for (std::vector<KvOp>& ops : in.per_client) {
    ops.reserve(ops_per_client);
    for (std::size_t i = 0; i < ops_per_client; ++i) {
      KvOp op;
      op.transfer = rng.unit() >= read_frac;
      op.a = draw();
      if (op.transfer) {
        do {
          op.b = draw();
        } while (op.b == op.a);
      }
      ops.push_back(op);
    }
  }
  return in;
}

std::string render_kv_input(const KvInput& in) {
  std::string s = in.init_source;
  for (std::size_t c = 0; c < in.per_client.size(); ++c) {
    s += "client " + std::to_string(c) + "\n";
    for (const KvOp& op : in.per_client[c]) {
      s += op.transfer ? "T " + std::to_string(op.a) + " " + std::to_string(op.b)
                       : "R " + std::to_string(op.a);
      s += "\n";
    }
  }
  return s;
}

std::vector<std::int64_t> expected_balances(const KvInput& in) {
  std::vector<std::int64_t> bal(static_cast<std::size_t>(in.accounts),
                                in.initial_balance);
  for (const std::vector<KvOp>& ops : in.per_client) {
    for (const KvOp& op : ops) {
      if (!op.transfer) continue;
      --bal[op.a];
      ++bal[op.b];
    }
  }
  return bal;
}

std::string verify_sum(const std::vector<sdl::Tuple>& resident,
                       std::int64_t expected, bool run_clean) {
  if (!run_clean) return "run report is not clean";
  if (resident.size() != 1) {
    return std::to_string(resident.size()) + " tuples resident, expected 1";
  }
  const sdl::Tuple& t = resident.front();
  if (t.arity() < 2 || !t[1].is_int()) return "malformed result " + t.to_string();
  if (t[1].as_int() != expected) {
    return "sum " + std::to_string(t[1].as_int()) + " != expected " +
           std::to_string(expected);
  }
  return {};
}

std::string verify_balances(const std::vector<sdl::Tuple>& resident,
                            const std::vector<std::int64_t>& expected) {
  const std::size_t n = expected.size();
  if (resident.size() != n) {
    return std::to_string(resident.size()) + " accounts resident, expected " +
           std::to_string(n);
  }
  std::vector<bool> seen(n, false);
  std::int64_t total = 0;
  std::int64_t want_total = 0;
  for (const std::int64_t b : expected) want_total += b;
  std::string mismatch;
  for (const sdl::Tuple& t : resident) {
    if (t.arity() != 2 || !t[0].is_int() || !t[1].is_int()) {
      return "malformed account " + t.to_string();
    }
    const std::int64_t k = t[0].as_int();
    if (k < 0 || static_cast<std::size_t>(k) >= n || seen[static_cast<std::size_t>(k)]) {
      return "unexpected or duplicate account " + t.to_string();
    }
    seen[static_cast<std::size_t>(k)] = true;
    total += t[1].as_int();
    if (mismatch.empty() && t[1].as_int() != expected[static_cast<std::size_t>(k)]) {
      mismatch = "account " + std::to_string(k) + " holds " +
                 std::to_string(t[1].as_int()) + ", expected " +
                 std::to_string(expected[static_cast<std::size_t>(k)]);
    }
  }
  if (total != want_total) {
    return "balances not conserved: total " + std::to_string(total) +
           " != " + std::to_string(want_total);
  }
  return mismatch;
}

std::string verify_recovered(std::vector<sdl::Tuple> before,
                             std::vector<sdl::Tuple> after) {
  if (before.size() != after.size()) {
    return "recovered " + std::to_string(after.size()) + " tuples, expected " +
           std::to_string(before.size());
  }
  std::sort(before.begin(), before.end());
  std::sort(after.begin(), after.end());
  const auto diff = std::mismatch(before.begin(), before.end(), after.begin());
  if (diff.first != before.end()) {
    return "recovered state differs: " + diff.second->to_string() +
           " where " + diff.first->to_string() + " was resident";
  }
  return {};
}

}  // namespace e2e

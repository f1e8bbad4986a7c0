// Seeded input generators and output verifiers for the end-to-end
// benchmark. Generators are pure functions of their seed: the same seed
// gives byte-identical inputs on every machine (SplitMix64, no libc RNG).
// Verifiers return an empty string when the output is right and a
// one-line reason otherwise.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/tuple.hpp"

namespace e2e {

class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, m); m > 0.
  std::uint64_t below(std::uint64_t m) { return next() % m; }
  /// Uniform in [0, 1).
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

 private:
  std::uint64_t state_;
};

/// The paper's three §3.1 coordination styles for one array sum.
enum class SumStyle {
  Consensus,    // Sum1: phase-by-phase, consensus barriers
  Society,      // Sum2: one delayed-transaction process per (k, phase)
  Replication,  // Sum3: one replication of the pairwise combine
};

struct SumInput {
  std::string source;         // complete SDL program text
  std::int64_t expected = 0;  // exact sum of the seeded values
};

/// n seeded values in [0, 999] as the program's `init` block, the
/// process definition of `style`, and its initial society. n must be a
/// power of two >= 2 (Sum1/Sum2 pair positions by powers of two).
SumInput make_sum_input(SumStyle style, std::int64_t n, std::uint64_t seed);

struct KvOp {
  bool transfer = false;  // false: point read of `a`
  std::uint32_t a = 0;    // read key, or transfer source
  std::uint32_t b = 0;    // transfer destination (!= a)
};

struct KvInput {
  std::string init_source;  // SDL `init` block of [k, balance] accounts
  std::int64_t accounts = 0;
  std::int64_t initial_balance = 0;
  std::vector<std::vector<KvOp>> per_client;  // one op stream per client
};

/// Accounts 0..accounts-1 with `initial_balance` each; `clients` streams
/// of `ops_per_client` ops, `read_frac` point reads and the rest
/// one-unit transfers, keys drawn Zipf(theta) over a seeded rank order.
KvInput make_kv_input(std::int64_t accounts, std::size_t clients,
                      std::size_t ops_per_client, double read_frac,
                      double theta, std::uint64_t seed);

/// Text form of a kv input (init block plus one line per op), for the
/// byte-identical determinism check.
std::string render_kv_input(const KvInput& in);

/// Balances every account must hold once all transfers of `in` have
/// committed: transfers are one-unit moves, so the final state does not
/// depend on their order.
std::vector<std::int64_t> expected_balances(const KvInput& in);

/// The sum ran to quiescence cleanly and left exactly one resident tuple
/// whose second field is `expected`.
std::string verify_sum(const std::vector<sdl::Tuple>& resident,
                       std::int64_t expected, bool run_clean);

/// Every account [k, b] is resident exactly once, the total is conserved,
/// and each balance equals `expected[k]`.
std::string verify_balances(const std::vector<sdl::Tuple>& resident,
                            const std::vector<std::int64_t>& expected);

/// `after` holds exactly the multiset `before` held.
std::string verify_recovered(std::vector<sdl::Tuple> before,
                             std::vector<sdl::Tuple> after);

}  // namespace e2e

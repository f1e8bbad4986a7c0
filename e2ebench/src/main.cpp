// sdl_e2e — end-to-end benchmark driver over the public Runtime / lang API.
//
//   sdl_e2e --workload <name> --seed <n> --seconds <s> [--workdir <dir>]
//           [--spans <file.csv>]
//   sdl_e2e --workload <name> --seed <n> --emit-input  # print the input
//   sdl_e2e --selftest                                  # verifiers reject corruption
//
// Workloads (each runs in its own process; e2ebench/run.py starts them):
//   sum3_replication  §3.1 Sum3: one replication of the pairwise combine
//   sum2_society      §3.1 Sum2: one delayed-transaction process per pair
//   sum1_consensus    §3.1 Sum1: phase barriers through consensus
//   kv_mixed          host clients calling Runtime::execute on a durable
//                     dataspace, then a recovery reopen of its WAL
//
// Scheduler workers, replicants and clients number half the CPUs, at most
// 4, except sum1_consensus's single worker.
//
// A run repeats whole iterations (fresh Runtime, setup, timed phase,
// verification) until the next one would overrun --seconds, and prints
// one JSON object: medians over iterations, per-layer counts diffed from
// public counters over the timed phases, and, when SDL_OBS is on, the
// means of the runtime's own latency histograms. --spans turns on the
// benchmark's span recorder and writes its spans there at exit.
#include <sched.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <latch>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "lang/compile.hpp"
#include "query/compile.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace fs = std::filesystem;
using namespace sdl;
using e2e::now_ns;
using e2e::SpanRecorder;
using e2e::SpanScope;

namespace {

// ---- sizes (see BENCHMARK.json / e2ebench/metrics.json for why) ----

struct SumWorkload {
  const char* name;
  e2e::SumStyle style;
  std::int64_t n;
  bool one_worker;  // run on a single scheduler worker
};
// Sum1 runs on one worker: with more, how many consensus sweeps coalesce
// depends on thread timing (5.3k-7.2k sweeps per iteration at 2 workers,
// always 2(n-1) at 1), so its cost followed the host's load.
constexpr std::array<SumWorkload, 3> kSums{{
    {"sum3_replication", e2e::SumStyle::Replication, 8192, false},
    {"sum2_society", e2e::SumStyle::Society, 262144, false},
    {"sum1_consensus", e2e::SumStyle::Consensus, 4096, true},
}};
constexpr const char* kKvWorkload = "kv_mixed";
constexpr std::int64_t kKvAccounts = 16384;
constexpr std::size_t kKvOpsPerClient = 200000;
constexpr double kKvReadFrac = 0.9;
constexpr double kKvTheta = 0.99;
constexpr std::uint64_t kKvFsyncEvery = 64;
constexpr std::size_t kSpanLaneCapacity = 65536;

#ifdef __clang__
constexpr const char* kCompiler = "clang " __clang_version__;
#else
constexpr const char* kCompiler = "gcc " __VERSION__;
#endif

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  std::string workdir = ".";
  std::string spans_path;  // non-empty: record spans
};

std::size_t nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return static_cast<std::size_t>(CPU_COUNT(&set));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

/// Restarts the kernel's resident-set high-water mark, so the next
/// peak_rss_mb() covers one iteration only (input generation and earlier
/// iterations' transients excluded). The heap is not trimmed between
/// iterations: later setups reuse it as a long-running host would, which
/// keeps page-fault cost, the noisiest part of a small setup, out of
/// setup_s. Where /proc/self/clear_refs is not writable the mark keeps
/// the process-wide peak.
void reset_peak_rss() { std::ofstream("/proc/self/clear_refs") << "5"; }

/// Resident-set high-water mark (VmHWM) in MiB.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // kB
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

/// CPU time of all threads of the process. The kernel keeps time the
/// hypervisor steals from a virtual CPU out of it.
std::uint64_t cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

/// Nearest-rank quantile of sorted `v`.
double quantile(const std::vector<std::uint32_t>& v, double q) {
  if (v.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  return static_cast<double>(v[std::clamp<std::size_t>(rank, 1, v.size()) - 1]);
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

double secs(std::uint64_t from_ns, std::uint64_t to_ns) {
  return static_cast<double>(to_ns - from_ns) * 1e-9;
}

// ---- public counters, snapshot and diff ----

enum Ctr : std::size_t {
  kAttempts, kCommits, kFailures, kProbes,
  kReadOptimistic, kReadRetries, kReadFallbacks,
  kAsserts, kRetracts, kScanned,
  kWakes, kSpawned, kCompleted,
  kSweeps, kFires,
  kPlanHits, kPlanMisses, kPlanBailouts,
  kLogged, kSyncs,
  kNumCtrs
};
using Counts = std::array<std::uint64_t, kNumCtrs>;

/// Reads every counter the benchmark uses, through public accessors only.
/// The plan-cache counters are process-global; the rest belong to `rt`.
Counts read_counts(Runtime& rt) {
  Counts c{};
  EngineStats& es = rt.engine().stats();
  c[kAttempts] = es.attempts.load();
  c[kCommits] = es.commits.load();
  c[kFailures] = es.failures.load();
  c[kProbes] = es.probes.load();
  c[kReadOptimistic] = es.read_optimistic.load();
  c[kReadRetries] = es.read_retries.load();
  c[kReadFallbacks] = es.read_fallbacks.load();
  const SpaceStats ss = rt.space().stats();
  c[kAsserts] = ss.asserts;
  c[kRetracts] = ss.retracts;
  c[kScanned] = ss.records_scanned;
  c[kWakes] = rt.waits().wakes_delivered();
  c[kSpawned] = rt.scheduler().total_spawned();
  c[kCompleted] = rt.scheduler().total_completed();
  c[kSweeps] = rt.consensus().sweeps();
  c[kFires] = rt.consensus().fires();
  const PlanCacheStats& pc = plan_cache_stats();
  c[kPlanHits] = pc.hits.load(std::memory_order_relaxed);
  c[kPlanMisses] = pc.misses.load(std::memory_order_relaxed);
  c[kPlanBailouts] = pc.bailouts.load(std::memory_order_relaxed);
  if (persist::PersistManager* pm = rt.persist()) {
    const persist::PersistManager::Stats ps = pm->stats();
    c[kLogged] = ps.logged_commits;
    c[kSyncs] = ps.syncs;
  }
  return c;
}

Counts diff(const Counts& after, const Counts& before) {
  Counts d{};
  for (std::size_t i = 0; i < kNumCtrs; ++i) d[i] = after[i] - before[i];
  return d;
}

void accumulate(Counts& into, const Counts& d) {
  for (std::size_t i = 0; i < kNumCtrs; ++i) into[i] += d[i];
}

// ---- SDL_OBS registry (traced run only) ----

struct ObsHist {
  const char* metric;    // benchmark metric name
  const char* registry;  // instrument name in the runtime's registry
};
constexpr std::array<ObsHist, 11> kObsHists{{
    {"txn.evaluate_us_mean", "sdl_txn_evaluate_ns"},
    {"txn.lock_wait_us_mean", "sdl_txn_lock_wait_ns"},
    {"txn.lock_hold_us_mean", "sdl_txn_lock_hold_ns"},
    {"txn.apply_us_mean", "sdl_txn_apply_ns"},
    {"txn.publish_us_mean", "sdl_txn_publish_ns"},
    {"process.wake_to_dispatch_us_mean", "sdl_wake_to_dispatch_ns"},
    {"process.park_delayed_us_mean", "sdl_park_delayed_txn_ns"},
    {"process.park_consensus_us_mean", "sdl_park_consensus_ns"},
    {"consensus.claim_fire_us_mean", "sdl_consensus_claim_fire_ns"},
    {"persist.wal_append_us_mean", "sdl_wal_append_ns"},
    {"persist.wal_flush_us_mean", "sdl_wal_flush_ns"},
}};
constexpr const char* kObsExclusiveLocks = "sdl_lock_exclusive_acquired_total";

/// count/sum pairs of each kObsHists instrument, then the exclusive-lock
/// counter.
struct ObsCounts {
  std::array<std::uint64_t, kObsHists.size()> count{};
  std::array<std::uint64_t, kObsHists.size()> sum_ns{};
  std::uint64_t exclusive_locks = 0;
};

ObsCounts read_obs(Runtime& rt) {
  ObsCounts o;
  if (!obs::enabled()) return o;
  obs::MetricsRegistry& reg = rt.metrics();
  for (std::size_t i = 0; i < kObsHists.size(); ++i) {
    const obs::LatencyHistogram::Snapshot s = reg.histogram(kObsHists[i].registry).snapshot();
    o.count[i] = s.count;
    o.sum_ns[i] = s.sum;
  }
  o.exclusive_locks = reg.counter(kObsExclusiveLocks).load();
  return o;
}

void accumulate_obs(ObsCounts& into, const ObsCounts& after, const ObsCounts& before) {
  for (std::size_t i = 0; i < kObsHists.size(); ++i) {
    into.count[i] += after.count[i] - before.count[i];
    into.sum_ns[i] += after.sum_ns[i] - before.sum_ns[i];
  }
  into.exclusive_locks += after.exclusive_locks - before.exclusive_locks;
}

// ---- results ----

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::uint64_t samples = 0;
  std::string base;  // what a ratio or count is taken over
};

struct Result {
  std::vector<Metric> metrics;
  std::vector<std::string> errors;  // wrong answers; empty = correct
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::size_t iterations = 0;
  std::vector<double> rss_peaks_mb;  // one per iteration
  std::string notes;  // stated policy, e.g. the WAL flush dial

  void add(std::string name, double value, std::string unit, std::uint64_t samples,
           std::string base = {}) {
    metrics.push_back(Metric{std::move(name), value, std::move(unit), samples, std::move(base)});
  }
};

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.12g", v);
  return buf;
}

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", ch);
      out += buf;
    } else {
      out += ch;
    }
  }
  return out + "\"";
}

/// WAL totals over a run's iterations (zero when durability is off).
struct WalTotals {
  std::uint64_t dir_bytes = 0;          // WAL directory size at shutdown
  std::uint64_t logged_commits = 0;     // seeds included
  std::uint64_t recovered_commits = 0;  // replayed by the reopen
};

/// Per-layer metrics common to every workload: counts per iteration over
/// the timed phases, ratios with their bases, and (traced) registry means.
void add_layer_metrics(Result& r, const Counts& c, std::uint64_t spawned_per_iter,
                       const WalTotals& wal, const ObsCounts& o) {
  const auto it = static_cast<double>(std::max<std::size_t>(r.iterations, 1));
  const std::uint64_t n = r.iterations;
  const std::string per_it = "per iteration, timed phase";
  auto per = [&](Ctr k) { return static_cast<double>(c[k]) / it; };
  auto d = [&](Ctr k) { return static_cast<double>(c[k]); };
  auto total = [&](Ctr k, const char* what) {
    return std::to_string(c[k]) + " " + what;
  };

  r.add("process.spawned", static_cast<double>(spawned_per_iter), "count", n,
        "per iteration, load and run");
  r.add("process.completed", per(kCompleted), "count", n, per_it);
  r.add("process.wakes_per_commit", ratio(d(kWakes), d(kCommits)), "ratio", n,
        total(kWakes, "wakes") + " / " + total(kCommits, "commits"));
  r.add("txn.attempts", per(kAttempts), "count", n, per_it);
  r.add("txn.commits", per(kCommits), "count", n, per_it);
  r.add("txn.failures", per(kFailures), "count", n, per_it);
  r.add("txn.probes", per(kProbes), "count", n, per_it);
  r.add("txn.commit_ratio", ratio(d(kCommits), d(kAttempts)), "ratio", n,
        total(kCommits, "commits") + " / " + total(kAttempts, "attempts"));
  r.add("txn.read_optimistic", per(kReadOptimistic), "count", n, per_it);
  r.add("txn.read_retries", per(kReadRetries), "count", n, per_it);
  r.add("txn.read_fallbacks", per(kReadFallbacks), "count", n, per_it);
  r.add("txn.read_validation_ok_ratio",
        ratio(d(kReadOptimistic), d(kReadOptimistic) + d(kReadRetries)), "ratio", n,
        total(kReadOptimistic, "validations passed") + " / " +
            std::to_string(c[kReadOptimistic] + c[kReadRetries]) + " validations");
  const double lookups = d(kPlanHits) + d(kPlanMisses) + d(kPlanBailouts);
  const std::string lookup_base =
      std::to_string(c[kPlanHits] + c[kPlanMisses] + c[kPlanBailouts]) + " plan-cache lookups";
  r.add("query.plan_cache_hit_ratio", ratio(d(kPlanHits), lookups), "ratio", n,
        total(kPlanHits, "hits") + " / " + lookup_base);
  r.add("query.plan_cache_bailout_ratio", ratio(d(kPlanBailouts), lookups), "ratio", n,
        total(kPlanBailouts, "bailouts") + " / " + lookup_base);
  r.add("space.records_scanned_per_commit", ratio(d(kScanned), d(kCommits)), "ratio", n,
        total(kScanned, "records scanned") + " / " + total(kCommits, "commits"));
  r.add("space.asserts", per(kAsserts), "count", n, per_it);
  r.add("space.retracts", per(kRetracts), "count", n, per_it);
  r.add("consensus.sweeps", per(kSweeps), "count", n, per_it);
  r.add("consensus.fires", per(kFires), "count", n, per_it);
  r.add("consensus.sweeps_per_fire", ratio(d(kSweeps), d(kFires)), "ratio", n,
        total(kSweeps, "sweeps") + " / " + total(kFires, "fires"));
  r.add("persist.logged_commits", per(kLogged), "count", n, per_it);
  r.add("persist.syncs", per(kSyncs), "count", n, per_it);
  r.add("persist.commits_per_sync", ratio(d(kLogged), d(kSyncs)), "ratio", n,
        total(kLogged, "logged commits") + " / " + total(kSyncs, "syncs"));
  r.add("persist.wal_bytes_per_commit",
        ratio(static_cast<double>(wal.dir_bytes), static_cast<double>(wal.logged_commits)), "B",
        n,
        std::to_string(wal.dir_bytes) + " WAL dir bytes / " +
            std::to_string(wal.logged_commits) + " logged commits (seeds included)");
  r.add("persist.recovered_commits", static_cast<double>(wal.recovered_commits) / it, "count", n,
        "per iteration, replayed at reopen");

  if (!obs::enabled()) return;
  r.add("txn.exclusive_locks_per_commit",
        ratio(static_cast<double>(o.exclusive_locks), d(kCommits)), "ratio", n,
        std::to_string(o.exclusive_locks) + " exclusive shard locks / " +
            total(kCommits, "commits"));
  for (std::size_t i = 0; i < kObsHists.size(); ++i) {
    r.add(kObsHists[i].metric,
          ratio(static_cast<double>(o.sum_ns[i]) * 1e-3, static_cast<double>(o.count[i])),
          "us", o.count[i], std::string(kObsHists[i].registry) + " samples");
  }
}

RuntimeOptions base_options(std::size_t threads) {
  RuntimeOptions opts;
  opts.scheduler.workers = threads;
  opts.scheduler.replication_width = threads;
  return opts;
}

/// Loops whole iterations until the next one (assumed as long as the
/// last) would end past the deadline; at least one. Records each
/// iteration's peak resident set in `r`.
template <typename Body>
void iterate(double seconds, Result& r, Body&& body) {
  const std::uint64_t start = now_ns();
  for (;;) {
    reset_peak_rss();
    const std::uint64_t t0 = now_ns();
    body(static_cast<std::uint32_t>(r.iterations));
    const std::uint64_t t1 = now_ns();
    ++r.iterations;
    r.rss_peaks_mb.push_back(peak_rss_mb());
    if (secs(start, t1) + secs(t0, t1) > seconds) return;
  }
}

std::vector<Tuple> resident_tuples(Runtime& rt) {
  std::vector<Tuple> out;
  for (Record& rec : rt.space().snapshot()) out.push_back(std::move(rec.tuple));
  return out;
}

// ---- the three sums ----

Result run_sum(const Args& a, e2e::SumStyle style, std::int64_t n, std::size_t threads,
               SpanRecorder& rec) {
  const e2e::SumInput in = e2e::make_sum_input(style, n, a.seed);
  const RuntimeOptions opts = base_options(threads);
  Result r;
  std::vector<double> setup_s, parse_s, load_s, run_s, txn_per_s, cpu_us_per_txn;
  Counts counts{};
  ObsCounts obs_counts;
  std::uint64_t spawned = 0;

  iterate(a.seconds, r, [&](std::uint32_t iter) {
    const SpanScope it_span(rec, "iteration", 0, iter);
    const std::uint64_t t0 = now_ns();
    std::unique_ptr<Runtime> rt;
    {
      const SpanScope s(rec, "runtime.construct", it_span.id(), iter);
      rt = std::make_unique<Runtime>(opts);
    }
    const std::uint64_t t1 = now_ns();
    lang::Program program;
    {
      const SpanScope s(rec, "lang.parse", it_span.id(), iter);
      program = lang::parse_program(in.source);
    }
    const std::uint64_t t2 = now_ns();
    {
      const SpanScope s(rec, "lang.load", it_span.id(), iter);
      lang::load_program(*rt, std::move(program));
    }
    const std::uint64_t t3 = now_ns();
    const Counts c0 = read_counts(*rt);
    const ObsCounts o0 = read_obs(*rt);
    RunReport report;
    const std::uint64_t cpu0 = cpu_ns();
    const std::uint64_t t4 = now_ns();
    {
      const SpanScope s(rec, "process.run", it_span.id(), iter);
      report = rt->run();
    }
    const std::uint64_t t5 = now_ns();
    const std::uint64_t cpu1 = cpu_ns();
    const Counts c1 = read_counts(*rt);
    accumulate(counts, diff(c1, c0));
    accumulate_obs(obs_counts, read_obs(*rt), o0);
    spawned += c1[kSpawned];
    {
      const SpanScope s(rec, "verify", it_span.id(), iter);
      const std::string err = e2e::verify_sum(resident_tuples(*rt), in.expected, report.clean());
      if (!err.empty()) r.errors.push_back("iteration " + std::to_string(iter) + ": " + err);
    }
    {
      const SpanScope s(rec, "runtime.destroy", it_span.id(), iter);
      rt.reset();
    }
    setup_s.push_back(secs(t0, t3));
    parse_s.push_back(secs(t1, t2));
    load_s.push_back(secs(t2, t3));
    run_s.push_back(secs(t4, t5));
    txn_per_s.push_back(static_cast<double>(n - 1) / secs(t4, t5));
    cpu_us_per_txn.push_back(static_cast<double>(cpu1 - cpu0) * 1e-3 / static_cast<double>(n - 1));
  });

  const std::uint64_t it = r.iterations;
  // A wrong answer fails every transaction of its iteration.
  r.attempted = it * static_cast<std::uint64_t>(n - 1);
  r.failed = std::min<std::uint64_t>(r.attempted, r.errors.size() * static_cast<std::uint64_t>(n - 1));
  r.add("setup_s", median(setup_s), "s", it, "median; construct + parse + load (seed, spawn)");
  r.add("txn_per_s", median(txn_per_s), "1/s", it,
        "median of (n-1)/run seconds, n=" + std::to_string(n));
  r.add("cpu_us_per_txn", median(cpu_us_per_txn), "us", it,
        "median of process CPU microseconds in Runtime::run / (n-1)");
  r.add("lang.parse_s", median(parse_s), "s", it, "median lang::parse_program seconds");
  r.add("lang.load_s", median(load_s), "s", it, "median lang::load_program seconds");
  r.add("process.run_s", median(run_s), "s", it, "median Runtime::run seconds");
  add_layer_metrics(r, counts, it == 0 ? 0 : spawned / it, WalTotals{}, obs_counts);
  return r;
}

// ---- kv_mixed: durable host-client mix, then recovery ----

struct ClientTxns {
  SymbolTable st;
  Env env;
  Transaction read;
  Transaction transfer;
  std::size_t k = 0;
  std::size_t a = 0;
  std::size_t b = 0;

  ClientTxns() {
    read = TxnBuilder().exists({"x"}).match(pat({E(evar("k")), V("x")})).build();
    transfer = TxnBuilder()
                   .exists({"x", "y"})
                   .match(pat({E(evar("a")), V("x")}), /*retract=*/true)
                   .match(pat({E(evar("b")), V("y")}), /*retract=*/true)
                   .assert_tuple({evar("a"), sub(evar("x"), lit(1))})
                   .assert_tuple({evar("b"), add(evar("y"), lit(1))})
                   .build();
    read.resolve(st);
    transfer.resolve(st);
    k = static_cast<std::size_t>(*st.lookup("k"));
    a = static_cast<std::size_t>(*st.lookup("a"));
    b = static_cast<std::size_t>(*st.lookup("b"));
    env.resize(static_cast<std::size_t>(st.size()));
  }
};

std::uint64_t dir_bytes(const fs::path& dir) {
  std::uint64_t n = 0;
  for (const fs::directory_entry& e : fs::recursive_directory_iterator(dir)) {
    if (e.is_regular_file()) n += e.file_size();
  }
  return n;
}

Result run_kv(const Args& a, std::size_t threads, SpanRecorder& rec) {
  const e2e::KvInput in = e2e::make_kv_input(kKvAccounts, threads, kKvOpsPerClient,
                                             kKvReadFrac, kKvTheta, a.seed);
  const std::vector<std::int64_t> expected = e2e::expected_balances(in);
  RuntimeOptions opts = base_options(threads);
  opts.persist.fsync_every = kKvFsyncEvery;

  Result r;
  r.notes = "WAL on, group commit fsync_every=" + std::to_string(kKvFsyncEvery) +
            ", no automatic snapshots; " + std::to_string(threads) +
            " closed-loop clients x " + std::to_string(kKvOpsPerClient) + " ops per iteration";
  std::vector<double> setup_s, parse_s, load_s, txn_per_s, cpu_us_per_txn, recovery_s;
  std::vector<double> read_p50, read_p99, write_p50, write_p99;  // per iteration, ns
  std::uint64_t n_reads = 0, n_writes = 0, n_failed = 0;
  // Per client, refilled every iteration.
  std::vector<std::vector<std::uint32_t>> read_ns(threads), write_ns(threads);
  std::vector<std::uint64_t> ok(threads, 0), failed(threads, 0);
  std::vector<std::string> client_error(threads);
  Counts counts{};
  ObsCounts obs_counts;
  WalTotals wal;

  iterate(a.seconds, r, [&](std::uint32_t iter) {
    const fs::path dir = fs::path(a.workdir) /
                         ("kv-wal-" + std::to_string(getpid()) + "-" + std::to_string(iter));
    fs::remove_all(dir);
    opts.persist.dir = dir.string();
    const SpanScope it_span(rec, "iteration", 0, iter);

    const std::uint64_t t0 = now_ns();
    std::unique_ptr<Runtime> rt;
    {
      const SpanScope s(rec, "runtime.construct", it_span.id(), iter);
      rt = std::make_unique<Runtime>(opts);
    }
    const std::uint64_t t1 = now_ns();
    lang::Program program;
    {
      const SpanScope s(rec, "lang.parse", it_span.id(), iter);
      program = lang::parse_program(in.init_source);
    }
    const std::uint64_t t2 = now_ns();
    {
      const SpanScope s(rec, "lang.load", it_span.id(), iter);
      lang::load_program(*rt, std::move(program));
    }
    const std::uint64_t t3 = now_ns();
    setup_s.push_back(secs(t0, t3));
    parse_s.push_back(secs(t1, t2));
    load_s.push_back(secs(t2, t3));

    const Counts c0 = read_counts(*rt);
    const ObsCounts o0 = read_obs(*rt);
    std::uint64_t c_start = 0, c_end = 0, cpu_start = 0, cpu_end = 0;
    {
      const SpanScope clients_span(rec, "kv.clients", it_span.id(), iter);
      std::latch start(static_cast<std::ptrdiff_t>(threads) + 1);
      std::vector<std::thread> pool;
      for (std::size_t c = 0; c < threads; ++c) {
        pool.emplace_back([&, c] {
          // Counters and samples stay thread-local until the stream ends,
          // so clients share no written cache line while timed.
          std::vector<std::uint32_t> rl, wl;
          std::uint64_t c_ok = 0, c_failed = 0;
          try {
            ClientTxns tx;
            const std::vector<e2e::KvOp>& ops = in.per_client[c];
            rl.reserve(ops.size());
            wl.reserve(ops.size());
            start.arrive_and_wait();
            for (std::size_t i = 0; i < ops.size(); ++i) {
              const e2e::KvOp& op = ops[i];
              const SpanRecorder::Id sid =
                  rec.begin(c + 1, op.transfer ? "execute.transfer" : "execute.read",
                            clients_span.id(), iter, static_cast<std::uint32_t>(i));
              const std::uint64_t s = now_ns();
              TxnResult res;
              if (op.transfer) {
                tx.env[tx.a] = Value(static_cast<std::int64_t>(op.a));
                tx.env[tx.b] = Value(static_cast<std::int64_t>(op.b));
                res = rt->execute(tx.transfer, tx.env);
              } else {
                tx.env[tx.k] = Value(static_cast<std::int64_t>(op.a));
                res = rt->execute(tx.read, tx.env);
              }
              const std::uint64_t lat = now_ns() - s;
              rec.end(sid);
              (op.transfer ? wl : rl)
                  .push_back(static_cast<std::uint32_t>(std::min<std::uint64_t>(lat, UINT32_MAX)));
              if (res.success && !res.shed) {
                ++c_ok;
              } else {
                ++c_failed;
              }
            }
          } catch (const std::exception& e) {
            client_error[c] = e.what();
          }
          read_ns[c] = std::move(rl);
          write_ns[c] = std::move(wl);
          ok[c] = c_ok;
          failed[c] = c_failed;
        });
      }
      start.arrive_and_wait();
      c_start = now_ns();
      cpu_start = cpu_ns();
      for (std::thread& t : pool) t.join();
      c_end = now_ns();
      cpu_end = cpu_ns();
    }
    std::uint64_t succeeded = 0;
    std::vector<std::uint32_t> reads, writes;
    for (std::size_t c = 0; c < threads; ++c) {
      succeeded += ok[c];
      n_failed += failed[c];
      reads.insert(reads.end(), read_ns[c].begin(), read_ns[c].end());
      writes.insert(writes.end(), write_ns[c].begin(), write_ns[c].end());
      if (!client_error[c].empty()) {
        r.errors.push_back("client " + std::to_string(c) + ": " + client_error[c]);
        client_error[c].clear();
      }
    }
    txn_per_s.push_back(static_cast<double>(succeeded) / secs(c_start, c_end));
    cpu_us_per_txn.push_back(static_cast<double>(cpu_end - cpu_start) * 1e-3 /
                             static_cast<double>(std::max<std::uint64_t>(succeeded, 1)));
    std::sort(reads.begin(), reads.end());
    std::sort(writes.begin(), writes.end());
    read_p50.push_back(quantile(reads, 0.50));
    read_p99.push_back(quantile(reads, 0.99));
    write_p50.push_back(quantile(writes, 0.50));
    write_p99.push_back(quantile(writes, 0.99));
    n_reads += reads.size();
    n_writes += writes.size();
    accumulate(counts, diff(read_counts(*rt), c0));
    accumulate_obs(obs_counts, read_obs(*rt), o0);

    std::vector<Tuple> before;
    {
      const SpanScope s(rec, "verify.balances", it_span.id(), iter);
      before = resident_tuples(*rt);
      const std::string err = e2e::verify_balances(before, expected);
      if (!err.empty()) r.errors.push_back("iteration " + std::to_string(iter) + ": " + err);
    }
    wal.logged_commits += rt->persist()->stats().logged_commits;
    {
      const SpanScope s(rec, "runtime.shutdown", it_span.id(), iter);
      rt.reset();
    }
    wal.dir_bytes += dir_bytes(dir);

    const SpanScope rec_span(rec, "recovery", it_span.id(), iter);
    const std::uint64_t t4 = now_ns();
    {
      const SpanScope s(rec, "runtime.reopen", rec_span.id(), iter);
      rt = std::make_unique<Runtime>(opts);
    }
    {
      const SpanScope s(rec, "verify.recovered", rec_span.id(), iter);
      const std::string err = e2e::verify_recovered(std::move(before), resident_tuples(*rt));
      if (!err.empty()) r.errors.push_back("iteration " + std::to_string(iter) + ": " + err);
    }
    recovery_s.push_back(secs(t4, now_ns()));
    wal.recovered_commits += rt->persist()->stats().recovered_commits;
    rt.reset();
    fs::remove_all(dir);
  });

  r.attempted = n_reads + n_writes;
  r.failed = r.errors.empty() ? n_failed : r.attempted;

  const std::uint64_t it = r.iterations;
  r.add("setup_s", median(setup_s), "s", it,
        "median; open WAL dir + parse + load " + std::to_string(kKvAccounts) + " accounts");
  r.add("txn_per_s", median(txn_per_s), "1/s", it,
        "median of successful Runtime::execute calls per wall second");
  r.add("cpu_us_per_txn", median(cpu_us_per_txn), "us", it,
        "median of process CPU microseconds while clients run / successful calls");
  const std::string per_iter = "median over iterations of each iteration's quantile; ";
  r.add("read_p50_us", median(read_p50) * 1e-3, "us", n_reads, per_iter + "point reads");
  r.add("read_p99_us", median(read_p99) * 1e-3, "us", n_reads, per_iter + "point reads");
  r.add("write_p50_us", median(write_p50) * 1e-3, "us", n_writes, per_iter + "transfers");
  r.add("write_p99_us", median(write_p99) * 1e-3, "us", n_writes, per_iter + "transfers");
  r.add("recovery_s", median(recovery_s), "s", it, "median reopen + verify recovered state");
  r.add("lang.parse_s", median(parse_s), "s", it, "median lang::parse_program seconds");
  r.add("lang.load_s", median(load_s), "s", it, "median lang::load_program seconds");
  r.add("process.run_s", 0.0, "s", it, "Runtime::run is never called");
  add_layer_metrics(r, counts, 0, wal, obs_counts);
  return r;
}

// ---- self-test: each verifier rejects a corrupted answer ----

int selftest() {
  int bad = 0;
  auto expect = [&](bool cond, const char* what) {
    std::cout << (cond ? "ok   " : "FAIL ") << what << "\n";
    if (!cond) ++bad;
  };
  const std::vector<Tuple> one{tup(8, 396)};
  expect(e2e::verify_sum(one, 396, true).empty(), "sum: right answer accepted");
  expect(!e2e::verify_sum({tup(8, 395)}, 396, true).empty(), "sum: wrong sum rejected");
  expect(!e2e::verify_sum({tup(8, 396), tup(4, 0)}, 396, true).empty(),
         "sum: two resident tuples rejected");
  expect(!e2e::verify_sum(one, 396, false).empty(), "sum: unclean run rejected");

  const e2e::KvInput in = e2e::make_kv_input(64, 2, 500, 0.5, 0.99, 7);
  const std::vector<std::int64_t> want = e2e::expected_balances(in);
  std::vector<Tuple> accounts;
  for (std::size_t k = 0; k < want.size(); ++k) {
    accounts.push_back(tup(static_cast<std::int64_t>(k), want[k]));
  }
  expect(e2e::verify_balances(accounts, want).empty(), "balances: right state accepted");
  std::vector<Tuple> lost = accounts;
  lost[3] = tup(3, want[3] - 1);
  expect(!e2e::verify_balances(lost, want).empty(), "balances: one missing unit rejected");
  std::vector<Tuple> moved = accounts;
  moved[3] = tup(3, want[3] - 1);
  moved[5] = tup(5, want[5] + 1);
  expect(!e2e::verify_balances(moved, want).empty(),
         "balances: conserved but misplaced unit rejected");

  expect(e2e::verify_recovered(accounts, accounts).empty(), "recovery: equal state accepted");
  std::vector<Tuple> dropped(accounts.begin(), accounts.end() - 1);
  expect(!e2e::verify_recovered(accounts, dropped).empty(),
         "recovery: one dropped tuple rejected");
  std::vector<Tuple> dup = dropped;
  dup.push_back(accounts.front());
  expect(!e2e::verify_recovered(accounts, dup).empty(),
         "recovery: duplicate in place of a dropped tuple rejected");
  return bad == 0 ? 0 : 1;
}

int usage() {
  std::cerr << "usage: sdl_e2e --workload <name> --seed <n> --seconds <s> "
               "[--workdir <dir>] [--spans <file.csv>]\n"
               "       sdl_e2e --workload <name> --seed <n> --emit-input\n"
               "       sdl_e2e --selftest\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  bool emit = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--selftest") return selftest();
    if (arg == "--emit-input") {
      emit = true;
      continue;
    }
    if (i + 1 == argc) return usage();
    const std::string v = argv[++i];
    if (arg == "--workload") {
      a.workload = v;
    } else if (arg == "--seed") {
      a.seed = std::stoull(v);
    } else if (arg == "--seconds") {
      a.seconds = std::stod(v);
    } else if (arg == "--workdir") {
      a.workdir = v;
    } else if (arg == "--spans") {
      a.spans_path = v;
    } else {
      return usage();
    }
  }
  const auto sum = std::find_if(kSums.begin(), kSums.end(),
                                [&](const SumWorkload& w) { return a.workload == w.name; });
  const bool kv = a.workload == kKvWorkload;
  if (sum == kSums.end() && !kv) return usage();

  const std::size_t cores = nproc();
  // Half the CPUs, at most 4: on a shared virtual machine the kernel then
  // has idle CPUs to move a thread to when the host stalls one of them.
  std::size_t threads = std::clamp<std::size_t>(cores / 2, 1, 4);
  if (!kv && sum->one_worker) threads = 1;
  if (emit) {
    std::cout << (kv ? e2e::render_kv_input(e2e::make_kv_input(kKvAccounts, threads,
                                                                kKvOpsPerClient, kKvReadFrac,
                                                                kKvTheta, a.seed))
                     : e2e::make_sum_input(sum->style, sum->n, a.seed).source);
    return 0;
  }

  SpanRecorder rec(a.spans_path.empty() ? 0 : threads + 1, kSpanLaneCapacity);
  Result r;
  try {
    r = kv ? run_kv(a, threads, rec) : run_sum(a, sum->style, sum->n, threads, rec);
  } catch (const std::exception& e) {
    std::cerr << "sdl_e2e: " << a.workload << ": " << e.what() << "\n";
    return 1;
  }
  r.add("failed_ops_frac", ratio(static_cast<double>(r.failed), static_cast<double>(r.attempted)),
        "ratio", r.attempted, "failed or shed / attempted; a wrong answer fails its iteration");
  r.add("peak_rss_mb", median(r.rss_peaks_mb), "MB", r.iterations,
        "median over iterations of the resident-set high-water mark");

  std::string out = "{\"workload\":" + json_str(a.workload) +
                    ",\"seed\":" + std::to_string(a.seed) +
                    ",\"threads\":" + std::to_string(threads) +
                    ",\"nproc\":" + std::to_string(cores) +
                    ",\"compiler\":" + json_str(kCompiler) +
                    ",\"build_type\":" + json_str(SDL_E2E_BUILD_TYPE) +
                    ",\"sdl_obs\":" + (obs::enabled() ? "true" : "false") +
                    ",\"iterations\":" + std::to_string(r.iterations) +
                    ",\"attempted\":" + std::to_string(r.attempted) +
                    ",\"failed\":" + std::to_string(r.failed) +
                    ",\"notes\":" + json_str(r.notes) + ",\"errors\":[";
  for (std::size_t i = 0; i < r.errors.size(); ++i) {
    out += (i ? "," : "") + json_str(r.errors[i]);
  }
  out += "],\"metrics\":{";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    out += (i ? "," : "") + json_str(m.name) + ":{\"value\":" + fmt(m.value) +
           ",\"unit\":" + json_str(m.unit) + ",\"samples\":" + std::to_string(m.samples) +
           ",\"base\":" + json_str(m.base) + "}";
  }
  out += "}";
  if (rec.enabled()) {
    out += ",\"spans\":{\"file\":" + json_str(a.spans_path) +
           ",\"recorded\":" + std::to_string(rec.recorded()) +
           ",\"dropped\":" + std::to_string(rec.dropped()) + ",\"by_name\":{";
    bool first = true;
    for (const auto& [name, t] : rec.totals()) {
      out += (first ? "" : ",") + json_str(name) + ":{\"count\":" + std::to_string(t.count) +
             ",\"total_s\":" + fmt(t.total_s) + ",\"self_s\":" + fmt(t.self_s) + "}";
      first = false;
    }
    out += "}}";
    if (!rec.dump(a.spans_path)) {
      std::cerr << "sdl_e2e: cannot write spans to " << a.spans_path << "\n";
      return 1;
    }
  }
  out += "}";
  std::cout << out << std::endl;
  return r.errors.empty() ? 0 : 1;
}

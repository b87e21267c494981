// perfbench - the repository benchmark (see README.md in this directory).
//
//   bnb_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                 [--calls K] [--work-dir DIR]
//
// Runs one named workload against the library's public entry points,
// checks every delivery against its permutation outside the timed calls,
// and prints a human-readable report followed, as the LAST line of stdout,
// by one JSON object {"correct", "attempted", "failed", "metrics"}.  With
// --trace 0 the metrics are the end-to-end ones (library defaults, no span
// sink, no benchmark-side spans); with --trace 1 they are the per-layer
// ones, taken from calls that alternate untraced/traced.  --calls K runs
// exactly K timed calls instead of a time window (tests use it to compare
// exact counts across runs).  A traced run writes its Chrome trace to
// DIR/trace-NAME-seedN.json.  Exit code 0 when the run completed, 1 when a
// correctness or workload-identity check failed, 2 on bad arguments.
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_set>
#include <utility>
#include <vector>

#include "call_trace.hpp"
#include "common/rng.hpp"
#include "core/compiled_bnb.hpp"
#include "core/kernels/kernel_set.hpp"
#include "core/schedule_cache.hpp"
#include "core/schedule_store.hpp"
#include "fabric/stream_engine.hpp"
#include "fault/fault_model.hpp"
#include "fault/resilience.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "obs/trace_context.hpp"
#include "perm/generators.hpp"
#include "perm/permutation.hpp"

namespace {

using bnb::obs::now_ns;
using perfbench::CallTracer;
using perfbench::Layer;
using perfbench::SpanKind;

// Calls of a traced run whose spans are written to the Chrome trace.
constexpr std::size_t kExportCalls = 64;
// Set-ups per run; setup_s is their median and the last one is timed.
constexpr unsigned kSetups = 5;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::uint64_t calls = 0;  ///< 0 = run for `seconds`
  std::string work_dir = ".";
  std::string trace_out;  ///< derived: where a traced run writes its spans
};

// ---------------------------------------------------------------- helpers

std::uint64_t cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ULL +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

/// Peak resident set (VmHWM) of this process in MiB.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/// Linear-interpolated quantile of an ascending-sorted sample.
double quantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return quantile(v, 0.5);
}

/// FNV-1a over the generated inputs and draws: equal seeds give equal
/// digests, so tests can compare input sequences across runs.
struct InputDigest {
  std::uint64_t h = 1469598103934665603ULL;
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xFF;
      h *= 1099511628211ULL;
    }
  }
  void add(const bnb::Permutation& p) {
    for (const auto v : p.image()) add(v);
  }
};

std::vector<bnb::Permutation> random_pool(std::size_t count, std::size_t n, bnb::Rng& rng,
                                          InputDigest& digest) {
  std::vector<bnb::Permutation> pool;
  pool.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    pool.push_back(bnb::random_perm(n, rng));
    digest.add(pool.back());
  }
  return pool;
}

/// Row `p` of a permutation-major dest array of N-line rows.
std::span<const std::uint32_t> row(const std::vector<std::uint32_t>& dest, std::size_t p,
                                   std::size_t n) {
  return std::span<const std::uint32_t>(dest).subspan(p * n, n);
}

/// True when dest (input -> line) delivers every input j to line pi(j).
bool delivered_ok(std::span<const std::uint32_t> dest, const bnb::Permutation& pi) {
  if (dest.size() != pi.size()) return false;
  for (std::size_t j = 0; j < dest.size(); ++j) {
    if (dest[j] != pi(j)) return false;
  }
  return true;
}

std::uint64_t counter_value(const bnb::obs::RegistrySnapshot& snap,
                            std::string_view name) {
  const bnb::obs::MetricSnapshot* m = snap.find(name);
  return m == nullptr ? 0 : m->counter;
}

/// {sum, count} of the bnb_cache_probe_len histogram in `registry`.
std::pair<std::uint64_t, std::uint64_t> probe_totals(
    const bnb::obs::MetricsRegistry& registry) {
  const bnb::obs::RegistrySnapshot snap = registry.snapshot();
  const bnb::obs::MetricSnapshot* h = snap.find("bnb_cache_probe_len");
  if (h == nullptr) return {0, 0};
  return {h->histogram.sum, h->histogram.count};
}

// ---------------------------------------------------------------- results

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::uint32_t clamp32(std::uint64_t v) {
  return static_cast<std::uint32_t>(std::min<std::uint64_t>(v, UINT32_MAX));
}

struct Outcome {
  std::uint64_t attempted = 0;   ///< permutations offered in timed calls
  std::uint64_t failed = 0;      ///< not delivered, delivered wrongly, or shed
  std::uint64_t input_digest = 0;
  std::vector<std::string> check_failures;
  std::vector<std::pair<std::string, std::uint64_t>> counts;

  // Untraced calls (all calls when --trace 0), kept compact so the
  // records add little to peak_rss_mb: 4 bytes per call (8 per frame).
  std::vector<std::uint32_t> latency_ns;  ///< per call: issue to completion
  std::vector<std::uint32_t> lag_ns;      ///< per frame, open loop: due to issue
  std::uint64_t call_ns = 0;              ///< sum of untraced call latencies
  std::uint64_t call_ok = 0;              ///< verified perms in untraced calls
  std::uint64_t call_cpu_ns = 0;          ///< process CPU inside untraced calls
  double window_s = 0.0;  ///< open loop: first due -> last completion
  bool open_loop = false;
  std::vector<double> setup_s;

  // Traced calls.
  std::uint64_t traced_call_ns = 0;
  std::uint64_t traced_perms = 0;
  std::map<std::string, double> layer;  ///< per-layer metrics by name

  void check(bool ok, const std::string& what) {
    if (!ok) check_failures.push_back(what);
  }

  void record(std::uint64_t ns, std::uint64_t ok, std::uint64_t cpu) {
    latency_ns.push_back(clamp32(ns));
    call_ns += ns;
    call_ok += ok;
    call_cpu_ns += cpu;
  }
};

/// Traced calls: the library's span sink plus the benchmark's own spans.
struct TraceSession {
  bnb::obs::SpanTrace sink{16384};
  CallTracer tracer{kExportCalls};
  std::uint32_t tid = bnb::obs::current_thread_id();
  std::uint64_t dropped = 0;

  void begin(std::uint64_t call) {
    sink.clear();
    tracer.begin_call(call, tid);
    bnb::obs::set_trace(&sink);
  }
  void end(std::uint64_t bracket_start, std::uint64_t bracket_end) {
    bnb::obs::set_trace(nullptr);
    dropped += sink.dropped();
    tracer.add_program(sink.snapshot());
    tracer.close_call(bracket_start, bracket_end);
  }
};

/// Runs set-up kSetups times, timing each; returns the last instance.
template <typename Make>
auto repeated_setup(Outcome& out, Make&& make) {
  decltype(make()) kept;
  for (unsigned r = 0; r < kSetups; ++r) {
    kept.reset();
    const std::uint64_t t0 = now_ns();
    kept = make();
    out.setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }
  return kept;
}

struct CallResult {
  std::uint64_t start = 0;
  std::uint64_t end = 0;
  std::uint64_t cpu = 0;
  std::uint64_t perms = 0;
  std::uint64_t ok = 0;
};

/// The closed-loop driver shared by the two closed workloads: issues calls
/// until the window (or the call count) is spent, alternating untraced and
/// traced calls in a traced run.  `call(index, traced)` performs one call
/// and returns its bracket, CPU time and verified permutation count.
template <typename Call>
void closed_loop(const Args& args, Outcome& out, TraceSession* session, Call&& call) {
  const std::uint64_t window_end =
      now_ns() + static_cast<std::uint64_t>(args.seconds * 1e9);
  for (std::uint64_t k = 1;; ++k) {
    if (args.calls != 0 ? k > args.calls : now_ns() >= window_end) break;
    const bool traced = session != nullptr && (k % 2 == 0);
    const CallResult r = call(k, traced);
    out.attempted += r.perms;
    out.failed += r.perms - r.ok;
    if (traced) {
      out.traced_call_ns += r.end - r.start;
      out.traced_perms += r.perms;
    } else {
      out.record(r.end - r.start, r.ok, r.cpu);
    }
  }
}

double per_perm_us(std::uint64_t ns, std::uint64_t perms) {
  return perms == 0 ? 0.0 : static_cast<double>(ns) / 1e3 / static_cast<double>(perms);
}
double per_kperm(std::uint64_t count, std::uint64_t perms) {
  return perms == 0 ? 0.0
                    : 1000.0 * static_cast<double>(count) / static_cast<double>(perms);
}
double ratio(std::uint64_t num, std::uint64_t den) {
  return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
}

/// Per-layer metrics every workload reports from its traced calls; the
/// workload adds its own counters and ratios after these.  The run fails
/// when more than `unattributed_bound` of the traced call time is charged
/// to no layer (each workload sets its bound from measured runs).
void common_layer_metrics(const TraceSession& ts, Outcome& out,
                          double unattributed_bound) {
  const CallTracer& t = ts.tracer;
  const std::uint64_t perms = out.traced_perms;
  const std::uint64_t solve_ns =
      t.total_ns("compiled_bnb.solve") + t.total_ns("compiled_bnb.route");
  const std::uint64_t solves =
      t.count("compiled_bnb.solve") + t.count("compiled_bnb.route");
  const std::uint64_t apply_ns =
      t.total_ns("compiled_bnb.apply") + t.total_ns("compiled_bnb.apply_small");
  out.layer["compiled_bnb.solve_us_per_perm"] = per_perm_us(solve_ns, perms);
  out.layer["compiled_bnb.solves_per_kperm"] = per_kperm(solves, perms);
  out.layer["compiled_bnb.apply_us_per_perm"] = per_perm_us(apply_ns, perms);
  out.layer["stream_engine.queue_wait_us_per_perm"] =
      per_perm_us(t.total_ns("stream_engine.queue_wait"), perms);
  out.layer["delivery_audit.audit_us_per_perm"] =
      per_perm_us(t.total_ns("delivery_audit.audit"), perms);

  // Traced vs untraced throughput of the same process, same inputs.
  const double untraced = ratio(out.call_ns, out.attempted - out.traced_perms);
  const double traced = ratio(out.traced_call_ns, out.traced_perms);
  out.layer["bench.trace_overhead_share"] =
      untraced > 0.0 ? traced / untraced - 1.0 : 0.0;
  const double unattributed =
      t.bracket_ns() == 0 ? 0.0 : 1.0 - ratio(t.attributed_ns(), t.bracket_ns());
  out.layer["bench.unattributed_share"] = unattributed;
  out.check(unattributed <= unattributed_bound,
            "bench.unattributed_share above " + std::to_string(unattributed_bound));
  out.check(ts.dropped == 0,
            "span sink overflowed (" + std::to_string(ts.dropped) + " dropped)");
}

// ================================================================ workloads

// cold_batch_m14: every route is a cold control solve on the route_batch
// pool.  No cache exists, so cycling a pool of distinct permutations
// shares no work between calls.
void run_cold_batch_m14(const Args& args, Outcome& out, TraceSession* ts) {
  constexpr unsigned kM = 14;
  constexpr std::size_t kPool = 1024;
  constexpr std::size_t kBatch = 32;
  constexpr unsigned kWorkers = 4;
  constexpr std::size_t kWarmupCalls = 8;
  const std::size_t n = std::size_t{1} << kM;

  bnb::Rng rng(args.seed * 0x9E3779B97F4A7C15ULL + 14);
  InputDigest digest;
  const std::vector<bnb::Permutation> pool = random_pool(kPool, n, rng, digest);
  const auto slice = [&](std::uint64_t k) {
    return std::span<const bnb::Permutation>(pool).subspan((k * kBatch) % kPool, kBatch);
  };
  const auto verify = [&](const bnb::BatchResult& res,
                          std::span<const bnb::Permutation> perms) {
    std::uint64_t ok = 0;
    for (std::size_t p = 0; p < perms.size(); ++p) {
      ok += delivered_ok(row(res.dest, p, n), perms[p]) ? 1 : 0;
    }
    return ok;
  };

  const auto cache_counters = [] {
    const bnb::obs::RegistrySnapshot snap =
        bnb::obs::MetricsRegistry::global().snapshot();
    std::uint64_t sum = 0;
    for (const auto* name : {"bnb_cache_hits_total", "bnb_cache_misses_total",
                             "bnb_cache_evictions_total", "bnb_cache_bypasses_total",
                             "bnb_cache_quarantined_total", "bnb_small_route_total"}) {
      sum += counter_value(snap, name);
    }
    return sum;
  };
  const std::uint64_t cache_before = cache_counters();

  // Set-up: compile the plan and warm the pool past its first calls.
  std::uint64_t warm_ok = 0;
  auto plan = repeated_setup(out, [&] {
    auto p = std::make_unique<bnb::CompiledBnb>(kM);
    for (std::size_t w = 0; w < kWarmupCalls; ++w) {
      warm_ok += verify(p->route_batch(slice(w), kWorkers), slice(w));
    }
    return p;
  });
  out.check(warm_ok == kSetups * kWarmupCalls * kBatch, "warm-up delivered wrongly");

  closed_loop(args, out, ts, [&](std::uint64_t k, bool traced) {
    const std::span<const bnb::Permutation> perms = slice(kWarmupCalls + k);
    CallResult r;
    if (traced) ts->begin(k);
    const std::uint64_t c0 = cpu_ns();
    r.start = now_ns();
    const std::uint64_t s = traced ? now_ns() : 0;
    const bnb::BatchResult res = plan->route_batch(perms, kWorkers);
    const std::uint64_t e = traced ? now_ns() : 0;
    r.end = now_ns();
    r.cpu = cpu_ns() - c0;
    if (traced) {
      ts->tracer.add("CompiledBnb::route_batch", Layer::kRouteBatch, SpanKind::kContainer,
                     s, e);
      ts->end(r.start, r.end);
    }
    r.perms = perms.size();
    r.ok = verify(res, perms);
    return r;
  });

  const std::uint64_t moved = cache_counters() - cache_before;
  out.check(moved == 0, "cache counters moved on a cache-free workload");
  out.input_digest = digest.h;
  out.counts = {{"calls", out.latency_ns.size()}, {"cache_counter_moves", moved}};

  if (ts != nullptr) {
    // Measured 0.02 on a quiet 4-vCPU VM and 0.04 on a contended one: pool
    // wake-up and gather, while no worker is inside a route.
    common_layer_metrics(*ts, out, 0.10);
    const CallTracer& t = ts->tracer;
    const std::uint64_t calls = t.calls();
    out.layer["route_batch.worker_busy_share"] =
        ratio(t.caller_leaf_ns() + t.other_leaf_ns(), kWorkers * t.bracket_ns());
    out.layer["route_batch.call_overhead_us"] =
        calls == 0 ? 0.0
                   : static_cast<double>(t.bracket_ns() - t.critical_leaf_ns()) / 1e3 /
                         static_cast<double>(calls);
  }
}

// hot_stream_m12: a 512-permutation working set served entirely from a
// warm-started ScheduleCache through the pipelined StreamEngine.  After
// set-up no route solves; digest, lookup, replay and the stream handoff
// carry the work, and the ~18 MB of schedules exceed L2.
void run_hot_stream_m12(const Args& args, Outcome& out, TraceSession* ts) {
  constexpr unsigned kM = 12;
  constexpr std::size_t kWorkingSet = 512;
  constexpr std::size_t kCapacity = 1024;
  constexpr std::size_t kBatch = 64;
  const std::size_t n = std::size_t{1} << kM;

  bnb::Rng rng(args.seed * 0x9E3779B97F4A7C15ULL + 12);
  InputDigest digest;
  const std::vector<bnb::Permutation> ws = random_pool(kWorkingSet, n, rng, digest);

  // Untimed pre-step: persist the working set's schedules as a schedstore.
  const std::string store = args.work_dir + "/hot_stream_m12-seed" +
                            std::to_string(args.seed) + ".schedstore";
  {
    bnb::obs::MetricsRegistry reg;
    const bnb::CompiledBnb plan(kM);
    bnb::ScheduleCache cache(kCapacity, 8, &reg);
    bnb::RouteScratch scratch;
    bnb::ControlSchedule schedule;
    for (const bnb::Permutation& p : ws) {
      plan.solve(p, scratch, schedule);
      cache.insert(bnb::digest_permutation(p), schedule);
    }
    cache.save(store);
  }

  struct Instance {
    std::unique_ptr<bnb::obs::MetricsRegistry> reg;
    std::unique_ptr<bnb::CompiledBnb> plan;
    std::unique_ptr<bnb::ScheduleCache> cache;
    std::unique_ptr<bnb::StreamEngine> engine;
    void reset() {
      engine.reset();
      cache.reset();
      plan.reset();
      reg.reset();
    }
  };
  std::vector<double> warm_start_ms;
  bool warm_ok = true;
  Instance inst = repeated_setup(out, [&] {
    Instance i;
    i.reg = std::make_unique<bnb::obs::MetricsRegistry>();
    i.plan = std::make_unique<bnb::CompiledBnb>(kM);
    i.cache = std::make_unique<bnb::ScheduleCache>(kCapacity, 8, i.reg.get());
    bnb::StreamEngine::Options opt;
    opt.threads = 4;
    opt.cache = i.cache.get();
    opt.registry = i.reg.get();
    i.engine = std::make_unique<bnb::StreamEngine>(*i.plan, opt);
    const std::uint64_t w0 = now_ns();
    (void)i.cache->warm_start(store);
    const std::uint64_t w1 = now_ns();
    warm_start_ms.push_back(static_cast<double>(w1 - w0) / 1e6);
    if (ts != nullptr) {
      ts->tracer.add_untimed("ScheduleCache::warm_start", Layer::kScheduleStore, w0, w1,
                             0);
    }
    // Warm-up pass: every working-set schedule promoted into the table.
    for (std::size_t b = 0; b < kWorkingSet; b += kBatch) {
      const auto perms = std::span<const bnb::Permutation>(ws).subspan(b, kBatch);
      const bnb::StreamEngine::Result res = i.engine->run(perms);
      for (std::size_t p = 0; p < perms.size(); ++p) {
        warm_ok &= delivered_ok(row(res.dest, p, n), perms[p]);
      }
    }
    return i;
  });
  std::remove(store.c_str());
  out.check(warm_ok, "warm-up delivered wrongly");
  const bnb::ScheduleCacheStats after_setup = inst.cache->stats();
  out.check(after_setup.store_loaded == kWorkingSet,
            "warm start did not promote the working set");

  bnb::Rng draws(args.seed * 0xD1B54A32D192ED03ULL + 12);
  std::vector<bnb::Permutation> batch(kBatch);
  std::uint64_t solved = 0;
  std::uint64_t hits = 0;
  std::uint64_t ring_high_water = 0;
  unsigned threads_used = 0;
  std::uint64_t digest_ns = 0;
  const auto probe_hist = [&] { return probe_totals(*inst.reg); };
  const auto probes_before = probe_hist();

  closed_loop(args, out, ts, [&](std::uint64_t k, bool traced) {
    for (std::size_t i = 0; i < kBatch; ++i) {
      const std::uint64_t idx = draws.below(kWorkingSet);
      digest.add(idx);
      batch[i] = ws[idx];
    }
    CallResult r;
    if (traced) ts->begin(k);
    const std::uint64_t c0 = cpu_ns();
    r.start = now_ns();
    const std::uint64_t s = traced ? now_ns() : 0;
    const bnb::StreamEngine::Result res = inst.engine->run(batch);
    const std::uint64_t e = traced ? now_ns() : 0;
    r.end = now_ns();
    r.cpu = cpu_ns() - c0;
    if (traced) {
      ts->tracer.add("StreamEngine::run", Layer::kStreamEngine, SpanKind::kContainer, s,
                     e);
      ts->end(r.start, r.end);
      // The solver stage digests inside run() without a span of its own;
      // time digest_permutation on the same permutations here instead.
      for (const bnb::Permutation& p : batch) {
        const std::uint64_t d0 = now_ns();
        (void)bnb::digest_permutation(p);
        const std::uint64_t d1 = now_ns();
        digest_ns += d1 - d0;
        ts->tracer.add_untimed("digest_permutation", Layer::kScheduleCache, d0, d1, k);
      }
    }
    solved += res.stats.solved;
    hits += res.stats.cache_hits;
    ring_high_water = std::max(ring_high_water, res.stats.ring_high_water);
    threads_used = std::max(threads_used, res.stats.threads_used);
    r.perms = kBatch;
    for (std::size_t p = 0; p < kBatch; ++p) {
      const bool ok = res.status[p] == bnb::StreamItemStatus::kOk &&
                      delivered_ok(row(res.dest, p, n), batch[p]);
      r.ok += ok ? 1 : 0;
    }
    return r;
  });

  const bnb::ScheduleCacheStats st = inst.cache->stats();
  const std::uint64_t d_hits = st.hits - after_setup.hits;
  const std::uint64_t d_misses = st.misses - after_setup.misses;
  const std::uint64_t d_evictions = st.evictions - after_setup.evictions;
  out.check(d_misses == 0 && d_hits == out.attempted && hits == out.attempted,
            "hot stream missed the cache");
  out.check(solved == 0, "hot stream solved after set-up");
  out.input_digest = digest.h;
  out.counts = {{"hits", d_hits}, {"misses", d_misses}, {"evictions", d_evictions},
                {"solves", solved}, {"stream_hits", hits}};

  if (ts != nullptr) {
    // Measured below 0.001 on a 4-vCPU VM: the engine's run span covers
    // the whole call.
    common_layer_metrics(*ts, out, 0.05);
    const CallTracer& t = ts->tracer;
    const auto probes_after = probe_hist();
    out.layer["schedule_cache.digest_us_per_perm"] =
        per_perm_us(digest_ns, out.traced_perms);
    out.layer["schedule_cache.lookup_us_per_perm"] =
        per_perm_us(t.total_ns("schedule_cache.find"), out.traced_perms);
    out.layer["schedule_cache.probe_len_avg"] =
        ratio(probes_after.first - probes_before.first,
              probes_after.second - probes_before.second);
    out.layer["schedule_cache.hit_ratio"] = ratio(d_hits, d_hits + d_misses);
    out.layer["schedule_cache.evictions_per_kperm"] =
        per_kperm(d_evictions, out.attempted);
    out.layer["schedule_store.warm_start_ms"] = median(warm_start_ms);
    out.layer["schedule_store.records_promoted"] =
        static_cast<double>(after_setup.store_loaded);
    out.layer["stream_engine.ring_high_water"] = static_cast<double>(ring_high_water);
    out.layer["stream_engine.threads_used"] = threads_used;
    out.layer["stream_engine.stage_busy_share"] =
        ratio(t.caller_leaf_ns() + t.other_leaf_ns(), 2 * t.bracket_ns());
  }
}

// switch_m6_open: the 64-port switch under open-loop load.  One frame is
// due every 50 us; each goes through ResilientRouter::route over a small
// cache, with Zipf(0.9) traffic over 1024 permutations (hits, misses,
// inserts and evictions all occur) and a seeded 2% of frames inside a
// transient 3-fault glitch (the retry and backoff path sets the tail).
void run_switch_m6_open(const Args& args, Outcome& out, TraceSession* ts) {
  constexpr unsigned kM = 6;
  constexpr std::size_t kDistinct = 1024;
  constexpr std::size_t kCapacity = 256;
  constexpr double kZipf = 0.9;
  constexpr double kGlitchShare = 0.02;
  constexpr std::uint64_t kPeriodNs = 50'000;
  constexpr std::size_t kWarmupFrames = 4096;
  const std::size_t n = std::size_t{1} << kM;
  out.open_loop = true;

  bnb::Rng rng(args.seed * 0x9E3779B97F4A7C15ULL + 6);
  InputDigest digest;
  const std::vector<bnb::Permutation> perms = random_pool(kDistinct, n, rng, digest);
  {
    std::unordered_set<std::uint64_t> seen;
    for (const bnb::Permutation& p : perms) seen.insert(bnb::digest_permutation(p).lo);
    out.check(seen.size() == kDistinct, "switch permutations are not distinct");
  }
  std::vector<double> cdf(kDistinct);
  double acc = 0.0;
  for (std::size_t r = 0; r < kDistinct; ++r) {
    acc += 1.0 / std::pow(static_cast<double>(r + 1), kZipf);
    cdf[r] = acc;
  }
  for (double& c : cdf) c /= acc;
  const auto zipf = [&](bnb::Rng& g) {
    const auto it = std::lower_bound(cdf.begin(), cdf.end(), g.uniform01());
    return std::min<std::size_t>(static_cast<std::size_t>(it - cdf.begin()),
                                 kDistinct - 1);
  };

  // The fixed glitch: three flipped links entering the first splitter
  // column.  Each flips the address bit that column sorts on, so a
  // glitched attempt misroutes whatever the permutation and the retry
  // path runs on every glitched frame.
  bnb::FaultModel glitch(kM);
  for (const std::uint32_t line : {5U, 26U, 47U}) {
    glitch.add(bnb::FaultSpec{bnb::FaultKind::kLinkFlip, {0, 0, 0, line}, false, 0, 0});
  }

  // Traced runs mirror every cache operation of the router into a second
  // cache of the same capacity, timed from here: the router's fast path
  // digests, looks up and inserts without spans of its own.
  struct Mirror {
    bnb::obs::MetricsRegistry reg;
    bnb::CompiledBnb plan{kM};
    bnb::RouteScratch scratch;
    bnb::ScheduleCache cache{kCapacity, 8, &reg};
    std::uint64_t digest_ns = 0;
    std::uint64_t find_ns = 0;
    std::uint64_t insert_ns = 0;
  };
  struct Instance {
    std::unique_ptr<bnb::obs::MetricsRegistry> reg;
    std::unique_ptr<bnb::ScheduleCache> cache;
    std::unique_ptr<bnb::ResilientRouter> router;
    std::unique_ptr<Mirror> mirror;
    void reset() {
      mirror.reset();
      router.reset();
      cache.reset();
      reg.reset();
    }
  };
  const auto mirror_frame = [&](Mirror& m, const bnb::Permutation& pi,
                                std::uint64_t call) {
    const std::uint64_t t0 = now_ns();
    const bnb::PermutationDigest d = bnb::digest_permutation(pi);
    const std::uint64_t t1 = now_ns();
    bnb::SmallSchedule sched;
    const bool hit = m.cache.find_small(d, sched);
    const std::uint64_t t2 = now_ns();
    m.digest_ns += t1 - t0;
    m.find_ns += t2 - t1;
    if (ts != nullptr && call != 0) {
      ts->tracer.add_untimed("digest_permutation", Layer::kScheduleCache, t0, t1, call);
      ts->tracer.add_untimed("ScheduleCache::find_small", Layer::kScheduleCache, t1, t2,
                             call);
    }
    if (!hit) {
      sched = m.plan.compile_small(pi, m.scratch);
      const std::uint64_t t3 = now_ns();
      m.cache.insert_small(d, sched);
      const std::uint64_t t4 = now_ns();
      m.insert_ns += t4 - t3;
      if (ts != nullptr && call != 0) {
        ts->tracer.add_untimed("ScheduleCache::insert_small", Layer::kScheduleCache, t3,
                               t4, call);
      }
    }
  };

  bool warm_ok = true;
  std::vector<std::size_t> warm_frames;
  Instance inst = repeated_setup(out, [&] {
    Instance i;
    i.reg = std::make_unique<bnb::obs::MetricsRegistry>();
    i.cache = std::make_unique<bnb::ScheduleCache>(kCapacity, 8, i.reg.get());
    i.router = std::make_unique<bnb::ResilientRouter>(kM, bnb::ResilientPolicy{},
                                                      i.cache.get(), i.reg.get());
    bnb::Rng warm(args.seed * 0xD1B54A32D192ED03ULL + 7);
    warm_frames.clear();
    for (std::size_t f = 0; f < kWarmupFrames; ++f) {
      const std::size_t idx = zipf(warm);
      warm_frames.push_back(idx);
      const bnb::ResilientReport rep = i.router->route(perms[idx]);
      warm_ok &= rep.delivered() && delivered_ok(rep.dest, perms[idx]);
    }
    return i;
  });
  out.check(warm_ok, "warm-up delivered wrongly");
  if (ts != nullptr) {
    inst.mirror = std::make_unique<Mirror>();
    for (const std::size_t idx : warm_frames) mirror_frame(*inst.mirror, perms[idx], 0);
    inst.mirror->digest_ns = inst.mirror->find_ns = inst.mirror->insert_ns = 0;
  }

  const bnb::ScheduleCacheStats cache0 = inst.cache->stats();
  const bnb::ResilientRouter::Stats router0 = inst.router->stats();
  const auto snap_counter = [&](std::string_view name) {
    return counter_value(inst.reg->snapshot(), name);
  };
  const std::uint64_t misroutes0 = snap_counter("bnb_robust_misroutes_caught_total");
  const auto small_route_total = [] {
    return counter_value(bnb::obs::MetricsRegistry::global().snapshot(),
                         "bnb_small_route_total");
  };
  const std::uint64_t small0 = small_route_total();
  const std::uint64_t trips0 = inst.router->health().stats().trips;
  const auto probe_hist = [&] { return probe_totals(*inst.reg); };
  const auto probes0 = probe_hist();

  bnb::Rng frames(args.seed * 0xD1B54A32D192ED03ULL + 6);
  std::uint64_t glitches = 0;
  std::uint64_t fallbacks = 0;
  std::uint64_t served = 0;
  std::uint64_t last_done = 0;
  const std::uint64_t t_start = now_ns() + 1'000'000;
  const std::uint64_t window_ns = static_cast<std::uint64_t>(args.seconds * 1e9);
  // No reallocation inside the open loop: it would stall the generator.
  const std::size_t frames_due = args.calls != 0 ? args.calls : window_ns / kPeriodNs + 1;
  out.latency_ns.reserve(frames_due);
  out.lag_ns.reserve(frames_due);
  for (std::uint64_t k = 1;; ++k) {
    const std::uint64_t due = t_start + (k - 1) * kPeriodNs;
    if (args.calls != 0 ? k > args.calls : due >= t_start + window_ns) break;
    const std::size_t idx = zipf(frames);
    const bool glitched = frames.uniform01() < kGlitchShare;
    digest.add(idx);
    digest.add(glitched ? 1 : 0);
    const bnb::Permutation& pi = perms[idx];
    // The glitch is armed before the frame is due, so its set-up is not
    // part of the frame's latency.
    if (glitched) inst.router->inject_transient(glitch, 1);
    const bool traced = ts != nullptr && (k % 2 == 0);
    if (traced) ts->begin(k);
    while (now_ns() < due) {
    }
    const std::uint64_t c0 = cpu_ns();
    const std::uint64_t issue = now_ns();
    const std::uint64_t s = traced ? now_ns() : 0;
    const bnb::ResilientReport rep = inst.router->route(pi);
    const std::uint64_t e = traced ? now_ns() : 0;
    const std::uint64_t done = now_ns();
    const std::uint64_t cpu = cpu_ns() - c0;
    if (traced) {
      ts->tracer.add("ResilientRouter::route", Layer::kResilience, SpanKind::kContainer,
                     s, e);
      ts->end(issue, done);
    }
    if (glitched) {
      inst.router->clear_faults();
      ++glitches;
    }
    if (inst.mirror != nullptr && !glitched) {
      mirror_frame(*inst.mirror, pi, traced ? k : 0);
    }
    // A ladder that ran out of retries quarantined the digest.
    if (inst.mirror != nullptr &&
        (rep.outcome == bnb::ResilientOutcome::kDeliveredByFallback ||
         rep.outcome == bnb::ResilientOutcome::kFailed)) {
      (void)inst.mirror->cache.invalidate(bnb::digest_permutation(pi));
    }
    const bool ok = rep.delivered() && delivered_ok(rep.dest, pi);
    ++out.attempted;
    out.failed += ok ? 0 : 1;
    fallbacks += rep.outcome == bnb::ResilientOutcome::kDeliveredByFallback ? 1 : 0;
    served += rep.served_from_cache ? 1 : 0;
    last_done = done;
    if (traced) {
      out.traced_call_ns += done - issue;
      out.traced_perms += 1;
    } else {
      out.record(done - issue, ok ? 1 : 0, cpu);
      out.lag_ns.push_back(clamp32(issue - due));
    }
  }
  out.window_s = static_cast<double>(last_done - t_start) / 1e9;

  const bnb::ScheduleCacheStats st = inst.cache->stats();
  const bnb::ResilientRouter::Stats rs = inst.router->stats();
  const std::uint64_t hits = st.hits - cache0.hits;
  const std::uint64_t misses = st.misses - cache0.misses;
  const std::uint64_t evictions = st.evictions - cache0.evictions;
  const std::uint64_t quarantined = st.quarantined - cache0.quarantined;
  const std::uint64_t retries = rs.backoffs - router0.backoffs;
  const std::uint64_t trips = inst.router->health().stats().trips - trips0;
  const std::uint64_t misroutes =
      snap_counter("bnb_robust_misroutes_caught_total") - misroutes0;
  const std::uint64_t small_routes = small_route_total() - small0;
  out.check(hits > 0 && misses > 0, "switch hit ratio is not strictly between 0 and 1");
  out.check(evictions > 0, "switch cache never evicted");
  out.check(retries > 0, "switch glitches never forced a retry");
  out.input_digest = digest.h;
  out.counts = {{"frames", out.attempted},   {"hits", hits},
                {"misses", misses},          {"evictions", evictions},
                {"retries", retries},        {"quarantined", quarantined},
                {"glitches", glitches},      {"fallbacks", fallbacks},
                {"breaker_trips", trips},    {"cache_served", served},
                {"failed_audits", misroutes}};

  if (ts != nullptr) {
    // Measured 0.75 on a 4-vCPU VM: the router's fast path (digest, cache
    // lookup and insert, breaker, report) has no spans; only its solve,
    // small apply and audit do.  The bound catches coverage getting worse.
    common_layer_metrics(*ts, out, 0.85);
    const Mirror& m = *inst.mirror;
    const bnb::ScheduleCacheStats ms = m.cache.stats();
    out.check(
        ms.hits == st.hits && ms.misses == st.misses && ms.evictions == st.evictions,
        "mirror cache fell out of step with the router's cache");
    const auto probes1 = probe_hist();
    const std::uint64_t frames_n = out.attempted;
    out.layer["compiled_bnb.small_routes_per_kperm"] = per_kperm(small_routes, frames_n);
    out.layer["schedule_cache.digest_us_per_perm"] = per_perm_us(m.digest_ns, frames_n);
    out.layer["schedule_cache.lookup_us_per_perm"] = per_perm_us(m.find_ns, frames_n);
    out.layer["schedule_cache.insert_us_per_perm"] = per_perm_us(m.insert_ns, frames_n);
    out.layer["schedule_cache.probe_len_avg"] =
        ratio(probes1.first - probes0.first, probes1.second - probes0.second);
    out.layer["schedule_cache.hit_ratio"] = ratio(hits, hits + misses);
    out.layer["schedule_cache.evictions_per_kperm"] = per_kperm(evictions, frames_n);
    out.layer["schedule_cache.quarantined"] = static_cast<double>(quarantined);
    out.layer["delivery_audit.failed_audits_per_kperm"] = per_kperm(misroutes, frames_n);
    out.layer["resilience.retries_per_kperm"] = per_kperm(retries, frames_n);
    out.layer["resilience.backoff_us_per_perm"] =
        per_perm_us(rs.backoff_ns - router0.backoff_ns, frames_n);
    out.layer["resilience.fallbacks_per_kperm"] = per_kperm(fallbacks, frames_n);
    out.layer["resilience.cache_served_ratio"] = ratio(served, frames_n);
    out.layer["resilience.breaker_trips"] = static_cast<double>(trips);
  }
}

// ================================================================ report

// Every per-layer metric, in the order BENCHMARK.json lists them.  A
// workload reports 0 for a layer it never crosses.
const std::vector<std::pair<const char*, const char*>> kLayerMetrics = {
    {"compiled_bnb.solve_us_per_perm", "us"},
    {"compiled_bnb.solves_per_kperm", "1/kperm"},
    {"compiled_bnb.apply_us_per_perm", "us"},
    {"compiled_bnb.small_routes_per_kperm", "1/kperm"},
    {"route_batch.worker_busy_share", "ratio"},
    {"route_batch.call_overhead_us", "us"},
    {"schedule_cache.digest_us_per_perm", "us"},
    {"schedule_cache.lookup_us_per_perm", "us"},
    {"schedule_cache.probe_len_avg", "probes"},
    {"schedule_cache.insert_us_per_perm", "us"},
    {"schedule_cache.hit_ratio", "ratio"},
    {"schedule_cache.evictions_per_kperm", "1/kperm"},
    {"schedule_cache.quarantined", "count"},
    {"schedule_store.warm_start_ms", "ms"},
    {"schedule_store.records_promoted", "count"},
    {"stream_engine.queue_wait_us_per_perm", "us"},
    {"stream_engine.ring_high_water", "count"},
    {"stream_engine.threads_used", "count"},
    {"stream_engine.stage_busy_share", "ratio"},
    {"delivery_audit.audit_us_per_perm", "us"},
    {"delivery_audit.failed_audits_per_kperm", "1/kperm"},
    {"resilience.retries_per_kperm", "1/kperm"},
    {"resilience.backoff_us_per_perm", "us"},
    {"resilience.fallbacks_per_kperm", "1/kperm"},
    {"resilience.cache_served_ratio", "ratio"},
    {"resilience.breaker_trips", "count"},
    {"bench.trace_overhead_share", "ratio"},
    {"bench.unattributed_share", "ratio"},
};

std::string json_metric(const Metric& m) {
  char buf[160];
  std::snprintf(buf, sizeof buf, "\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                m.name.c_str(), m.value, m.unit.c_str());
  return buf;
}

std::string loadavg_json() {
  double l[3] = {0, 0, 0};
  if (getloadavg(l, 3) != 3) return "null";
  char buf[96];
  std::snprintf(buf, sizeof buf, "[%.2f, %.2f, %.2f]", l[0], l[1], l[2]);
  return buf;
}

int report(const Args& args, const Outcome& out, const TraceSession* ts,
           const std::string& load_before) {
  const bool correct = out.failed == 0 && out.check_failures.empty();
  std::vector<double> lat;
  for (const std::uint32_t ns : out.latency_ns) {
    lat.push_back(static_cast<double>(ns) / 1e3);
  }
  std::sort(lat.begin(), lat.end());

  // The open loop's throughput is its offered rate unless it falls behind:
  // delivered frames over the wall window.
  const double open_tput =
      out.window_s > 0 ? static_cast<double>(out.attempted - out.failed) / out.window_s
                       : 0.0;
  // Closed-loop throughput and CPU per permutation are whole-run totals
  // over the untraced calls.  A shared host swings between quiet and busy
  // states that last from seconds to minutes, and the same calls cost up
  // to 2x more in a busy one.  A total moves in proportion to the busy
  // share of a run; a median over windows of calls would jump from one
  // state's level to the other's as that share crosses one half.
  const double closed_tput = ratio(out.call_ok, out.call_ns) * 1e9;
  std::vector<Metric> e2e;
  e2e.push_back({"perms_per_s", out.open_loop ? open_tput : closed_tput, "1/s"});
  e2e.push_back({"latency_p50_us", quantile(lat, 0.50), "us"});
  e2e.push_back({"setup_s", median(out.setup_s), "s"});
  e2e.push_back({"cpu_us_per_perm", per_perm_us(out.call_cpu_ns, out.call_ok), "us"});
  e2e.push_back({"peak_rss_mb", peak_rss_mb(), "MB"});

  std::printf("perfbench: workload=%s seed=%llu seconds=%g calls=%llu trace=%d\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, static_cast<unsigned long long>(args.calls),
              args.trace ? 1 : 0);
  std::printf("fingerprint: {\"nproc\": %u, \"kernel_tier\": \"%s\", "
              "\"bnb_obs_compiled\": %d, \"loadavg_before\": %s, "
              "\"loadavg_after\": %s}\n",
              std::thread::hardware_concurrency(), bnb::kernels::active_kernels().name,
              BNB_OBS_COMPILED, load_before.c_str(), loadavg_json().c_str());
  std::printf("inputs: digest=%016llx\n",
              static_cast<unsigned long long>(out.input_digest));
  std::printf("counts:");
  for (const auto& [name, value] : out.counts) {
    std::printf(" %s=%llu", name.c_str(), static_cast<unsigned long long>(value));
  }
  std::printf("\n");
  const std::size_t beyond =
      lat.size() -
      static_cast<std::size_t>(std::ceil(0.99 * static_cast<double>(lat.size())));
  std::printf("samples: %zu %s latencies (%zu beyond p99), %zu set-ups\n", lat.size(),
              args.trace ? "untraced" : "call", beyond, out.setup_s.size());
  // setup_s is the median set-up; the first one, in a cold process, and
  // the spread of the repeats are shown here.
  std::vector<double> setups = out.setup_s;
  std::sort(setups.begin(), setups.end());
  std::printf("setup_s: first=%.6g median=%.6g min=%.6g max=%.6g\n", out.setup_s.front(),
              quantile(setups, 0.5), setups.front(), setups.back());
  std::printf("latency_us: p50=%.6g p90=%.6g p95=%.6g p99=%.6g p99.9=%.6g max=%.6g\n",
              quantile(lat, 0.50), quantile(lat, 0.90), quantile(lat, 0.95),
              quantile(lat, 0.99), quantile(lat, 0.999), lat.empty() ? 0.0 : lat.back());
  std::printf("metric failed_share %.6g share\n", ratio(out.failed, out.attempted));
  for (const Metric& m : e2e) {
    std::printf("metric %s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  // Printed but not in the JSON: on a contended host the tail of the
  // closed loops moves with the hypervisor's steal from run to run.
  std::printf("metric latency_p99_us %.6g us\n", quantile(lat, 0.99));
  if (out.open_loop) {
    std::vector<double> lag;
    std::vector<double> due;
    for (std::size_t i = 0; i < out.lag_ns.size(); ++i) {
      lag.push_back(static_cast<double>(out.lag_ns[i]) / 1e3);
      const std::uint64_t from_due = std::uint64_t{out.lag_ns[i]} + out.latency_ns[i];
      due.push_back(static_cast<double>(from_due) / 1e3);
    }
    std::sort(lag.begin(), lag.end());
    std::sort(due.begin(), due.end());
    std::printf("metric sched_lag_p99_us %.6g us\n", quantile(lag, 0.99));
    std::printf("metric latency_from_due_p50_us %.6g us\n", quantile(due, 0.50));
    std::printf("metric latency_from_due_p99_us %.6g us\n", quantile(due, 0.99));
  }
  if (ts != nullptr) {
    for (const auto& [name, unit] : kLayerMetrics) {
      const auto it = out.layer.find(name);
      std::printf("layer %s %.6g %s\n", name, it == out.layer.end() ? 0.0 : it->second,
                  unit);
    }
    const CallTracer& t = ts->tracer;
    std::printf("self_us_per_call:");
    for (std::size_t l = 0; l < perfbench::kLayerCount; ++l) {
      const Layer layer = static_cast<Layer>(l);
      std::printf(" %s=%.3f", perfbench::layer_name(layer),
                  per_perm_us(t.self_ns(layer), t.calls()));
    }
    std::printf(" unattributed=%.3f (of which uncovered=%.3f) (over %llu traced calls)\n",
                per_perm_us(t.bracket_ns() - t.attributed_ns(), t.calls()),
                per_perm_us(t.uncovered_ns(), t.calls()),
                static_cast<unsigned long long>(t.calls()));
    std::printf("trace: %zu spans -> %s\n", t.exported_spans(), args.trace_out.c_str());
  }
  for (const std::string& f : out.check_failures) {
    std::printf("CHECK FAILED: %s\n", f.c_str());
  }

  std::string metrics;
  if (ts == nullptr) {
    for (const Metric& m : e2e) metrics += (metrics.empty() ? "" : ", ") + json_metric(m);
  } else {
    for (const auto& [name, unit] : kLayerMetrics) {
      const auto it = out.layer.find(name);
      const Metric m{name, it == out.layer.end() ? 0.0 : it->second, unit};
      metrics += (metrics.empty() ? "" : ", ") + json_metric(m);
    }
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              correct ? "true" : "false", static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed), metrics.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "bnb_perfbench: %s\nusage: bnb_perfbench --workload "
               "cold_batch_m14|hot_stream_m12|switch_m6_open --seed N --seconds S "
               "--trace 0|1 [--calls K] [--work-dir DIR]\n",
               why);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + key).c_str());
    const std::string val = argv[++i];
    try {
      if (key == "--workload") {
        a.workload = val;
      } else if (key == "--seed") {
        a.seed = std::stoull(val);
      } else if (key == "--seconds") {
        a.seconds = std::stod(val);
      } else if (key == "--trace") {
        if (val != "0" && val != "1") usage("--trace takes 0 or 1");
        a.trace = val == "1";
      } else if (key == "--calls") {
        a.calls = std::stoull(val);
      } else if (key == "--work-dir") {
        a.work_dir = val;
      } else {
        usage(("unknown option " + key).c_str());
      }
    } catch (const std::logic_error&) {
      usage(("bad value for " + key).c_str());
    }
  }
  if (a.workload.empty()) usage("--workload is required");
  if (!(a.seconds > 0.0) || a.seconds > 600.0) usage("--seconds must be in (0, 600]");
  a.trace_out =
      a.work_dir + "/trace-" + a.workload + "-seed" + std::to_string(a.seed) + ".json";
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  const std::string load_before = loadavg_json();
  Outcome out;
  std::unique_ptr<TraceSession> ts =
      args.trace ? std::make_unique<TraceSession>() : nullptr;
  try {
    if (args.workload == "cold_batch_m14") {
      run_cold_batch_m14(args, out, ts.get());
    } else if (args.workload == "hot_stream_m12") {
      run_hot_stream_m12(args, out, ts.get());
    } else if (args.workload == "switch_m6_open") {
      run_switch_m6_open(args, out, ts.get());
    } else {
      usage(("unknown workload " + args.workload).c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bnb_perfbench: %s\n", e.what());
    return 1;
  }
  if (ts != nullptr && !ts->tracer.write_chrome(args.trace_out)) {
    std::fprintf(stderr, "bnb_perfbench: cannot write %s\n", args.trace_out.c_str());
    return 1;
  }
  return report(args, out, ts.get(), load_before);
}

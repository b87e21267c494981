// Data-parallel streaming front end for the compiled engine.
//
// StreamEngine::run routes a span of permutations on the same scheduler as
// CompiledBnb::route_batch (core/batch_scheduler.hpp): min(threads, items)
// workers claim items through one atomic cursor and run each item end to
// end with their own RouteScratch and ControlSchedule — hooks, digest,
// cache find (or solve + insert), apply, and the dest-row copy.  Results are
// written by index, so they are positional and bit-identical to
// route_batch on the same span (tests/test_stream_engine.cpp proves it).
//
//   * threads = 1: the one-worker case, in order on the calling thread.
//   * threads = 0: auto, one worker per hardware thread.
//   * Options::cache: an optional ScheduleCache consulted before solving;
//     hits skip the solve entirely (repeated traffic streams at apply-only
//     speed) and misses populate the cache.
//   * SMALL LANE: plans with m <= SmallSchedule::kMaxM solve and cache
//     flattened SmallSchedules (core/small_schedule.hpp) by value, so
//     small-N traffic pays no shared_ptr allocation per permutation.
//
// RESILIENCE (docs/RELIABILITY.md).  The engine fails loudly and in
// bounded time instead of blocking or dying with the batch:
//
//   * ADMISSION: Options::admission_limit bounds how many permutations one
//     run() accepts.  An oversized stream throws stream_overload_error up
//     front (strict mode) or routes the admitted prefix and marks the
//     excess kShed in Result::status (isolate_errors mode) — an explicit
//     shed path instead of unbounded queue growth.
//   * PER-ITEM ERROR ISOLATION: with Options::isolate_errors a fault on
//     permutation k no longer kills permutations k+1..n.  The failing item
//     is marked kFailed in Result::status (its dest rows read zero), the
//     stream keeps going, and Stats::failed counts the damage.  With
//     isolation off the first-error-wins contract holds: the workers drain
//     and the error is rethrown on the calling thread as batch_route_error
//     naming the lowest failing index (and every failing index observed).
//   * WATCHDOG: with Options::watchdog_timeout_ms, the stream fails with
//     stream_stall_error when no item retires for longer than the timeout
//     while items remain: the worker whose item ends such a gap declares
//     the stall, so it is reported even when every worker was stuck.  A
//     worker stuck in user code is not interruptible in portable C++, so
//     run() throws once the stuck item returns.  Pick a timeout well above
//     the worst single-item latency; the chaos campaign proves the watchdog
//     never fires spuriously on a healthy stream.
//   * CANCEL/DRAIN: cancel() asks every in-flight run() to stop; those
//     runs throw stream_cancelled_error once their workers reach their next
//     item.  The destructor cancels and then BLOCKS until every in-flight
//     run has left the engine, so destroying a StreamEngine mid-stream
//     neither hangs nor leaves a worker touching freed state (tsan-covered).
//     A cancelled engine stays cancelled: later run() calls throw.
//   * Options::solve_hook / apply_hook: per-index instrumentation points
//     before an item's solve and apply, for chaos and latency injection
//     (the stall tests and bench_chaos drive them); they must return — a
//     hook that never returns is a genuine hang no watchdog can cancel.
//
// An engine is immutable after construction: run() keeps all mutable state
// on its own stack (the lifecycle guard is the one shared word), so one
// StreamEngine may serve concurrent run() calls.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <condition_variable>
#include <mutex>
#include <atomic>
#include <span>
#include <stdexcept>
#include <vector>

#include "core/compiled_bnb.hpp"
#include "core/schedule_cache.hpp"
#include "obs/metrics.hpp"
#include "perm/permutation.hpp"

namespace bnb {

/// run() was offered more permutations than Options::admission_limit while
/// strict (isolate_errors off): the stream is refused up front.
class stream_overload_error : public std::runtime_error {
 public:
  stream_overload_error(std::size_t limit, std::size_t offered);
  [[nodiscard]] std::size_t limit() const noexcept { return limit_; }
  [[nodiscard]] std::size_t offered() const noexcept { return offered_; }

 private:
  std::size_t limit_;
  std::size_t offered_;
};

/// The watchdog saw no item retire for longer than
/// Options::watchdog_timeout_ms while items remained: a worker is stalled,
/// and the stream failed instead of hanging.
class stream_stall_error : public std::runtime_error {
 public:
  stream_stall_error(std::size_t solved, std::size_t applied, std::size_t total,
                     std::uint64_t timeout_ms);
  /// Items a worker had picked up when the stall was declared.
  [[nodiscard]] std::size_t solved() const noexcept { return solved_; }
  /// Items retired (routed or failed) when the stall was declared.
  [[nodiscard]] std::size_t applied() const noexcept { return applied_; }
  [[nodiscard]] std::size_t total() const noexcept { return total_; }

 private:
  std::size_t solved_;
  std::size_t applied_;
  std::size_t total_;
};

/// cancel() (or engine destruction) interrupted this run.
class stream_cancelled_error : public std::runtime_error {
 public:
  stream_cancelled_error();
};

/// Per-permutation disposition of one run() (Result::status).
enum class StreamItemStatus : std::uint8_t {
  kOk = 0,     ///< routed and delivered
  kFailed,     ///< this item threw (isolate_errors); its dest rows are zero
  kShed,       ///< refused by admission control; never routed
};

[[nodiscard]] const char* to_string(StreamItemStatus status) noexcept;

class StreamEngine {
 public:
  struct Options {
    /// Workers per run (at most the number of admitted items); 0 = auto,
    /// std::thread::hardware_concurrency().  1 = in order on the caller.
    unsigned threads = 0;
    /// Optional schedule cache consulted before each solve; nullptr = every
    /// permutation is solved cold.  Shared across engines/threads is fine.
    ScheduleCache* cache = nullptr;
    /// Registry the engine publishes its bnb_stream_* totals to at the end
    /// of every run(); nullptr = the global registry.
    obs::MetricsRegistry* registry = nullptr;
    /// Max permutations one run() admits; 0 = unlimited.  Excess is shed:
    /// stream_overload_error when strict, kShed statuses when isolating.
    std::size_t admission_limit = 0;
    /// Per-item error isolation: a failing permutation is marked kFailed
    /// and the stream continues (default: first-error-wins rethrow).
    bool isolate_errors = false;
    /// Stall detection: longest gap between item retirements, in
    /// milliseconds; 0 = disabled.
    std::uint64_t watchdog_timeout_ms = 0;
    /// Chaos/test instrumentation, called on the item's worker with the
    /// stream index before its solve (cache lookup included) and before its
    /// apply.  Must return; may throw (the throw is treated exactly like
    /// the item's own failure).
    std::function<void(std::size_t)> solve_hook;
    std::function<void(std::size_t)> apply_hook;
  };

  struct Stats {
    std::uint64_t permutations = 0;  ///< offered to run() (admitted + shed)
    std::uint64_t solved = 0;       ///< cold arbiter-tree solves run
    std::uint64_t cache_hits = 0;   ///< schedules served from Options::cache
    std::uint64_t ring_high_water = 0;  ///< most items in flight at once
    std::uint64_t failed = 0;       ///< items marked kFailed (isolate_errors)
    std::uint64_t shed = 0;         ///< items refused by admission control
    unsigned threads_used = 1;      ///< workers that ran: min(threads, items)
    bool pipelined = false;         ///< threads_used > 1
    bool all_self_routed = false;   ///< over delivered items only
  };

  /// dest[perm * N + input] = output line, same layout as BatchResult.
  /// status[perm] tells each item's disposition (all kOk on the historic
  /// strict path — anything else would have thrown instead).
  struct Result {
    std::vector<std::uint32_t> dest;
    std::vector<StreamItemStatus> status;
    Stats stats;
  };

  explicit StreamEngine(const CompiledBnb& plan) : StreamEngine(plan, Options()) {}
  StreamEngine(const CompiledBnb& plan, Options options);

  /// Cancels in-flight runs and blocks until they have all left run().
  ~StreamEngine();

  StreamEngine(const StreamEngine&) = delete;
  StreamEngine& operator=(const StreamEngine&) = delete;

  /// Route the whole stream.  Throws batch_route_error naming the failing
  /// permutation index/indices (strict mode), stream_overload_error on an
  /// oversized strict stream, stream_stall_error when the watchdog fires,
  /// and stream_cancelled_error when cancel()/destruction interrupts the
  /// run (results are then unspecified).
  [[nodiscard]] Result run(std::span<const Permutation> perms) const;

  /// Ask every in-flight run() (on any thread) to stop; they throw
  /// stream_cancelled_error at their next loop step.  Sticky: the engine
  /// accepts no further runs.  Safe from any thread, idempotent.
  void cancel() const noexcept;
  [[nodiscard]] bool cancelled() const noexcept {
    return cancelled_.load(std::memory_order_acquire);
  }

  [[nodiscard]] const CompiledBnb& plan() const noexcept { return plan_; }
  [[nodiscard]] unsigned threads() const noexcept { return threads_; }

 private:
  class ActiveRun;

  Result run_admitted(std::span<const Permutation> perms) const;
  CompiledBnb::Output route_item(std::size_t index, const Permutation& pi,
                                 RouteScratch& scratch, ControlSchedule& schedule,
                                 Stats& tally) const;
  void publish(const Stats& stats) const;

  const CompiledBnb& plan_;
  unsigned threads_;
  ScheduleCache* cache_;
  std::size_t admission_limit_;
  bool isolate_errors_;
  std::uint64_t watchdog_timeout_ms_;
  std::function<void(std::size_t)> solve_hook_;
  std::function<void(std::size_t)> apply_hook_;
  // Registry-owned bnb_stream_* metrics, resolved once at construction so
  // the const run() path never touches the registry mutex.
  obs::Counter* runs_;
  obs::Counter* permutations_;
  obs::Counter* solves_;
  obs::Counter* cache_hits_;
  obs::Counter* shed_;
  obs::Counter* item_failures_;
  obs::Counter* stalls_;
  obs::Counter* cancelled_runs_;
  obs::Gauge* ring_high_water_;
  // Lifecycle: how many run() calls are inside the engine, and whether
  // cancel() was requested.  The destructor waits on active_runs_ == 0.
  mutable std::mutex lifecycle_mu_;
  mutable std::condition_variable lifecycle_cv_;
  mutable std::size_t active_runs_ = 0;
  mutable std::atomic<bool> cancelled_{false};
};

}  // namespace bnb

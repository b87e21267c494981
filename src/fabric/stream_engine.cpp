#include "fabric/stream_engine.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <mutex>
#include <string>
#include <thread>
#include <utility>

#include "common/expect.hpp"
#include "core/batch_scheduler.hpp"
#include "obs/span.hpp"
#include "obs/trace_context.hpp"

namespace bnb {
namespace {

[[nodiscard]] std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now().time_since_epoch())
                                        .count());
}

}  // namespace

stream_overload_error::stream_overload_error(std::size_t limit, std::size_t offered)
    : std::runtime_error("stream_engine: admission limit " + std::to_string(limit) +
                         " exceeded (" + std::to_string(offered) +
                         " permutations offered); stream shed"),
      limit_(limit),
      offered_(offered) {}

stream_stall_error::stream_stall_error(std::size_t solved, std::size_t applied,
                                       std::size_t total, std::uint64_t timeout_ms)
    : std::runtime_error("stream_engine: watchdog saw no item retire for " +
                         std::to_string(timeout_ms) + " ms (" + std::to_string(solved) +
                         " picked up, " + std::to_string(applied) + " retired of " +
                         std::to_string(total) + "); stream failed instead of hanging"),
      solved_(solved),
      applied_(applied),
      total_(total) {}

stream_cancelled_error::stream_cancelled_error()
    : std::runtime_error("stream_engine: run interrupted by cancel() or engine destruction") {}

const char* to_string(StreamItemStatus status) noexcept {
  switch (status) {
    case StreamItemStatus::kOk:
      return "ok";
    case StreamItemStatus::kFailed:
      return "failed";
    case StreamItemStatus::kShed:
      return "shed";
  }
  return "unknown";
}

/// RAII registration of one run() against the engine lifecycle: refuses to
/// start on a cancelled engine, and guarantees the destructor's drain wait
/// sees active_runs_ reach zero however the run exits.
class StreamEngine::ActiveRun {
 public:
  explicit ActiveRun(const StreamEngine& engine) : engine_(engine) {
    std::scoped_lock lock(engine_.lifecycle_mu_);
    if (engine_.cancelled_.load(std::memory_order_acquire)) {
      engine_.cancelled_runs_->inc();
      throw stream_cancelled_error();
    }
    ++engine_.active_runs_;
  }

  ~ActiveRun() {
    std::scoped_lock lock(engine_.lifecycle_mu_);
    --engine_.active_runs_;
    engine_.lifecycle_cv_.notify_all();
  }

  ActiveRun(const ActiveRun&) = delete;
  ActiveRun& operator=(const ActiveRun&) = delete;

 private:
  const StreamEngine& engine_;
};

StreamEngine::StreamEngine(const CompiledBnb& plan, Options options)
    : plan_(plan),
      threads_(options.threads),
      cache_(options.cache),
      admission_limit_(options.admission_limit),
      isolate_errors_(options.isolate_errors),
      watchdog_timeout_ms_(options.watchdog_timeout_ms),
      solve_hook_(std::move(options.solve_hook)),
      apply_hook_(std::move(options.apply_hook)) {
  BNB_EXPECTS(options.threads <= 256);
  if (threads_ == 0) {
    threads_ = std::clamp(std::thread::hardware_concurrency(), 1U, 256U);
  }
  obs::MetricsRegistry& reg =
      options.registry != nullptr ? *options.registry : obs::MetricsRegistry::global();
  runs_ = &reg.counter("bnb_stream_runs_total", "StreamEngine::run calls completed");
  permutations_ =
      &reg.counter("bnb_stream_permutations_total", "permutations routed through run()");
  solves_ = &reg.counter("bnb_stream_solves_total", "cold arbiter-tree solves in run()");
  cache_hits_ =
      &reg.counter("bnb_stream_cache_hits_total", "schedules served from the stream cache");
  shed_ = &reg.counter("bnb_stream_shed_total",
                       "permutations refused by stream admission control");
  item_failures_ = &reg.counter("bnb_stream_item_failures_total",
                                "stream items marked failed under error isolation");
  stalls_ = &reg.counter("bnb_stream_stalls_total",
                         "streams failed by the watchdog: no item retired for the timeout");
  cancelled_runs_ = &reg.counter("bnb_stream_cancelled_total",
                                 "stream runs interrupted by cancel() or destruction");
  ring_high_water_ = &reg.gauge("bnb_stream_ring_high_water",
                                "most stream items in flight at once in any run");
}

StreamEngine::~StreamEngine() {
  cancel();
  std::unique_lock<std::mutex> lock(lifecycle_mu_);
  lifecycle_cv_.wait(lock, [this] { return active_runs_ == 0; });
}

void StreamEngine::cancel() const noexcept {
  cancelled_.store(true, std::memory_order_release);
}

StreamEngine::Result StreamEngine::run(std::span<const Permutation> perms) const {
  BNB_OBS_TRACE_ROOT(trace_scope);
  BNB_OBS_SPAN(obs_span, obs::Phase::kStreamRun);
  ActiveRun guard(*this);
  const std::size_t offered = perms.size();
  std::span<const Permutation> admitted = perms;
  if (admission_limit_ != 0 && offered > admission_limit_) {
    if (!isolate_errors_) {
      // Strict admission: the whole stream is refused loudly, nothing routes.
      shed_->inc(offered);
      throw stream_overload_error(admission_limit_, offered);
    }
    admitted = perms.first(admission_limit_);
  }
  Result result = run_admitted(admitted);
  if (admitted.size() < offered) {
    // Shed tail: the refused suffix gets zeroed dest rows and kShed marks,
    // and stats still account for every permutation offered.
    result.dest.resize(offered * plan_.inputs(), 0);
    result.status.resize(offered, StreamItemStatus::kShed);
    result.stats.shed = offered - admitted.size();
    result.stats.permutations = offered;
  }
  publish(result.stats);
  return result;
}

void StreamEngine::publish(const Stats& stats) const {
  runs_->inc();
  permutations_->inc(stats.permutations);
  solves_->inc(stats.solved);
  cache_hits_->inc(stats.cache_hits);
  if (stats.shed != 0) shed_->inc(stats.shed);
  if (stats.failed != 0) item_failures_->inc(stats.failed);
  ring_high_water_->update_max(static_cast<std::int64_t>(stats.ring_high_water));
}

CompiledBnb::Output StreamEngine::route_item(std::size_t index, const Permutation& pi,
                                             RouteScratch& scratch, ControlSchedule& schedule,
                                             Stats& tally) const {
  if (solve_hook_) solve_hook_(index);
  if (plan_.small_capable()) {
    // Register-resident lane: the flattened schedule lives on this stack
    // frame (cache hits copy it by value), so the item is allocation-free
    // once the scratch is warm.
    SmallSchedule small;
    if (cache_ != nullptr) {
      const PermutationDigest digest = digest_permutation(pi);
      if (cache_->find_small(digest, small)) {
        ++tally.cache_hits;
      } else {
        small = plan_.compile_small(pi, scratch);
        ++tally.solved;
        cache_->insert_small(digest, small);
      }
    } else {
      small = plan_.compile_small(pi, scratch);
      ++tally.solved;
    }
    if (apply_hook_) apply_hook_(index);
    return plan_.apply_small(small, pi, scratch);
  }
  // General lane: `schedule` is the worker's own, reused across its items,
  // so solves and cache copy-outs are allocation-free once it has taken
  // this plan's shape.
  if (cache_ != nullptr) {
    const PermutationDigest digest = digest_permutation(pi);
    if (cache_->find(digest, schedule)) {
      ++tally.cache_hits;
    } else {
      plan_.solve(pi, scratch, schedule);
      ++tally.solved;
      cache_->insert(digest, schedule);
    }
  } else {
    plan_.solve(pi, scratch, schedule);
    ++tally.solved;
  }
  if (apply_hook_) apply_hook_(index);
  return plan_.apply(schedule, pi, scratch);
}

StreamEngine::Result StreamEngine::run_admitted(std::span<const Permutation> perms) const {
  const std::size_t n = plan_.inputs();
  Result result;
  result.stats.permutations = perms.size();
  result.dest.resize(perms.size() * n);
  result.status.assign(perms.size(), StreamItemStatus::kOk);
  if (perms.empty()) {
    result.stats.all_self_routed = true;
    return result;
  }

  BatchScheduler scheduler(perms.size(), threads_);
  const unsigned workers = scheduler.workers();
  std::vector<Stats> tallies(workers);
  std::atomic<std::uint64_t> in_flight{0};

  // WATCHDOG: a stall is a gap longer than the timeout between item
  // retirements while items remain.  Every retirement checks the gap since
  // the previous one before stamping its own, so the item that ends a
  // stall declares it, even when every worker was stuck.  Nothing earlier
  // could end the run: user code is not interruptible in portable C++, and
  // run() must join the stuck worker before it throws.
  const bool watchdog = watchdog_timeout_ms_ > 0;
  const std::uint64_t timeout_ns = watchdog_timeout_ms_ * 1'000'000ULL;
  std::atomic<std::uint64_t> last_retire{now_ns()};
  std::atomic<std::uint64_t> retired{0};
  std::atomic<bool> stalled{false};
  std::uint64_t stall_picked = 0;   // written once, by the worker that
  std::uint64_t stall_retired = 0;  // declared the stall; read after join

#if BNB_OBS_COMPILED
  // The enclosing run() trace, captured on the calling thread so every
  // worker can parent its per-item traces to it (TLS does not cross the
  // spawn).  With more than one worker each item also records a queue-wait
  // pseudo-span: admission to worker pickup.
  const obs::TraceContext run_ctx = obs::current_context();
  const std::uint64_t admitted_ns = obs::now_ns();
  const bool queue_waits = workers > 1;
#endif

  scheduler.run([&](unsigned self) {
    RouteScratch scratch;
    ControlSchedule schedule;
    Stats tally;
    tally.all_self_routed = true;
    BatchScheduler::Claim claim;
    for (std::size_t i = 0; scheduler.next(claim, i);) {
      if (cancelled_.load(std::memory_order_acquire)) {
        scheduler.stop();
        break;
      }
      tally.ring_high_water = std::max<std::uint64_t>(
          tally.ring_high_water, in_flight.fetch_add(1, std::memory_order_relaxed) + 1);
      {
#if BNB_OBS_COMPILED
        BNB_OBS_TRACE_CHILD(item_scope, run_ctx.trace_id != 0 ? obs::new_trace_id() : 0,
                            run_ctx.trace_id);
        if (queue_waits && run_ctx.trace_id != 0 && obs::runtime_enabled()) {
          const std::uint64_t picked = obs::now_ns();
          obs::record_phase(obs::Phase::kQueueWait, admitted_ns,
                            picked > admitted_ns ? picked - admitted_ns : 0);
        }
#endif
        try {
          const CompiledBnb::Output out = route_item(i, perms[i], scratch, schedule, tally);
          tally.all_self_routed &= out.self_routed;
          std::copy(out.dest.begin(), out.dest.end(), result.dest.begin() + i * n);
        } catch (...) {
          if (isolate_errors_) {
            // Damage stays on this item: dest rows read zero, the stream goes on.
            result.status[i] = StreamItemStatus::kFailed;
            ++tally.failed;
          } else {
            scheduler.fail(i);
          }
        }
      }
      if (watchdog) {
        // Load the stamp BEFORE reading the clock: another worker may stamp
        // between the two reads, and with the opposite order the unsigned
        // subtraction underflows into an instant false stall.
        const std::uint64_t last = last_retire.load(std::memory_order_relaxed);
        const std::uint64_t now = now_ns();
        if (now > last && now - last > timeout_ns &&
            !stalled.exchange(true, std::memory_order_acq_rel)) {
          stall_retired = retired.load(std::memory_order_relaxed);
          stall_picked = stall_retired + in_flight.load(std::memory_order_relaxed);
          scheduler.stop();
        }
        last_retire.store(now, std::memory_order_relaxed);
        retired.fetch_add(1, std::memory_order_relaxed);
      }
      in_flight.fetch_sub(1, std::memory_order_relaxed);
    }
    tallies[self] = tally;
  });

  if (scheduler.failed()) scheduler.rethrow("stream_engine");
  if (stalled.load(std::memory_order_acquire)) {
    stalls_->inc();
    throw stream_stall_error(stall_picked, stall_retired, perms.size(), watchdog_timeout_ms_);
  }
  if (cancelled_.load(std::memory_order_acquire)) {
    cancelled_runs_->inc();
    throw stream_cancelled_error();
  }
  Stats& stats = result.stats;
  stats.threads_used = workers;
  stats.pipelined = workers > 1;
  stats.all_self_routed = true;
  for (const Stats& tally : tallies) {
    stats.solved += tally.solved;
    stats.cache_hits += tally.cache_hits;
    stats.failed += tally.failed;
    stats.ring_high_water = std::max(stats.ring_high_water, tally.ring_high_water);
    stats.all_self_routed &= tally.all_self_routed;
  }
  return result;
}

}  // namespace bnb

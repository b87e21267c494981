// The one data-parallel scheduler behind CompiledBnb::route_batch and
// StreamEngine::run.
//
// A batch of `count` items is cut into contiguous chunks of about
// count / (8 * threads) items; workers claim chunks through a single
// atomic cursor and run each claimed item end to end with their own
// scratch.  Results are written by index, so output stays positional no
// matter which worker ran which item.  The calling thread is worker 0;
// a one-worker batch runs inline and spawns nothing.
//
// FAILURES.  fail() records the in-flight exception against its item.
// Claims stop at the lowest recorded failure, but items below it still
// run: because the cursor hands out indices in order, every item below
// the lowest failure has already been claimed when it fails, so the
// lowest failing index is always observed and the reported error
// (rethrow()) is deterministic.
#pragma once

#include <atomic>
#include <cstddef>
#include <exception>
#include <limits>
#include <mutex>
#include <thread>
#include <vector>

namespace bnb {

class BatchScheduler {
 public:
  /// `count` items on min(threads, count) workers (at least one).
  BatchScheduler(std::size_t count, unsigned threads);

  BatchScheduler(const BatchScheduler&) = delete;
  BatchScheduler& operator=(const BatchScheduler&) = delete;

  [[nodiscard]] unsigned workers() const noexcept { return workers_; }

  /// One worker's claimed chunk, [next, end).
  struct Claim {
    std::size_t next = 0;
    std::size_t end = 0;
  };

  /// Hands this worker its next item.  False once the batch is drained,
  /// stop() was called, or every item it could still take lies above the
  /// lowest recorded failure.
  [[nodiscard]] bool next(Claim& claim, std::size_t& index) noexcept {
    if (stopped_.load(std::memory_order_acquire)) return false;
    if (claim.next == claim.end) {
      const std::size_t begin = cursor_.fetch_add(chunk_, std::memory_order_relaxed);
      if (begin >= count_) return false;
      claim = {begin, begin + chunk_ < count_ ? begin + chunk_ : count_};
    }
    index = claim.next++;
    return index < lowest_failed_.load(std::memory_order_acquire);
  }

  /// Record the exception being handled (call from a catch block) as the
  /// failure of item `index`.
  void fail(std::size_t index) noexcept;
  /// Make every worker's next() return false.
  void stop() noexcept { stopped_.store(true, std::memory_order_release); }
  [[nodiscard]] bool stopped() const noexcept {
    return stopped_.load(std::memory_order_acquire);
  }
  [[nodiscard]] bool failed() const noexcept {
    return lowest_failed_.load(std::memory_order_acquire) != kNone;
  }

  /// Throw the recorded failure as batch_route_error: index() and cause()
  /// belong to the lowest failing index, failed_indices() lists every
  /// failure observed in ascending order.  `who` prefixes the message.
  /// Requires failed(); call after run() has joined.
  [[noreturn]] void rethrow(const char* who) const;

  /// Runs drain(worker) for worker = 0 .. workers()-1, worker 0 on the
  /// calling thread, and joins them all.  drain must not throw.
  template <typename Drain>
  void run(Drain&& drain) {
    std::vector<std::thread> pool;
    pool.reserve(workers_ - 1);
    try {
      for (unsigned w = 1; w < workers_; ++w) pool.emplace_back([&drain, w] { drain(w); });
    } catch (...) {
      // A thread could not start: stop the ones that did, then report it.
      stop();
      for (std::thread& t : pool) t.join();
      throw;
    }
    drain(0);
    for (std::thread& t : pool) t.join();
  }

 private:
  static constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();

  std::size_t count_;
  std::size_t chunk_;
  unsigned workers_;
  alignas(64) std::atomic<std::size_t> cursor_{0};
  alignas(64) std::atomic<std::size_t> lowest_failed_{kNone};
  std::atomic<bool> stopped_{false};
  std::mutex error_mu_;
  std::exception_ptr error_;         ///< the exception of lowest_failed_
  std::vector<std::size_t> failed_;  ///< every failure, in recording order
};

}  // namespace bnb

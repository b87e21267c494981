#include "core/batch_scheduler.hpp"

#include <algorithm>
#include <string>

#include "core/compiled_bnb.hpp"

namespace bnb {

BatchScheduler::BatchScheduler(std::size_t count, unsigned threads)
    : count_(count),
      // Several chunks per worker, so a worker that finishes early keeps
      // claiming instead of idling behind a slow one.
      chunk_(std::max<std::size_t>(1, count / (std::size_t{8} * std::max(threads, 1U)))),
      workers_(static_cast<unsigned>(
          std::clamp<std::size_t>(count, 1, std::max(threads, 1U)))) {}

void BatchScheduler::fail(std::size_t index) noexcept {
  std::scoped_lock lock(error_mu_);
  if (index < lowest_failed_.load(std::memory_order_relaxed)) {
    error_ = std::current_exception();
    lowest_failed_.store(index, std::memory_order_release);
  }
  // Keep every failing index: workers below the first failure run on,
  // and a multi-fault campaign wants them all.  Growing the vector may
  // throw bad_alloc; the lowest index and its cause are already recorded.
  try {
    failed_.push_back(index);
  } catch (...) {
  }
}

void BatchScheduler::rethrow(const char* who) const {
  const std::size_t first = lowest_failed_.load(std::memory_order_acquire);
  std::vector<std::size_t> indices = failed_;
  std::sort(indices.begin(), indices.end());
  std::string what = std::string(who) + ": permutation " + std::to_string(first) + " of " +
                     std::to_string(count_) + " threw";
  try {
    std::rethrow_exception(error_);
  } catch (const std::exception& e) {
    what += ": ";
    what += e.what();
  } catch (...) {
    // Non-std exception: the index and cause() still identify it.
  }
  if (indices.size() > 1) {
    const std::size_t more = indices.size() - 1;
    what += " (+" + std::to_string(more) + " more worker failure" + (more > 1 ? "s" : "") + ")";
  }
  throw batch_route_error(first, error_, what, std::move(indices));
}

}  // namespace bnb

// StreamEngine correctness: the data-parallel stream must deliver the same
// bits as CompiledBnb::route_batch — one worker on the calling thread, 2..8
// workers on the shared batch scheduler, and all of them again with a
// ScheduleCache attached (repeated traffic streams as hits) — and must
// keep route_batch's first-error-wins contract (the lowest failing stream
// index is reported, deterministically).  The threaded cases double as the
// tsan targets for the scheduler.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <exception>
#include <map>
#include <memory>
#include <set>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "core/compiled_bnb.hpp"
#include "core/schedule_cache.hpp"
#include "fabric/stream_engine.hpp"
#include "obs/span.hpp"
#include "obs/trace_context.hpp"
#include "perm/generators.hpp"

namespace {

using namespace bnb;

std::vector<Permutation> random_pool(unsigned m, std::size_t count, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Permutation> pool;
  for (std::size_t i = 0; i < count; ++i) {
    pool.push_back(random_perm(std::size_t{1} << m, rng));
  }
  return pool;
}

void expect_matches_route_batch(unsigned m, std::span<const Permutation> perms,
                                const StreamEngine::Options& options) {
  const CompiledBnb plan(m);
  const BatchResult want = plan.route_batch(perms);
  const StreamEngine engine(plan, options);
  const StreamEngine::Result got = engine.run(perms);
  EXPECT_EQ(got.dest, want.dest);
  EXPECT_EQ(got.stats.all_self_routed, want.all_self_routed);
  EXPECT_EQ(got.stats.permutations, perms.size());
}

TEST(StreamEngine, InlineModeMatchesRouteBatch) {
  const auto pool = random_pool(6, 24, 0x57E01);
  StreamEngine::Options options;
  options.threads = 1;
  expect_matches_route_batch(6, pool, options);
}

TEST(StreamEngine, PipelinedModeMatchesRouteBatch) {
  for (const unsigned m : {3U, 6U, 8U}) {
    const auto pool = random_pool(m, 32, 0x57E02 + m);
    for (const unsigned threads : {2U, 3U, 4U, 8U}) {
      StreamEngine::Options options;
      options.threads = threads;
      expect_matches_route_batch(m, pool, options);
    }
  }
}

TEST(StreamEngine, PipelinedSurvivesTinyAndDeepRings) {
  // Streams shorter than the worker count, one chunk per worker, and many
  // ragged chunks per worker.
  const auto pool = random_pool(5, 41, 0x57E03);
  for (const std::size_t length : {1UL, 3UL, 41UL}) {
    const auto stream = std::span<const Permutation>(pool).first(length);
    for (const unsigned threads : {2U, 3U, 4U, 8U}) {
      StreamEngine::Options options;
      options.threads = threads;
      expect_matches_route_batch(5, stream, options);
    }
  }
}

TEST(StreamEngine, ThreadPolicyAndStatsAreReported) {
  const CompiledBnb plan(4);
  const auto pool = random_pool(4, 8, 0x57E04);

  StreamEngine inline_engine(plan, {.threads = 1});
  const auto inline_result = inline_engine.run(pool);
  EXPECT_EQ(inline_engine.threads(), 1U);
  EXPECT_FALSE(inline_result.stats.pipelined);
  EXPECT_EQ(inline_result.stats.threads_used, 1U);
  EXPECT_EQ(inline_result.stats.solved, pool.size());
  EXPECT_EQ(inline_result.stats.cache_hits, 0U);

  // One worker per item up to the thread count: min(threads, items).
  for (const unsigned threads : {2U, 4U, 8U, 16U}) {
    StreamEngine wide_engine(plan, {.threads = threads});
    const auto wide_result = wide_engine.run(pool);
    const unsigned want = std::min<unsigned>(threads, static_cast<unsigned>(pool.size()));
    EXPECT_EQ(wide_engine.threads(), threads);
    EXPECT_EQ(wide_result.stats.threads_used, want) << "threads=" << threads;
    EXPECT_TRUE(wide_result.stats.pipelined) << "threads=" << threads;
    EXPECT_EQ(wide_result.stats.solved, pool.size());
    EXPECT_GE(wide_result.stats.ring_high_water, 1U);
    EXPECT_LE(wide_result.stats.ring_high_water, want);
    const auto short_result = wide_engine.run(std::span<const Permutation>(pool).first(3));
    EXPECT_EQ(short_result.stats.threads_used, std::min(threads, 3U));
  }

  // Auto (threads = 0) resolves to one worker per hardware thread.
  StreamEngine auto_engine(plan);
  EXPECT_EQ(auto_engine.threads(), std::max(std::thread::hardware_concurrency(), 1U));
  const auto auto_result = auto_engine.run(pool);
  EXPECT_EQ(auto_result.stats.permutations, pool.size());
  EXPECT_EQ(auto_result.stats.threads_used,
            std::min<unsigned>(auto_engine.threads(), static_cast<unsigned>(pool.size())));
}

TEST(StreamEngine, EmptyStreamIsTriviallyClean) {
  const CompiledBnb plan(4);
  for (const unsigned threads : {1U, 2U, 4U}) {
    StreamEngine engine(plan, {.threads = threads});
    const auto result = engine.run({});
    EXPECT_TRUE(result.stats.all_self_routed);
    EXPECT_TRUE(result.dest.empty());
  }
}

TEST(StreamEngine, CacheTurnsRepeatedTrafficIntoHits) {
  const unsigned m = 6;
  const CompiledBnb plan(m);
  const auto pool = random_pool(m, 16, 0x57E05);
  const BatchResult want = plan.route_batch(pool);

  for (const unsigned threads : {1U, 2U, 4U}) {
    ScheduleCache cache(64);
    StreamEngine::Options options;
    options.threads = threads;
    options.cache = &cache;
    const StreamEngine engine(plan, options);

    const auto cold = engine.run(pool);
    EXPECT_EQ(cold.dest, want.dest) << "threads=" << threads;
    EXPECT_EQ(cold.stats.solved, pool.size());
    EXPECT_EQ(cold.stats.cache_hits, 0U);

    const auto warm = engine.run(pool);
    EXPECT_EQ(warm.dest, want.dest) << "threads=" << threads;
    EXPECT_EQ(warm.stats.solved, 0U) << "warm stream must not re-solve";
    EXPECT_EQ(warm.stats.cache_hits, pool.size());
    EXPECT_EQ(warm.stats.all_self_routed, want.all_self_routed);
  }
}

TEST(StreamEngine, FirstErrorWinsNamesTheFailingIndex) {
  const unsigned m = 5;
  const CompiledBnb plan(m);
  auto pool = random_pool(m, 12, 0x57E06);
  pool[7] = identity_perm(8);  // wrong size: the solver's contract trips

  for (const unsigned threads : {1U, 2U, 4U}) {
    StreamEngine engine(plan, {.threads = threads});
    try {
      (void)engine.run(pool);
      FAIL() << "wrong-size permutation must throw (threads=" << threads << ")";
    } catch (const batch_route_error& e) {
      EXPECT_EQ(e.index(), 7U) << "threads=" << threads;
      EXPECT_NE(e.cause(), nullptr);
      EXPECT_THROW(std::rethrow_exception(e.cause()), contract_violation);
    }
  }
}

// ---- error isolation ----------------------------------------------------

TEST(StreamEngine, IsolatedErrorsCarryPerIndexStatus) {
  // Under isolate_errors a poisoned item must not kill the stream: its
  // index retires as kFailed with a zeroed dest row, every other item
  // still delivers, and no exception escapes.
  const unsigned m = 5;
  const std::size_t n = 32;
  const CompiledBnb plan(m);
  auto pool = random_pool(m, 12, 0x57E08);
  pool[3] = identity_perm(8);  // wrong size: the solver's contract trips
  pool[9] = identity_perm(4);

  for (const unsigned threads : {1U, 2U, 4U}) {
    StreamEngine::Options options;
    options.threads = threads;
    options.isolate_errors = true;
    StreamEngine engine(plan, options);
    const auto result = engine.run(pool);
    ASSERT_EQ(result.status.size(), pool.size()) << "threads=" << threads;
    EXPECT_EQ(result.stats.failed, 2U) << "threads=" << threads;
    for (std::size_t i = 0; i < pool.size(); ++i) {
      if (i == 3 || i == 9) {
        EXPECT_EQ(result.status[i], StreamItemStatus::kFailed)
            << "threads=" << threads << " i=" << i;
        for (std::size_t j = 0; j < n; ++j) {
          EXPECT_EQ(result.dest[i * n + j], 0U) << "failed rows read zero";
        }
      } else {
        EXPECT_EQ(result.status[i], StreamItemStatus::kOk)
            << "threads=" << threads << " i=" << i;
        for (std::size_t j = 0; j < n; ++j) {
          ASSERT_EQ(result.dest[i * n + j], pool[i](j))
              << "threads=" << threads << " i=" << i;
        }
      }
    }
  }
}

TEST(StreamEngine, MultipleFailuresAreRetainedInTheBatchError) {
  // Without isolation the stream still throws first-error-wins, but every
  // failing index observed before the stop drained is retained.
  const unsigned m = 5;
  const CompiledBnb plan(m);
  auto pool = random_pool(m, 12, 0x57E09);
  pool[4] = identity_perm(8);

  StreamEngine engine(plan, {.threads = 1});
  try {
    (void)engine.run(pool);
    FAIL() << "wrong-size permutation must throw";
  } catch (const batch_route_error& e) {
    EXPECT_EQ(e.index(), 4U);
    ASSERT_FALSE(e.failed_indices().empty());
    EXPECT_EQ(e.failed_indices().front(), e.index());
    EXPECT_EQ(e.additional_failures(), e.failed_indices().size() - 1);
  }
}

TEST(BatchRouteError, RecordsAdditionalFailedWorkers) {
  // Direct contract of the extended exception: explicit index list, and
  // the single-index default.
  const auto cause = std::make_exception_ptr(std::runtime_error("boom"));
  const batch_route_error multi(3, cause, "3 of 12 threw (+2 more worker failures)",
                                {3, 7, 9});
  EXPECT_EQ(multi.index(), 3U);
  EXPECT_EQ(multi.failed_indices(), (std::vector<std::size_t>{3, 7, 9}));
  EXPECT_EQ(multi.additional_failures(), 2U);

  const batch_route_error single(5, cause, "5 threw");
  EXPECT_EQ(single.failed_indices(), (std::vector<std::size_t>{5}));
  EXPECT_EQ(single.additional_failures(), 0U);
}

TEST(CompiledBnb, RouteBatchReportsEveryObservedWorkerFailure) {
  // Two poisoned items across a threaded batch: the pool throws once, the
  // reported index is the lowest bad one, and every retained index is bad.
  const unsigned m = 5;
  const CompiledBnb plan(m);
  Rng rng(0x57E0A);
  std::vector<Permutation> pool;
  for (int i = 0; i < 16; ++i) pool.push_back(random_perm(32, rng));
  pool[3] = identity_perm(8);
  pool[9] = identity_perm(8);

  try {
    (void)plan.route_batch(pool, /*threads=*/2);
    FAIL() << "wrong-size permutations must throw";
  } catch (const batch_route_error& e) {
    EXPECT_EQ(e.index(), 3U);
    ASSERT_FALSE(e.failed_indices().empty());
    EXPECT_EQ(e.failed_indices().front(), e.index());
    EXPECT_EQ(e.additional_failures(), e.failed_indices().size() - 1);
    for (const std::size_t idx : e.failed_indices()) {
      EXPECT_TRUE(idx == 3U || idx == 9U) << "a healthy index was blamed";
    }
  }
}

// ---- admission control --------------------------------------------------

TEST(StreamEngine, StrictAdmissionRefusesTheWholeStream) {
  const unsigned m = 4;
  const CompiledBnb plan(m);
  const auto pool = random_pool(m, 8, 0x57E0B);

  for (const unsigned threads : {1U, 2U, 4U}) {
    StreamEngine::Options options;
    options.threads = threads;
    options.admission_limit = 5;
    StreamEngine engine(plan, options);
    try {
      (void)engine.run(pool);
      FAIL() << "overflow must shed loudly (threads=" << threads << ")";
    } catch (const stream_overload_error& e) {
      EXPECT_EQ(e.limit(), 5U);
      EXPECT_EQ(e.offered(), 8U);
    }
    // A stream within the limit is untouched by admission control.
    const auto ok = engine.run(std::span<const Permutation>(pool).first(5));
    EXPECT_EQ(ok.stats.permutations, 5U);
    EXPECT_EQ(ok.stats.shed, 0U);
  }
}

TEST(StreamEngine, IsolatingAdmissionShedsTheTail) {
  // With isolation on, overload degrades instead of refusing: the prefix
  // routes, the tail is marked kShed with zeroed dest rows.
  const unsigned m = 4;
  const std::size_t n = 16;
  const CompiledBnb plan(m);
  const auto pool = random_pool(m, 8, 0x57E0C);

  for (const unsigned threads : {1U, 2U, 4U}) {
    StreamEngine::Options options;
    options.threads = threads;
    options.admission_limit = 5;
    options.isolate_errors = true;
    StreamEngine engine(plan, options);
    const auto result = engine.run(pool);
    ASSERT_EQ(result.status.size(), 8U);
    ASSERT_EQ(result.dest.size(), 8U * n);
    EXPECT_EQ(result.stats.permutations, 8U);
    EXPECT_EQ(result.stats.shed, 3U);
    for (std::size_t i = 0; i < 8; ++i) {
      if (i < 5) {
        EXPECT_EQ(result.status[i], StreamItemStatus::kOk);
        for (std::size_t j = 0; j < n; ++j) {
          ASSERT_EQ(result.dest[i * n + j], pool[i](j));
        }
      } else {
        EXPECT_EQ(result.status[i], StreamItemStatus::kShed);
        for (std::size_t j = 0; j < n; ++j) {
          EXPECT_EQ(result.dest[i * n + j], 0U);
        }
      }
    }
  }
}

// ---- watchdog -----------------------------------------------------------

TEST(StreamEngine, WatchdogFailsAStalledSolverInsteadOfHanging) {
  // An item stuck in user code past the timeout: the stream is declared
  // stalled and run() throws stream_stall_error — a diagnostic, not a
  // hang.  (The stuck hook here is finite so the join completes.)
  const unsigned m = 4;
  const CompiledBnb plan(m);
  const auto pool = random_pool(m, 6, 0x57E0D);

  StreamEngine::Options options;
  options.threads = 2;
  options.watchdog_timeout_ms = 100;
  options.solve_hook = [](std::size_t i) {
    if (i == 2) std::this_thread::sleep_for(std::chrono::milliseconds(500));
  };
  StreamEngine engine(plan, options);
  try {
    (void)engine.run(pool);
    FAIL() << "a stalled item must fail the stream";
  } catch (const stream_stall_error& e) {
    EXPECT_EQ(e.total(), pool.size());
    EXPECT_LT(e.applied(), pool.size());
  }
}

TEST(StreamEngine, WatchdogStaysQuietOnAHealthyStream) {
  const unsigned m = 5;
  const auto pool = random_pool(m, 48, 0x57E0E);
  StreamEngine::Options options;
  options.threads = 2;
  options.watchdog_timeout_ms = 5000;
  expect_matches_route_batch(m, pool, options);
}

// ---- cancellation / destruction -----------------------------------------

TEST(StreamEngine, CancelStopsAnInFlightRun) {
  const unsigned m = 4;
  const CompiledBnb plan(m);
  const auto pool = random_pool(m, 64, 0x57E0F);

  for (const unsigned threads : {1U, 2U, 4U}) {
    StreamEngine::Options options;
    options.threads = threads;
    std::atomic<bool> started{false};
    options.solve_hook = [&](std::size_t) {
      started.store(true, std::memory_order_release);
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    };
    StreamEngine engine(plan, options);

    std::atomic<bool> cancelled_seen{false};
    std::thread runner([&] {
      try {
        (void)engine.run(pool);
      } catch (const stream_cancelled_error&) {
        cancelled_seen.store(true, std::memory_order_release);
      }
    });
    while (!started.load(std::memory_order_acquire)) std::this_thread::yield();
    engine.cancel();
    runner.join();
    EXPECT_TRUE(cancelled_seen.load()) << "threads=" << threads;
    EXPECT_TRUE(engine.cancelled());
    // cancel() is sticky: later runs are refused immediately.
    EXPECT_THROW((void)engine.run(pool), stream_cancelled_error);
  }
}

TEST(StreamEngine, DestructorDuringStreamCancelsAndJoins) {
  // Destroying the engine mid-stream must cancel the run and block until
  // it has fully exited — never leaving a worker touching freed state.
  // This is the tsan target for the drain path.
  const unsigned m = 4;
  const CompiledBnb plan(m);
  const auto pool = random_pool(m, 64, 0x57E10);

  for (const unsigned threads : {1U, 2U, 4U}) {
    StreamEngine::Options options;
    options.threads = threads;
    std::atomic<bool> started{false};
    options.solve_hook = [&](std::size_t) {
      started.store(true, std::memory_order_release);
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    };
    auto engine = std::make_unique<StreamEngine>(plan, options);

    std::atomic<bool> cancelled_seen{false};
    std::thread runner([&] {
      try {
        (void)engine->run(pool);
      } catch (const stream_cancelled_error&) {
        cancelled_seen.store(true, std::memory_order_release);
      }
    });
    while (!started.load(std::memory_order_acquire)) std::this_thread::yield();
    engine.reset();  // cancels, then blocks until the run has exited
    runner.join();
    EXPECT_TRUE(cancelled_seen.load()) << "threads=" << threads;
  }
}

TEST(StreamEngine, PipelinedItemsShareOneTraceAcrossTheHandoff) {
#if !BNB_OBS_COMPILED
  GTEST_SKIP() << "BNB_OBS_OFF: spans and trace ids are compiled out";
#else
  // The acceptance shape of the causal-tracing work: every item of a
  // multi-worker stream must retire a solve, a queue-wait, and an apply
  // span under ONE trace id, parented to the run's trace, with the solve
  // and apply on the same worker thread (items run end to end).
  const unsigned m = 12;  // general lane: solves go through kSolve spans
  const CompiledBnb plan(m);
  const auto pool = random_pool(m, 12, 0x57E0C);

  obs::set_enabled(true);
  obs::SpanTrace trace(4096);
  obs::set_trace(&trace);
  StreamEngine::Options options;
  options.threads = 4;
  const StreamEngine engine(plan, options);
  const auto result = engine.run(pool);
  obs::set_trace(nullptr);
  EXPECT_TRUE(result.stats.all_self_routed);
  EXPECT_EQ(result.stats.threads_used, 4U);

  const auto spans = trace.snapshot();
  EXPECT_EQ(trace.dropped(), 0u);

  // The run span carries the root trace id every item is parented to.
  std::uint64_t run_id = 0;
  for (const auto& span : spans) {
    if (span.phase == obs::Phase::kStreamRun) run_id = span.trace_id;
  }
  ASSERT_NE(run_id, 0u);

  struct PerItem {
    int solves = 0;
    int waits = 0;
    int applies = 0;
    std::uint32_t solve_tid = 0;
    std::uint32_t apply_tid = 0;
  };
  std::map<std::uint64_t, PerItem> items;
  for (const auto& span : spans) {
    if (span.trace_id == 0 || span.trace_id == run_id) continue;
    EXPECT_EQ(span.parent_id, run_id) << "item spans parent to the run";
    PerItem& item = items[span.trace_id];
    switch (span.phase) {
      case obs::Phase::kSolve:
        ++item.solves;
        item.solve_tid = span.thread_id;
        break;
      case obs::Phase::kQueueWait:
        ++item.waits;
        break;
      case obs::Phase::kApply:
        ++item.applies;
        item.apply_tid = span.thread_id;
        break;
      default:
        break;
    }
  }
  ASSERT_EQ(items.size(), pool.size());
  for (const auto& [trace_id, item] : items) {
    EXPECT_EQ(item.solves, 1) << "trace " << trace_id;
    EXPECT_EQ(item.waits, 1) << "trace " << trace_id;
    EXPECT_EQ(item.applies, 1) << "trace " << trace_id;
    EXPECT_NE(item.solve_tid, 0U) << "trace " << trace_id;
    EXPECT_EQ(item.solve_tid, item.apply_tid)
        << "an item's solve and apply run on one worker";
  }
  // The queue-wait histogram saw every item.
  EXPECT_GE(obs::phase_histogram(obs::Phase::kQueueWait).total_count(), pool.size());
#endif
}

TEST(StreamEngine, InlineItemsGetPerItemTracesWithoutQueueWaits) {
#if !BNB_OBS_COMPILED
  GTEST_SKIP() << "BNB_OBS_OFF: spans and trace ids are compiled out";
#else
  const unsigned m = 4;
  const CompiledBnb plan(m);
  const auto pool = random_pool(m, 6, 0x57E0D);
  obs::set_enabled(true);
  obs::SpanTrace trace(1024);
  obs::set_trace(&trace);
  StreamEngine::Options options;
  options.threads = 1;
  const StreamEngine engine(plan, options);
  (void)engine.run(pool);
  obs::set_trace(nullptr);

  std::uint64_t run_id = 0;
  std::set<std::uint64_t> item_ids;
  bool saw_queue_wait = false;
  for (const auto& span : trace.snapshot()) {
    if (span.phase == obs::Phase::kStreamRun) run_id = span.trace_id;
    if (span.phase == obs::Phase::kQueueWait) saw_queue_wait = true;
    if (span.trace_id != 0 && span.phase == obs::Phase::kSmallApply) {
      item_ids.insert(span.trace_id);
    }
  }
  ASSERT_NE(run_id, 0u);
  // m=4 streams take the small lane: one apply_small span per item, each
  // under its own child trace.  One worker queues nothing: no queue-wait
  // pseudo-spans.
  EXPECT_EQ(item_ids.size(), pool.size());
  EXPECT_FALSE(saw_queue_wait);
#endif
}

TEST(StreamEngine, SharedCacheAcrossEnginesAndRuns) {
  // Two engines (four workers and one) over one cache: whichever runs
  // first fills it, the other streams pure hits — and the outputs agree.
  const unsigned m = 7;
  const CompiledBnb plan(m);
  const auto pool = random_pool(m, 10, 0x57E07);
  const BatchResult want = plan.route_batch(pool);

  ScheduleCache cache(32);
  StreamEngine first(plan, {.threads = 4, .cache = &cache});
  StreamEngine second(plan, {.threads = 1, .cache = &cache});

  const auto cold = first.run(pool);
  const auto warm = second.run(pool);
  EXPECT_EQ(cold.dest, want.dest);
  EXPECT_EQ(warm.dest, want.dest);
  EXPECT_EQ(warm.stats.cache_hits, pool.size());
  EXPECT_EQ(cache.stats().entries, pool.size());
}

// ---- data-parallel scheduler --------------------------------------------

TEST(StreamEngine, DifferentialAgainstRouteBatchAcrossThreadsAndCaches) {
  // Every worker count, with no cache, a cold cache and a warm cache, must
  // reproduce route_batch bit for bit; the cache counters must account
  // for every item exactly once.
  for (const unsigned m : {3U, 6U, 8U, 12U}) {
    const CompiledBnb plan(m);
    std::vector<Permutation> pool;
    std::set<std::vector<std::uint32_t>> seen;
    Rng rng(0x57E20 + m);
    while (pool.size() < 16) {
      Permutation pi = random_perm(plan.inputs(), rng);
      const std::vector<std::uint32_t> image(pi.image().begin(), pi.image().end());
      if (seen.insert(image).second) pool.push_back(std::move(pi));
    }
    for (const unsigned threads : {1U, 2U, 3U, 4U, 8U}) {
      const BatchResult want = plan.route_batch(pool, threads);
      const std::string label = "m=" + std::to_string(m) + " threads=" + std::to_string(threads);

      const StreamEngine bare(plan, {.threads = threads});
      const auto uncached = bare.run(pool);
      EXPECT_EQ(uncached.dest, want.dest) << label;
      EXPECT_EQ(uncached.stats.solved, pool.size()) << label;
      EXPECT_EQ(uncached.stats.threads_used, std::min(threads, 16U)) << label;

      ScheduleCache cache(64);
      const StreamEngine cached(plan, {.threads = threads, .cache = &cache});
      const auto cold = cached.run(pool);
      EXPECT_EQ(cold.dest, want.dest) << label << " cold";
      EXPECT_EQ(cold.stats.solved, pool.size()) << label << " cold";
      EXPECT_EQ(cold.stats.cache_hits, 0U) << label << " cold";
      const auto warm = cached.run(pool);
      EXPECT_EQ(warm.dest, want.dest) << label << " warm";
      EXPECT_EQ(warm.stats.solved, 0U) << label << " warm";
      EXPECT_EQ(warm.stats.cache_hits, pool.size()) << label << " warm";
      for (const auto* result : {&uncached, &cold, &warm}) {
        EXPECT_EQ(result->stats.all_self_routed, want.all_self_routed) << label;
        EXPECT_EQ(std::count(result->status.begin(), result->status.end(),
                             StreamItemStatus::kOk),
                  static_cast<std::ptrdiff_t>(pool.size()))
            << label;
      }
    }
  }
}

TEST(StreamEngine, TwoPoisonedItemsAtFourWorkers) {
  const unsigned m = 6;
  const std::size_t n = 64;
  const CompiledBnb plan(m);
  auto pool = random_pool(m, 64, 0x57E21);
  pool[11] = identity_perm(8);  // wrong size: the solver's contract trips
  pool[40] = identity_perm(16);

  // Strict: whichever worker fails first, the lowest bad index is the one
  // reported, with its own cause, and no healthy index is blamed.
  for (int round = 0; round < 20; ++round) {
    const StreamEngine engine(plan, {.threads = 4});
    try {
      (void)engine.run(pool);
      FAIL() << "poisoned stream must throw";
    } catch (const batch_route_error& e) {
      EXPECT_EQ(e.index(), 11U) << "round " << round;
      EXPECT_THROW(std::rethrow_exception(e.cause()), contract_violation);
      ASSERT_FALSE(e.failed_indices().empty());
      EXPECT_EQ(e.failed_indices().front(), 11U);
      EXPECT_TRUE(std::is_sorted(e.failed_indices().begin(), e.failed_indices().end()));
      for (const std::size_t idx : e.failed_indices()) {
        EXPECT_TRUE(idx == 11U || idx == 40U) << "a healthy index was blamed: " << idx;
      }
      EXPECT_NE(std::string(e.what()).find("stream_engine: permutation 11 of 64"),
                std::string::npos)
          << e.what();
    }
  }

  // Isolating: exactly the two bad items fail, everything else delivers.
  StreamEngine::Options options;
  options.threads = 4;
  options.isolate_errors = true;
  const StreamEngine engine(plan, options);
  const auto result = engine.run(pool);
  EXPECT_EQ(result.stats.failed, 2U);
  EXPECT_EQ(result.stats.threads_used, 4U);
  for (std::size_t i = 0; i < pool.size(); ++i) {
    const bool bad = i == 11 || i == 40;
    ASSERT_EQ(result.status[i], bad ? StreamItemStatus::kFailed : StreamItemStatus::kOk)
        << "i=" << i;
    for (std::size_t j = 0; j < n; ++j) {
      ASSERT_EQ(result.dest[i * n + j], bad ? 0U : pool[i](j)) << "i=" << i;
    }
  }
}

TEST(BatchRouteError, BothEntryPointsShareOneMessage) {
  const unsigned m = 4;
  const CompiledBnb plan(m);
  auto pool = random_pool(m, 8, 0x57E22);

  // Item 2 fails only after item 5 has (the pause lets item 5's worker
  // record its failure first): two failures every time, and the lower
  // one is still the one reported.
  std::atomic<bool> five_failed{false};
  StreamEngine::Options options;
  options.threads = 4;
  options.solve_hook = [&](std::size_t i) {
    if (i == 5) {
      five_failed.store(true, std::memory_order_release);
      throw std::runtime_error("five");
    }
    if (i == 2) {
      const auto give_up = std::chrono::steady_clock::now() + std::chrono::seconds(10);
      while (!five_failed.load(std::memory_order_acquire) &&
             std::chrono::steady_clock::now() < give_up) {
        std::this_thread::yield();
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
      throw std::runtime_error("two");
    }
  };
  const StreamEngine engine(plan, options);
  try {
    (void)engine.run(pool);
    FAIL() << "failing hooks must fail the stream";
  } catch (const batch_route_error& e) {
    EXPECT_EQ(e.index(), 2U);
    EXPECT_EQ(e.failed_indices(), (std::vector<std::size_t>{2, 5}));
    EXPECT_STREQ(e.what(), "stream_engine: permutation 2 of 8 threw: two "
                           "(+1 more worker failure)");
  }

  pool[3] = identity_perm(8);
  for (const unsigned threads : {1U, 4U}) {
    try {
      (void)plan.route_batch(pool, threads);
      FAIL() << "poisoned batch must throw";
    } catch (const batch_route_error& e) {
      EXPECT_EQ(e.index(), 3U);
      EXPECT_EQ(std::string(e.what()).rfind("route_batch: permutation 3 of 8 threw: ", 0), 0U)
          << e.what();
    }
  }
}

TEST(StreamEngine, WatchdogFiresOnOneStuckItemAtFourWorkers) {
  const unsigned m = 4;
  const CompiledBnb plan(m);
  const auto pool = random_pool(m, 32, 0x57E23);
  obs::MetricsRegistry reg;

  StreamEngine::Options options;
  options.threads = 4;
  options.registry = &reg;
  options.watchdog_timeout_ms = 100;
  options.solve_hook = [](std::size_t i) {
    if (i == 5) std::this_thread::sleep_for(std::chrono::milliseconds(600));
  };
  const StreamEngine engine(plan, options);
  try {
    (void)engine.run(pool);
    FAIL() << "one stuck item must fail the stream";
  } catch (const stream_stall_error& e) {
    EXPECT_EQ(e.total(), pool.size());
    EXPECT_LT(e.applied(), pool.size());
    EXPECT_GT(e.solved(), e.applied()) << "the stuck item was picked up, not retired";
  }
  EXPECT_EQ(reg.snapshot().find("bnb_stream_stalls_total")->counter, 1U);

  // Every worker stuck at once: the first worker to retire after the gap
  // declares the stall.
  StreamEngine::Options all_stuck;
  all_stuck.threads = 4;
  all_stuck.watchdog_timeout_ms = 100;
  all_stuck.apply_hook = [](std::size_t) {
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
  };
  const StreamEngine stuck_engine(plan, all_stuck);
  EXPECT_THROW((void)stuck_engine.run(std::span<const Permutation>(pool).first(4)),
               stream_stall_error);
}

TEST(StreamEngine, WatchdogStaysQuietOnSlowProgressingItemsAtFourWorkers) {
  const unsigned m = 5;
  const auto pool = random_pool(m, 48, 0x57E24);
  StreamEngine::Options options;
  options.threads = 4;
  options.watchdog_timeout_ms = 1000;
  options.solve_hook = [](std::size_t) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  };
  expect_matches_route_batch(m, pool, options);
}

}  // namespace

// One invariant across every public routing entry point: on a clean fabric,
// route, route_batch, StreamEngine (one and four workers, with and without a
// cache), ResilientRouter and StagedBnbRouter::step_replay all deliver input
// j to output pi(j), and the controls solve() produces are the switch
// settings of the behavioural BnbNetwork — each BSN of each main stage
// re-derived from the words BnbNetwork's trace shows entering that stage.
#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/math_util.hpp"
#include "common/rng.hpp"
#include "core/bit_pack.hpp"
#include "core/bit_sorter.hpp"
#include "core/bnb_network.hpp"
#include "core/compiled_bnb.hpp"
#include "core/schedule_cache.hpp"
#include "fabric/staged_router.hpp"
#include "fabric/stream_engine.hpp"
#include "fault/resilience.hpp"
#include "perm/generators.hpp"

namespace {

using namespace bnb;

/// Identity, reversal, bit reversal, perfect shuffle and a rotation, then
/// `randoms` seeded uniform permutations.
std::vector<Permutation> inputs_for(unsigned m, int randoms) {
  const std::size_t n = std::size_t{1} << m;
  std::vector<Permutation> perms{identity_perm(n), reversal_perm(n), bit_reversal_perm(n),
                                 perfect_shuffle_perm(n), rotation_perm(n, 1)};
  Rng rng(0xE17A + m);
  for (int r = 0; r < randoms; ++r) perms.push_back(random_perm(n, rng));
  return perms;
}

void expect_delivers(const Permutation& pi, std::span<const std::uint32_t> dest,
                     const std::string& label) {
  ASSERT_EQ(dest.size(), pi.size()) << label;
  for (std::size_t j = 0; j < pi.size(); ++j) {
    ASSERT_EQ(dest[j], pi(j)) << label << ": input " << j;
  }
}

/// The behavioural network's switch settings for pi, in ControlSchedule's
/// column order: main stage i contributes its m - i BSN stages, and column
/// (i, l) lists the switches of box 0, box 1, ... top to bottom.
std::vector<std::vector<std::uint8_t>> reference_controls(const BnbNetwork& net,
                                                          const Permutation& pi) {
  const unsigned m = net.m();
  const auto traced = net.route(pi, /*keep_trace=*/true);
  std::vector<std::vector<std::uint8_t>> columns;
  for (unsigned i = 0; i < m; ++i) {
    const unsigned k = m - i;
    const std::size_t box = std::size_t{1} << k;
    const BitSorter bsn(k);
    const std::size_t first = columns.size();
    columns.resize(first + k);
    const std::vector<Word>& words = traced.stage_words[i];
    for (std::size_t b = 0; b < net.inputs() / box; ++b) {
      std::vector<std::uint8_t> bits(box);
      for (std::size_t t = 0; t < box; ++t) {
        bits[t] = static_cast<std::uint8_t>(bit_of(words[b * box + t].address, m - 1 - i));
      }
      const auto sorted = bsn.route(bits);
      for (unsigned l = 0; l < k; ++l) {
        columns[first + l].insert(columns[first + l].end(), sorted.controls[l].begin(),
                                  sorted.controls[l].end());
      }
    }
  }
  return columns;
}

TEST(EntryPoints, EveryEntryPointDeliversPiWithTheBehaviouralControls) {
  for (unsigned m = 3; m <= 10; ++m) {
    const std::size_t n = std::size_t{1} << m;
    const std::string at = "m=" + std::to_string(m);
    const std::vector<Permutation> perms = inputs_for(m, 6);
    const CompiledBnb plan(m);
    const BnbNetwork net(m);
    const StagedBnbRouter staged(m);

    // Per-permutation entry points: route, solve, step_replay, the
    // resilient router.
    ResilientRouter resilient(m);
    RouteScratch scratch;
    ControlSchedule schedule;
    for (std::size_t p = 0; p < perms.size(); ++p) {
      const Permutation& pi = perms[p];
      const std::string label = at + " perm " + std::to_string(p);
      expect_delivers(pi, plan.route(pi, scratch).dest, label + " route");

      plan.solve(pi, scratch, schedule);
      const auto want = reference_controls(net, pi);
      ASSERT_EQ(schedule.columns(), want.size()) << label;
      for (std::size_t c = 0; c < want.size(); ++c) {
        ASSERT_EQ(want[c].size(), n / 2) << label << " column " << c;
        for (std::size_t t = 0; t < n / 2; ++t) {
          ASSERT_EQ(bitpack::get_bit(schedule.column(c), t), want[c][t])
              << label << ": solve controls differ from BnbNetwork at column " << c
              << " switch " << t;
        }
      }

      std::vector<Word> words(n);
      for (std::size_t j = 0; j < n; ++j) words[j] = Word{pi(j), std::uint64_t{j}};
      StagedJob job = staged.start(words);
      while (!staged.finished(job)) staged.step_replay(job, schedule);
      std::vector<std::uint32_t> staged_dest(n);
      for (std::size_t line = 0; line < n; ++line) {
        ASSERT_EQ(job.lines[line].address, line) << label << " step_replay";
        staged_dest[job.lines[line].payload] = static_cast<std::uint32_t>(line);
      }
      expect_delivers(pi, staged_dest, label + " step_replay");

      const ResilientReport report = resilient.route(pi);
      ASSERT_TRUE(report.delivered()) << label << " resilient";
      expect_delivers(pi, report.dest, label + " resilient");
    }

    // Batch entry points: route_batch and the stream engine.
    const auto row = [&](const std::vector<std::uint32_t>& dest, std::size_t p) {
      return std::span<const std::uint32_t>(dest).subspan(p * n, n);
    };
    for (const unsigned threads : {1U, 4U}) {
      const std::string label = at + " threads=" + std::to_string(threads);
      const BatchResult batch = plan.route_batch(perms, threads);
      EXPECT_TRUE(batch.all_self_routed) << label;
      for (std::size_t p = 0; p < perms.size(); ++p) {
        expect_delivers(perms[p], row(batch.dest, p), label + " route_batch");
      }
      ScheduleCache cache(64);
      for (ScheduleCache* cache_option : {static_cast<ScheduleCache*>(nullptr), &cache}) {
        const StreamEngine stream(plan, {.threads = threads, .cache = cache_option});
        // With the cache: the first run solves and inserts, the second
        // replays every item from the cache.
        for (int pass = 0; pass < (cache_option != nullptr ? 2 : 1); ++pass) {
          const auto result = stream.run(perms);
          EXPECT_TRUE(result.stats.all_self_routed) << label;
          for (std::size_t p = 0; p < perms.size(); ++p) {
            expect_delivers(perms[p], row(result.dest, p),
                            label + (cache_option != nullptr ? " cached stream pass " +
                                                                   std::to_string(pass)
                                                             : " stream"));
          }
        }
      }
    }
  }
}

}  // namespace

// Kernel-equivalence suite: every kernel tier this build can run on this
// host must be BIT-IDENTICAL to the scalar reference — on the raw packed
// primitives over randomized zero-tail arrays (1..4096 bits), on the
// column pass against its three-pass composition, on the solve's
// address-slice pack against the 64x64 transpose, and on full routes
// (exhaustive for m <= 3, randomized up to m = 12), including with a
// non-empty EngineFaults overlay and with ControlTrace capture.  A SIMD
// lane bug that survives this file does not exist.
//
// The tier list is discovered at runtime (kernels::supported_kernel_sets),
// so the same test binary checks scalar+wide everywhere, avx2/avx512 on
// x86 hosts that have them, and neon on aarch64.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/bit_pack.hpp"
#include "core/compiled_bnb.hpp"
#include "core/kernels/kernel_set.hpp"
#include "fault/fault_model.hpp"
#include "fault/injection.hpp"
#include "perm/generators.hpp"

namespace {

using namespace bnb;
using kernels::KernelSet;

std::vector<std::uint64_t> random_packed(std::size_t nbits, Rng& rng) {
  std::vector<std::uint64_t> words(bitpack::words_for(nbits), 0);
  for (auto& w : words) w = rng();
  if (nbits % 64 != 0 && !words.empty()) {
    words.back() &= (std::uint64_t{1} << (nbits % 64)) - 1;  // zero tail
  }
  return words;
}

/// The sweep of logical sizes: every size up to 300 bits (all word-boundary
/// and tail shapes), then a spread of larger ones up to 4096.
std::vector<std::size_t> size_sweep() {
  std::vector<std::size_t> sizes;
  for (std::size_t n = 1; n <= 300; ++n) sizes.push_back(n);
  for (std::size_t n : {320UL, 384UL, 511UL, 512UL, 513UL, 777UL, 1024UL,
                        2000UL, 2048UL, 3333UL, 4095UL, 4096UL}) {
    sizes.push_back(n);
  }
  return sizes;
}

// ---- registry and dispatch --------------------------------------------

TEST(Kernels, RegistryListsScalarFirstInAscendingTierOrder) {
  const auto sets = kernels::supported_kernel_sets();
  ASSERT_GE(sets.size(), 2U) << "scalar and wide are always available";
  EXPECT_EQ(sets[0], &kernels::scalar_kernels());
  EXPECT_EQ(sets[1], &kernels::wide_kernels());
  EXPECT_FALSE(sets[0]->wide_datapath) << "scalar routes per-line";
  for (std::size_t i = 0; i < sets.size(); ++i) {
    EXPECT_STREQ(sets[i]->name, kernels::tier_name(sets[i]->tier));
    if (i > 0) {
      EXPECT_LT(static_cast<int>(sets[i - 1]->tier),
                static_cast<int>(sets[i]->tier));
      EXPECT_TRUE(sets[i]->wide_datapath)
          << sets[i]->name << ": every non-scalar tier is bit-sliced";
    }
    EXPECT_EQ(kernels::find_kernels(sets[i]->name), sets[i])
        << "find_kernels must round-trip every supported name";
  }
  EXPECT_EQ(kernels::find_kernels("not-a-tier"), nullptr);
  EXPECT_EQ(kernels::find_kernels(""), nullptr);
}

TEST(Kernels, ActiveDispatchNeverAutoSelectsWide) {
  // `wide` is the portable datapath reference, strictly slower than scalar
  // on the movement-bound sizes — it must be reachable only by request.
  if (std::getenv("BNB_KERNELS") == nullptr) {
    EXPECT_NE(kernels::active_kernels().tier, kernels::Tier::kWide);
  }
}

TEST(Kernels, EnvOverrideParsing) {
  // kernels_from_env re-reads the variable on every call (unlike
  // active_kernels, which caches its first resolution), so it can be
  // exercised with setenv directly.
  const char* saved = std::getenv("BNB_KERNELS");
  const std::string saved_value = saved != nullptr ? saved : "";

  ::unsetenv("BNB_KERNELS");
  EXPECT_EQ(kernels::kernels_from_env(), nullptr);
  ::setenv("BNB_KERNELS", "", 1);
  EXPECT_EQ(kernels::kernels_from_env(), nullptr) << "empty behaves as unset";

  for (const KernelSet* set : kernels::supported_kernel_sets()) {
    ::setenv("BNB_KERNELS", set->name, 1);
    EXPECT_EQ(kernels::kernels_from_env(), set) << set->name;
  }

  ::setenv("BNB_KERNELS", "avx1024", 1);
  EXPECT_THROW((void)kernels::kernels_from_env(), std::runtime_error)
      << "a misspelled override must fail loudly, not fall back";

  if (saved != nullptr) {
    ::setenv("BNB_KERNELS", saved_value.c_str(), 1);
  } else {
    ::unsetenv("BNB_KERNELS");
  }
}

// ---- primitive equivalence --------------------------------------------

TEST(Kernels, CompressPassesMatchScalarOnRandomizedArrays) {
  Rng rng(0xC0DE01);
  const auto& ref = kernels::scalar_kernels();
  for (const std::size_t nbits : size_sweep()) {
    const auto in = random_packed(nbits, rng);
    const std::size_t out_words = bitpack::words_for(nbits / 2);
    std::vector<std::uint64_t> expect_e(out_words + 1), expect_o(out_words + 1),
        expect_x(out_words + 1), got(out_words + 1);
    ref.compress_even(in.data(), nbits, expect_e.data());
    ref.compress_odd(in.data(), nbits, expect_o.data());
    ref.pair_xor_compress(in.data(), nbits, expect_x.data());
    for (const KernelSet* set : kernels::supported_kernel_sets()) {
      set->compress_even(in.data(), nbits, got.data());
      ASSERT_TRUE(std::equal(got.begin(), got.begin() + out_words, expect_e.begin()))
          << set->name << " compress_even nbits=" << nbits;
      set->compress_odd(in.data(), nbits, got.data());
      ASSERT_TRUE(std::equal(got.begin(), got.begin() + out_words, expect_o.begin()))
          << set->name << " compress_odd nbits=" << nbits;
      set->pair_xor_compress(in.data(), nbits, got.data());
      ASSERT_TRUE(std::equal(got.begin(), got.begin() + out_words, expect_x.begin()))
          << set->name << " pair_xor_compress nbits=" << nbits;
    }
  }
}

TEST(Kernels, MovementPassesMatchScalarOnRandomizedArrays) {
  Rng rng(0xC0DE02);
  const auto& ref = kernels::scalar_kernels();
  for (const std::size_t nbits : size_sweep()) {
    const auto a = random_packed(nbits, rng);
    const auto b = random_packed(nbits, rng);
    const std::size_t words = bitpack::words_for(nbits);
    const std::size_t out_words = bitpack::words_for(2 * nbits);
    std::vector<std::uint64_t> expect(out_words + 1), got(out_words + 1);

    ref.interleave_bits(a.data(), b.data(), nbits, expect.data());
    for (const KernelSet* set : kernels::supported_kernel_sets()) {
      set->interleave_bits(a.data(), b.data(), nbits, got.data());
      ASSERT_TRUE(std::equal(got.begin(), got.begin() + out_words, expect.begin()))
          << set->name << " interleave_bits nbits=" << nbits;
    }

    for (std::size_t chunk = 1; chunk <= nbits; chunk *= 2) {
      if (nbits % chunk != 0) break;
      ref.chunk_concat(a.data(), b.data(), nbits, chunk, expect.data());
      for (const KernelSet* set : kernels::supported_kernel_sets()) {
        set->chunk_concat(a.data(), b.data(), nbits, chunk, got.data());
        ASSERT_TRUE(std::equal(got.begin(), got.begin() + out_words, expect.begin()))
            << set->name << " chunk_concat nbits=" << nbits << " chunk=" << chunk;
      }
    }

    const auto ctl = random_packed(nbits, rng);
    std::vector<std::uint64_t> expect_e(a), expect_o(b);
    ref.masked_exchange(expect_e.data(), expect_o.data(), ctl.data(), words);
    std::vector<std::uint64_t> expect_x(a);
    ref.xor_words(expect_x.data(), b.data(), words);
    for (const KernelSet* set : kernels::supported_kernel_sets()) {
      std::vector<std::uint64_t> e(a), o(b);
      set->masked_exchange(e.data(), o.data(), ctl.data(), words);
      ASSERT_TRUE(e == expect_e && o == expect_o)
          << set->name << " masked_exchange nbits=" << nbits;
      std::vector<std::uint64_t> d(a);
      set->xor_words(d.data(), b.data(), words);
      ASSERT_EQ(d, expect_x) << set->name << " xor_words nbits=" << nbits;
    }
  }
}

/// Column sizes for the column pass: every power of two up to 2^16, plus
/// sizes whose word counts are not multiples of 8 or 16 (and two below one
/// word), so every SIMD tier runs its vector loop AND its scalar tail.
std::vector<std::size_t> column_sizes() {
  std::vector<std::size_t> sizes;
  for (std::size_t n = 2; n <= (std::size_t{1} << 16); n *= 2) sizes.push_back(n);
  for (std::size_t n : {48UL, 96UL, 192UL, 320UL, 384UL, 448UL, 704UL, 832UL, 1152UL,
                        1216UL, 2176UL, 2304UL, 4608UL, 5632UL, 12288UL}) {
    sizes.push_back(n);
  }
  return sizes;
}

TEST(Kernels, ColumnPassMatchesItsThreePassComposition) {
  Rng rng(0xC0DE03);
  const auto& ref = kernels::scalar_kernels();
  constexpr std::uint64_t kGuard = 0xA5A5A5A5DEADBEEFULL;
  constexpr std::size_t kGuardWords = 17;
  for (const std::size_t nbits : column_sizes()) {
    const std::size_t words = bitpack::words_for(nbits);
    const std::size_t half_words = bitpack::words_for(nbits / 2);
    unsigned m = 0;
    while ((std::size_t{1} << m) < nbits) ++m;
    const auto ctl = random_packed(nbits / 2, rng);
    for (const std::size_t slices : {0UL, 1UL, 3UL, 2UL * m}) {
      std::vector<std::uint64_t> in;
      for (std::size_t s = 0; s < slices; ++s) {
        const auto slice = random_packed(nbits, rng);
        in.insert(in.end(), slice.begin(), slice.end());
      }
      for (std::size_t chunk = 1; nbits % (2 * chunk) == 0; chunk *= 2) {
        // Reference, per slice: compress -> masked exchange -> chunk_concat.
        std::vector<std::uint64_t> expect(slices * words);
        std::vector<std::uint64_t> e(half_words), o(half_words);
        for (std::size_t s = 0; s < slices; ++s) {
          ref.compress_even(in.data() + s * words, nbits, e.data());
          ref.compress_odd(in.data() + s * words, nbits, o.data());
          ref.masked_exchange(e.data(), o.data(), ctl.data(), half_words);
          ref.chunk_concat(e.data(), o.data(), nbits / 2, chunk,
                           expect.data() + s * words);
        }
        for (const KernelSet* set : kernels::supported_kernel_sets()) {
          std::vector<std::uint64_t> got(slices * words + kGuardWords, kGuard);
          std::vector<std::uint64_t> tmp(words);
          set->column_pass(in.data(), slices, nbits, ctl.data(), chunk, tmp.data(),
                           got.data());
          ASSERT_TRUE(std::equal(expect.begin(), expect.end(), got.begin()))
              << set->name << " column_pass nbits=" << nbits << " chunk=" << chunk
              << " slices=" << slices;
          for (std::size_t w = slices * words; w < got.size(); ++w) {
            ASSERT_EQ(got[w], kGuard) << set->name << " column_pass wrote word " << w
                                      << " past its " << slices << " slices, nbits="
                                      << nbits << " chunk=" << chunk;
          }
        }
      }
    }
  }
}

TEST(Kernels, PackAddressSlicesMatchesTheTranspose) {
  Rng rng(0xC0DE06);
  constexpr std::uint64_t kGuard = 0x5A5A5A5ABADC0FFEULL;
  constexpr std::size_t kGuardWords = 9;
  for (unsigned m = 1; m <= 16; ++m) {
    const std::size_t n = std::size_t{1} << m;
    const std::size_t words = bitpack::words_for(n);
    const Permutation pi = random_perm(n, rng);
    const std::uint32_t* image = pi.image().data();
    // Reference by definition: bit t of slice a's word b is bit a of line
    // 64b + t, computed through the 64x64 transpose per block.
    std::vector<std::uint64_t> expect(m * words, 0);
    for (std::size_t b = 0; b < words; ++b) {
      std::uint64_t blk[64] = {};
      for (std::size_t t = 0; t < 64 && 64 * b + t < n; ++t) blk[t] = image[64 * b + t];
      bitpack::transpose_64x64(blk);
      for (unsigned a = 0; a < m; ++a) expect[a * words + b] = blk[a];
    }
    for (std::size_t line = 0; line < n; ++line) {
      for (unsigned a = 0; a < m; ++a) {
        ASSERT_EQ(bitpack::get_bit(expect.data() + a * words, line), (image[line] >> a) & 1U);
      }
    }
    for (const KernelSet* set : kernels::supported_kernel_sets()) {
      std::vector<std::uint64_t> got(m * words + kGuardWords, kGuard);
      set->pack_address_slices(image, n, m, got.data());
      ASSERT_TRUE(std::equal(expect.begin(), expect.end(), got.begin()))
          << set->name << " pack_address_slices m=" << m;
      for (std::size_t w = m * words; w < got.size(); ++w) {
        ASSERT_EQ(got[w], kGuard) << set->name << " pack wrote word " << w << " m=" << m;
      }
    }
  }
}

TEST(Kernels, Transpose64x64MatchesBitDefinitionAndIsAnInvolution) {
  Rng rng(0xC0DE04);
  std::uint64_t x[64];
  std::uint64_t orig[64];
  for (auto& w : x) w = rng();
  std::copy(std::begin(x), std::end(x), std::begin(orig));
  bitpack::transpose_64x64(x);
  for (unsigned i = 0; i < 64; ++i) {
    for (unsigned j = 0; j < 64; ++j) {
      ASSERT_EQ((x[j] >> i) & 1U, (orig[i] >> j) & 1U)
          << "bit (" << i << "," << j << ")";
    }
  }
  bitpack::transpose_64x64(x);
  EXPECT_TRUE(std::equal(std::begin(x), std::end(x), std::begin(orig)));
}

// ---- pairs_split: the clean control path's per-BSN delivery check -------

TEST(Kernels, PairsSplitAcceptsBalancedPairs) {
  Rng rng(0xC0DE05);
  for (const std::size_t pairs : {1UL, 2UL, 5UL, 63UL, 64UL, 65UL, 128UL, 200UL, 4096UL}) {
    std::vector<std::uint64_t> e = random_packed(pairs, rng);
    std::vector<std::uint64_t> o = e;
    for (auto& w : o) w = ~w;
    EXPECT_TRUE(bitpack::pairs_split(e.data(), o.data(), pairs)) << "pairs=" << pairs;
  }
}

TEST(Kernels, PairsSplitRejectsASameBitPairInAnyWord) {
  // 200 pairs span four words: the first, two middle ones, and a last word
  // holding 8 pairs.
  constexpr std::size_t kPairs = 200;
  Rng rng(0xC0DE06);
  const std::vector<std::uint64_t> e = random_packed(kPairs, rng);
  std::vector<std::uint64_t> balanced = e;
  for (auto& w : balanced) w = ~w;
  for (const std::size_t t : {std::size_t{0}, std::size_t{100}, kPairs - 1}) {
    std::vector<std::uint64_t> o = balanced;
    o[t >> 6] ^= std::uint64_t{1} << (t & 63);  // pair t now holds two equal bits
    EXPECT_FALSE(bitpack::pairs_split(e.data(), o.data(), kPairs)) << "pair " << t;
  }
}

TEST(Kernels, PairsSplitIgnoresBitsPastThePairCount) {
  // Equal bits at positions >= pairs would be same-bit pairs if read.
  constexpr std::size_t kPairs = 200;
  Rng rng(0xC0DE07);
  std::vector<std::uint64_t> e = random_packed(kPairs, rng);
  std::vector<std::uint64_t> o = e;
  for (auto& w : o) w = ~w;
  const std::uint64_t tail = ~((std::uint64_t{1} << (kPairs % 64)) - 1);
  e.back() &= ~tail;
  o.back() &= ~tail;  // bits 200..255 zero in both
  EXPECT_TRUE(bitpack::pairs_split(e.data(), o.data(), kPairs));
  e.back() |= tail;
  o.back() |= tail;  // ... and all ones in both
  EXPECT_TRUE(bitpack::pairs_split(e.data(), o.data(), kPairs));
}

TEST(Kernels, PairsSplitSinglePair) {
  // m = 1: one switch, one pair, bit 0 only.
  const std::uint64_t zero = 0;
  const std::uint64_t one = 1;
  const std::uint64_t garbage_zero = ~std::uint64_t{1};  // bit 0 clear
  EXPECT_TRUE(bitpack::pairs_split(&zero, &one, 1));
  EXPECT_TRUE(bitpack::pairs_split(&one, &zero, 1));
  EXPECT_FALSE(bitpack::pairs_split(&zero, &zero, 1));
  EXPECT_FALSE(bitpack::pairs_split(&one, &one, 1));
  EXPECT_TRUE(bitpack::pairs_split(&garbage_zero, &one, 1));
  EXPECT_FALSE(bitpack::pairs_split(&garbage_zero, &zero, 1));
}

// ---- full-route equivalence -------------------------------------------

/// Route `pi` through a plan per tier and require outputs, destinations,
/// self_routed, and (when tracing) every column's packed controls to be
/// bit-identical to the scalar plan's.
void expect_route_equivalence(unsigned m, const Permutation& pi,
                              const EngineFaults* faults, bool with_trace) {
  const CompiledBnb ref_plan(m, &kernels::scalar_kernels());
  RouteScratch ref_scratch;
  ControlTrace ref_trace;
  const auto ref_out = ref_plan.route(pi, ref_scratch,
                                      with_trace ? &ref_trace : nullptr, faults);

  for (const KernelSet* set : kernels::supported_kernel_sets()) {
    const CompiledBnb plan(m, set);
    RouteScratch scratch;
    ControlTrace trace;
    const auto out = plan.route(pi, scratch, with_trace ? &trace : nullptr, faults);
    ASSERT_EQ(out.self_routed, ref_out.self_routed) << set->name << " m=" << m;
    for (std::size_t line = 0; line < plan.inputs(); ++line) {
      ASSERT_EQ(out.dest[line], ref_out.dest[line])
          << set->name << " m=" << m << " dest[" << line << "]";
      ASSERT_EQ(out.outputs[line].address, ref_out.outputs[line].address)
          << set->name << " m=" << m << " address at line " << line;
      ASSERT_EQ(out.outputs[line].payload, ref_out.outputs[line].payload)
          << set->name << " m=" << m << " payload at line " << line;
    }
    if (with_trace) {
      ASSERT_EQ(trace.column_controls, ref_trace.column_controls)
          << set->name << " m=" << m << ": ControlTrace diverged";
    }
  }
}

TEST(Kernels, FullRoutesMatchScalarExhaustivelyForSmallM) {
  for (unsigned m = 1; m <= 3; ++m) {
    Permutation pi = identity_perm(std::size_t{1} << m);
    do {
      expect_route_equivalence(m, pi, nullptr, /*with_trace=*/false);
    } while (pi.next_lexicographic());
  }
}

TEST(Kernels, FullRoutesMatchScalarRandomizedUpToM12) {
  Rng rng(0xC0DE05);
  for (const unsigned m : {4U, 5U, 6U, 7U, 8U, 10U, 12U}) {
    const int reps = m <= 8 ? 4 : 2;
    for (int r = 0; r < reps; ++r) {
      expect_route_equivalence(m, random_perm(std::size_t{1} << m, rng), nullptr,
                               /*with_trace=*/r == 0);
    }
  }
}

TEST(Kernels, RouteWordsPayloadsSurviveEveryTier) {
  // The wide datapath never moves payloads through the network — it carries
  // input-index slices and re-attaches payloads at delivery.  Arbitrary
  // 64-bit payloads must come through bit-identically anyway.
  Rng rng(0xC0DE06);
  const unsigned m = 7;
  const std::size_t n = std::size_t{1} << m;
  const Permutation pi = random_perm(n, rng);
  std::vector<Word> words(n);
  for (std::size_t j = 0; j < n; ++j) {
    words[j] = Word{static_cast<std::uint32_t>(pi(j)), rng()};
  }
  const CompiledBnb ref_plan(m, &kernels::scalar_kernels());
  RouteScratch ref_scratch;
  const auto ref_out = ref_plan.route_words(words, ref_scratch);
  for (const KernelSet* set : kernels::supported_kernel_sets()) {
    const CompiledBnb plan(m, set);
    RouteScratch scratch;
    const auto out = plan.route_words(words, scratch);
    for (std::size_t line = 0; line < n; ++line) {
      ASSERT_EQ(out.outputs[line].payload, ref_out.outputs[line].payload)
          << set->name << " line " << line;
      ASSERT_EQ(out.dest[line], ref_out.dest[line]) << set->name;
    }
  }
}

TEST(Kernels, FaultOverlaysAndTraceMatchScalarForEverySingleFault) {
  // Every single hardware fault of the m=4 network, compiled to an engine
  // overlay and routed with trace capture on every tier: stuck controls,
  // stuck flags, link flips, and dead crosspoints all steer the wide
  // datapath exactly as they steer the per-line engine.
  Rng rng(0xC0DE07);
  const unsigned m = 4;
  const Permutation pi = random_perm(std::size_t{1} << m, rng);
  for (const FaultSpec& spec : FaultModel::all_single_faults(m)) {
    FaultModel model(m);
    model.add(spec);
    const EngineFaults overlay = compile_engine_faults(model);
    expect_route_equivalence(m, pi, &overlay, /*with_trace=*/true);
  }
}

TEST(Kernels, MultiFaultCampaignMatchesScalarAtMediumSize) {
  Rng rng(0xC0DE08);
  const unsigned m = 6;
  FaultModel model(m);
  for (const FaultSpec& spec : FaultModel::random_campaign(m, 12, rng)) {
    model.add(spec);
  }
  const EngineFaults overlay = compile_engine_faults(model);
  for (int r = 0; r < 3; ++r) {
    expect_route_equivalence(m, random_perm(std::size_t{1} << m, rng), &overlay,
                             /*with_trace=*/true);
  }
}

TEST(Kernels, BatchResultsMatchAcrossTiers) {
  Rng rng(0xC0DE09);
  const unsigned m = 6;
  std::vector<Permutation> perms;
  for (int i = 0; i < 12; ++i) perms.push_back(random_perm(std::size_t{1} << m, rng));
  const CompiledBnb ref_plan(m, &kernels::scalar_kernels());
  const BatchResult ref = ref_plan.route_batch(perms, 2);
  for (const KernelSet* set : kernels::supported_kernel_sets()) {
    const CompiledBnb plan(m, set);
    const BatchResult got = plan.route_batch(perms, 3);
    EXPECT_EQ(got.dest, ref.dest) << set->name;
    EXPECT_EQ(got.all_self_routed, ref.all_self_routed) << set->name;
  }
}

}  // namespace

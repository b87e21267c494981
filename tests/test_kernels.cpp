// Kernel-equivalence suite: every kernel tier this build can run on this
// host must be BIT-IDENTICAL to the scalar reference — on the column
// arbiter against the packed level-stack tree (a test-local oracle, every
// splitter size p <= m <= 14), on column_controls' fault overlays, on the
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

#include <algorithm>
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

// ---- test-local reference: the packed level-stack arbiter ---------------
//
// The engine's arbiter before it ran in the line domain: compress each
// column's lines to the even/odd switch inputs, build the tree's up levels
// by halving pair-XOR compresses, expand the down flags level by level, and
// take control t = e[t] ^ (u & d) at the leaf.  Per-bit loops — the oracle
// is slow and obviously right.

namespace ref {

using Words = std::vector<std::uint64_t>;

bool bit(const Words& w, std::size_t i) { return ((w[i >> 6] >> (i & 63)) & 1U) != 0; }
void set_bit(Words& w, std::size_t i, bool v) {
  if (v) w[i >> 6] |= std::uint64_t{1} << (i & 63);
}

/// out[j] = in[2j + odd] for j < nbits/2.
Words compress(const Words& in, std::size_t nbits, unsigned odd) {
  Words out(bitpack::words_for(nbits / 2), 0);
  for (std::size_t j = 0; j < nbits / 2; ++j) set_bit(out, j, bit(in, 2 * j + odd));
  return out;
}

/// out[j] = in[2j] ^ in[2j+1]: one up level.
Words pair_xor_compress(const Words& in, std::size_t nbits) {
  Words out(bitpack::words_for(nbits / 2), 0);
  for (std::size_t j = 0; j < nbits / 2; ++j) {
    set_bit(out, j, bit(in, 2 * j) != bit(in, 2 * j + 1));
  }
  return out;
}

/// Output group g (2 * chunk bits) = a's chunk g, then b's chunk g; chunk
/// 1 is the plain interleave of one down level.
Words chunk_concat(const Words& a, const Words& b, std::size_t nbits_each,
                   std::size_t chunk) {
  Words out(bitpack::words_for(2 * nbits_each), 0);
  for (std::size_t j = 0; j < nbits_each; ++j) {
    const std::size_t g = j / chunk;
    const std::size_t r = j % chunk;
    set_bit(out, 2 * chunk * g + r, bit(a, j));
    set_bit(out, 2 * chunk * g + chunk + r, bit(b, j));
  }
  return out;
}

/// The packed controls of a column of sp(p) splitters over `n` lines.
Words level_stack_controls(const Words& x, std::size_t n, unsigned p) {
  const std::size_t pairs = n / 2;
  const Words e = compress(x, n, 0);
  if (p == 1) return e;  // sp(1): no arbiter, the upper input decides
  const Words o = compress(x, n, 1);
  std::vector<Words> up(p), down(p);
  std::vector<std::size_t> size(p);
  size[p - 1] = pairs;
  up[p - 1] = Words(e.size());
  for (std::size_t w = 0; w < e.size(); ++w) up[p - 1][w] = e[w] ^ o[w];
  for (unsigned l = p - 1; l-- > 0;) {
    size[l] = size[l + 1] / 2;
    up[l] = pair_xor_compress(up[l + 1], size[l + 1]);
  }
  down[0] = up[0];  // each root echoes its own up signal
  for (unsigned l = 0; l + 1 < p; ++l) {
    Words a(up[l].size()), b(up[l].size());
    for (std::size_t w = 0; w < a.size(); ++w) {
      a[w] = up[l][w] & down[l][w];
      b[w] = down[l][w] | ~up[l][w];
    }
    down[l + 1] = chunk_concat(a, b, size[l], 1);
  }
  Words ctl(e.size());
  for (std::size_t w = 0; w < e.size(); ++w) {
    ctl[w] = e[w] ^ (up[p - 1][w] & down[p - 1][w]);
  }
  return ctl;
}

/// Packed controls in the line domain: control t at line bit 2t.
Words spread_controls(const Words& ctl, std::size_t nbits) {
  Words c2(bitpack::words_for(nbits), 0);
  for (std::size_t t = 0; t < nbits / 2; ++t) set_bit(c2, 2 * t, bit(ctl, t));
  return c2;
}

/// One column on one slice: compress to the switch inputs, exchange where
/// the control is set, unshuffle at chunk granularity.
Words three_pass(const Words& in, std::size_t nbits, const Words& ctl,
                 std::size_t chunk) {
  Words e = compress(in, nbits, 0);
  Words o = compress(in, nbits, 1);
  for (std::size_t w = 0; w < e.size(); ++w) {
    const std::uint64_t t = (e[w] ^ o[w]) & ctl[w];
    e[w] ^= t;
    o[w] ^= t;
  }
  return chunk_concat(e, o, nbits / 2, chunk);
}

}  // namespace ref

// ---- primitive equivalence --------------------------------------------

/// Line bits of an n-line column in every shape the arbiter must handle:
/// random, all zero, all one and the two alternating patterns (zero tail).
std::vector<std::vector<std::uint64_t>> arbiter_inputs(std::size_t n, Rng& rng) {
  std::vector<std::vector<std::uint64_t>> inputs;
  inputs.push_back(random_packed(n, rng));
  inputs.push_back(random_packed(n, rng));
  for (const std::uint64_t fill :
       {std::uint64_t{0}, ~std::uint64_t{0}, bitpack::kEvenBits, ~bitpack::kEvenBits}) {
    std::vector<std::uint64_t> x(bitpack::words_for(n), fill);
    if (n % 64 != 0) x.back() &= (std::uint64_t{1} << n) - 1;
    inputs.push_back(x);
  }
  return inputs;
}

TEST(Kernels, ColumnArbiterMatchesThePackedLevelStackTree) {
  Rng rng(0xC0DE0A);
  constexpr std::uint64_t kGuard = 0x3C3C3C3CFEEDFACEULL;
  constexpr std::size_t kGuardWords = 5;
  for (unsigned m = 1; m <= 14; ++m) {
    const std::size_t n = std::size_t{1} << m;
    const std::size_t words = bitpack::words_for(n);
    const std::size_t ctl_words = bitpack::words_for(n / 2);
    const std::size_t work_words = kernels::arbiter_work_words(n);
    for (const auto& x : arbiter_inputs(n, rng)) {
      for (unsigned p = 1; p <= m; ++p) {
        const auto want = ref::level_stack_controls(x, n, p);
        const auto want_c2 = ref::spread_controls(want, n);
        for (const KernelSet* set : kernels::supported_kernel_sets()) {
          std::vector<std::uint64_t> c2(words + kGuardWords, kGuard);
          std::vector<std::uint64_t> ctl(ctl_words + kGuardWords, kGuard);
          std::vector<std::uint64_t> work(work_words + kGuardWords, kGuard);
          set->column_arbiter(x.data(), n, p, c2.data(), ctl.data(), work.data());
          ASSERT_TRUE(std::equal(want.begin(), want.end(), ctl.begin()))
              << set->name << " packed controls m=" << m << " p=" << p;
          ASSERT_TRUE(std::equal(want_c2.begin(), want_c2.end(), c2.begin()))
              << set->name << " line-domain controls m=" << m << " p=" << p;
          for (const auto* buf : {&c2, &ctl, &work}) {
            ASSERT_TRUE(std::all_of(buf->end() - kGuardWords, buf->end(),
                                    [](std::uint64_t w) { return w == kGuard; }))
                << set->name << " column_arbiter wrote past a buffer, m=" << m
                << " p=" << p;
          }
        }
      }
    }
  }
}

TEST(Kernels, ColumnControlsKeepTheFaultOverlaySemantics) {
  // column_controls under every overlay class, alone and together, on
  // every column of every tier: the packed controls, the advanced bits and
  // the returned line-domain controls must be exactly what the level-stack
  // arbiter plus the packed overlays give (flip the incoming bits, then
  // stuck flags — control = e ^ v —, then stuck controls, and advance the
  // bits under the patched controls).
  Rng rng(0xC0DE0B);
  for (const unsigned m : {1U, 2U, 3U, 5U, 6U, 7U, 8U, 10U}) {
    const std::size_t n = std::size_t{1} << m;
    const std::size_t words = bitpack::words_for(n);
    for (const KernelSet* set : kernels::supported_kernel_sets()) {
      const CompiledBnb plan(m, set);
      const std::size_t cw = plan.control_words();
      for (std::size_t c = 0; c < plan.columns().size(); ++c) {
        const CompiledBnb::Column& col = plan.columns()[c];
        for (unsigned overlay = 0; overlay < 5; ++overlay) {
          ColumnFaultMasks masks;
          const bool flip = overlay == 1 || overlay == 4;
          const bool flag = (overlay == 2 || overlay == 4) && col.p >= 2;
          const bool stuck = overlay == 3 || overlay == 4;
          if (flip) masks.bit_flip = random_packed(n, rng);
          if (flag) {
            masks.flag_mask = random_packed(n / 2, rng);
            masks.flag_val = random_packed(n / 2, rng);
          }
          if (stuck) {
            masks.ctl_and = random_packed(n / 2, rng);
            masks.ctl_or = random_packed(n / 2, rng);
            for (std::size_t w = 0; w < cw; ++w) masks.ctl_or[w] &= ~masks.ctl_and[w];
          }
          const auto x = random_packed(n, rng);

          auto flipped = x;
          if (flip) {
            for (std::size_t w = 0; w < words; ++w) flipped[w] ^= masks.bit_flip[w];
          }
          auto want = ref::level_stack_controls(flipped, n, col.p);
          if (flag) {
            const auto e = ref::compress(flipped, n, 0);
            for (std::size_t w = 0; w < cw; ++w) {
              want[w] = (want[w] & ~masks.flag_mask[w]) |
                        ((e[w] ^ masks.flag_val[w]) & masks.flag_mask[w]);
            }
          }
          if (stuck) {
            for (std::size_t w = 0; w < cw; ++w) {
              want[w] = (want[w] & masks.ctl_and[w]) | masks.ctl_or[w];
            }
          }
          const auto want_bits = col.update_bits
                                     ? ref::three_pass(flipped, n, want, col.group / 2)
                                     : flipped;

          auto bits = x;
          std::vector<std::uint64_t> ctl(cw);
          std::vector<std::uint64_t> work(plan.work_words());
          const std::uint64_t* c2 = plan.column_controls(
              c, bits.data(), ctl.data(), work.data(), overlay == 0 ? nullptr : &masks);
          const std::string label = std::string(set->name) + " m=" + std::to_string(m) +
                                    " column " + std::to_string(c) + " overlay " +
                                    std::to_string(overlay);
          ASSERT_EQ(ctl, want) << label;
          ASSERT_EQ(bits, want_bits) << label;
          const auto want_c2 = ref::spread_controls(want, n);
          ASSERT_TRUE(std::equal(want_c2.begin(), want_c2.end(), c2)) << label;
        }
      }
    }
  }
}

TEST(Kernels, XorWordsMatchesScalarOnRandomizedArrays) {
  Rng rng(0xC0DE02);
  const auto& ref = kernels::scalar_kernels();
  for (const std::size_t nbits : size_sweep()) {
    const auto a = random_packed(nbits, rng);
    const auto b = random_packed(nbits, rng);
    const std::size_t words = bitpack::words_for(nbits);
    std::vector<std::uint64_t> expect_x(a);
    ref.xor_words(expect_x.data(), b.data(), words);
    for (const KernelSet* set : kernels::supported_kernel_sets()) {
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
  constexpr std::uint64_t kGuard = 0xA5A5A5A5DEADBEEFULL;
  constexpr std::size_t kGuardWords = 17;
  for (const std::size_t nbits : column_sizes()) {
    const std::size_t words = bitpack::words_for(nbits);
    unsigned m = 0;
    while ((std::size_t{1} << m) < nbits) ++m;
    const auto ctl = random_packed(nbits / 2, rng);
    const auto c2 = ref::spread_controls(ctl, nbits);
    for (const std::size_t slices : {0UL, 1UL, 3UL, 2UL * m}) {
      std::vector<std::uint64_t> in;
      for (std::size_t s = 0; s < slices; ++s) {
        const auto slice = random_packed(nbits, rng);
        in.insert(in.end(), slice.begin(), slice.end());
      }
      for (std::size_t chunk = 1; nbits % (2 * chunk) == 0; chunk *= 2) {
        // Reference, per slice: compress -> exchange -> chunk concat.
        std::vector<std::uint64_t> expect;
        for (std::size_t s = 0; s < slices; ++s) {
          const std::vector<std::uint64_t> slice(in.begin() + s * words,
                                                 in.begin() + (s + 1) * words);
          const auto moved = ref::three_pass(slice, nbits, ctl, chunk);
          expect.insert(expect.end(), moved.begin(), moved.end());
        }
        for (const KernelSet* set : kernels::supported_kernel_sets()) {
          std::vector<std::uint64_t> got(slices * words + kGuardWords, kGuard);
          set->column_pass(in.data(), slices, nbits, c2.data(), ctl.data(), chunk,
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

/// The line bits of `pairs` switch pairs: pair t holds e[t] on line 2t and
/// o[t] on line 2t+1 (every bit of e and o, tail included, is placed).
std::vector<std::uint64_t> pair_lines(const std::vector<std::uint64_t>& e,
                                      const std::vector<std::uint64_t>& o) {
  return ref::chunk_concat(e, o, 64 * e.size(), 1);
}

TEST(Kernels, PairsSplitAcceptsBalancedPairs) {
  Rng rng(0xC0DE05);
  for (const std::size_t pairs : {1UL, 2UL, 5UL, 63UL, 64UL, 65UL, 128UL, 200UL, 4096UL}) {
    std::vector<std::uint64_t> e = random_packed(pairs, rng);
    std::vector<std::uint64_t> o = e;
    for (auto& w : o) w = ~w;
    EXPECT_TRUE(bitpack::pairs_split(pair_lines(e, o).data(), 2 * pairs))
        << "pairs=" << pairs;
  }
}

TEST(Kernels, PairsSplitRejectsASameBitPairInAnyWord) {
  // 200 pairs span seven line words: the first, middle ones, and a last
  // word holding 8 pairs.
  constexpr std::size_t kPairs = 200;
  Rng rng(0xC0DE06);
  const std::vector<std::uint64_t> e = random_packed(kPairs, rng);
  std::vector<std::uint64_t> balanced = e;
  for (auto& w : balanced) w = ~w;
  for (const std::size_t t : {std::size_t{0}, std::size_t{100}, kPairs - 1}) {
    std::vector<std::uint64_t> o = balanced;
    o[t >> 6] ^= std::uint64_t{1} << (t & 63);  // pair t now holds two equal bits
    EXPECT_FALSE(bitpack::pairs_split(pair_lines(e, o).data(), 2 * kPairs))
        << "pair " << t;
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
  EXPECT_TRUE(bitpack::pairs_split(pair_lines(e, o).data(), 2 * kPairs));
  e.back() |= tail;
  o.back() |= tail;  // ... and all ones in both
  EXPECT_TRUE(bitpack::pairs_split(pair_lines(e, o).data(), 2 * kPairs));
}

TEST(Kernels, PairsSplitSinglePair) {
  // m = 1: one switch, one pair, lines 0 and 1 only.
  const std::uint64_t garbage = ~std::uint64_t{3};  // lines 2..63 set
  const auto split = [](std::uint64_t x) { return bitpack::pairs_split(&x, 2); };
  EXPECT_TRUE(split(0b10));
  EXPECT_TRUE(split(0b01));
  EXPECT_FALSE(split(0b00));
  EXPECT_FALSE(split(0b11));
  EXPECT_TRUE(split(garbage | 0b10));
  EXPECT_FALSE(split(garbage | 0b00));
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

// Shared scalar word loops for column_arbiter, column_pass and
// pack_address_slices: the SIMD tiers reuse these for their sub-vector tails
// (and for the arbiter's small word-parity levels) so the tail arithmetic
// can never diverge from the scalar tier (tests would catch it, but sharing
// removes the possibility).  Internal to src/core/kernels/.
//
// Everything here has internal linkage, and nothing here calls a standard
// library template: each tier's translation unit is compiled with its own
// instruction-set flags, and an out-of-line copy with external linkage (a
// weak symbol in an unoptimised build) could be merged by the linker into
// the one compiled for AVX-512, which the scalar tier would then execute on
// any host.
#pragma once

#include <cstddef>
#include <cstdint>
#include <type_traits>

#if defined(__BMI2__)
#include <immintrin.h>
#endif

#include "core/bit_pack.hpp"

namespace bnb::kernels::detail {
namespace {

/// Delta-swap masks of the in-word unshuffle: step s (shift 2^s) swaps line
/// index bits s and s+1.  Steps 0..log2(chunk)-1 rotate the low
/// log2(2*chunk) index bits right by one, which is the chunk_bits unshuffle
/// of every 2*chunk-line group; all 5 steps put a word's even lines in its
/// low half and its odd lines in its high half.
inline constexpr std::uint64_t kUnshuffleMasks[5] = {
    0x2222222222222222ULL, 0x0C0C0C0C0C0C0C0CULL, 0x00F000F000F000F0ULL,
    0x0000FF000000FF00ULL, 0x00000000FFFF0000ULL};

/// Calls f(std::integral_constant<unsigned, log2(chunk_bits)>) for
/// chunk_bits in {1, 2, 4, 8, 16, 32}, so the word loops unroll their delta
/// swaps at compile time.
template <class F>
inline void with_unshuffle_swaps(std::size_t chunk_bits, F&& f) {
  switch (chunk_bits) {
    case 1: return f(std::integral_constant<unsigned, 0>{});
    case 2: return f(std::integral_constant<unsigned, 1>{});
    case 4: return f(std::integral_constant<unsigned, 2>{});
    case 8: return f(std::integral_constant<unsigned, 3>{});
    case 16: return f(std::integral_constant<unsigned, 4>{});
    default: return f(std::integral_constant<unsigned, 5>{});
  }
}

/// Compact the 32 even-position bits of `x` into the low half of the result
/// (one PEXT where the translation unit is compiled with BMI2).
[[nodiscard]] inline std::uint64_t compress_even64(std::uint64_t x) noexcept {
#if defined(__BMI2__)
  return _pext_u64(x, bitpack::kEvenBits);
#else
  x &= bitpack::kEvenBits;
  x = (x | (x >> 1)) & 0x3333333333333333ULL;
  x = (x | (x >> 2)) & 0x0F0F0F0F0F0F0F0FULL;
  x = (x | (x >> 4)) & 0x00FF00FF00FF00FFULL;
  x = (x | (x >> 8)) & 0x0000FFFF0000FFFFULL;
  x = (x | (x >> 16)) & 0x00000000FFFFFFFFULL;
  return x;
#endif
}

/// One word through the switch column (in the line domain, under the
/// line-domain controls c2) and Swaps unshuffle delta swaps.
template <unsigned Swaps>
[[nodiscard]] inline std::uint64_t exchange_unshuffle64(std::uint64_t x,
                                                        std::uint64_t c2) noexcept {
  std::uint64_t t = (x ^ (x >> 1)) & c2;
  x ^= t ^ (t << 1);
  for (unsigned s = 0; s < Swaps; ++s) {
    const unsigned d = 1U << s;
    t = (x ^ (x >> d)) & kUnshuffleMasks[s];
    x ^= t ^ (t << d);
  }
  return x;
}

/// Column pass of one slice over words [w_begin, w_end) for chunk_bits =
/// 2^Swaps <= 32: groups never straddle a word, so out[w] depends on in[w]
/// and c2[w] only.
template <unsigned Swaps>
inline void column_words_scalar(const std::uint64_t* in, const std::uint64_t* c2,
                                std::size_t w_begin, std::size_t w_end, std::uint64_t* out) {
  for (std::size_t w = w_begin; w < w_end; ++w) {
    out[w] = exchange_unshuffle64<Swaps>(in[w], c2[w]);
  }
}

/// Column pass of one slice over word pairs [i_begin, i_end) for chunk_bits
/// >= 64: pair i (words 2i, 2i+1) compresses to even run word i and odd run
/// word i, which exchange under ctl[i] and land in run r = i % run of group
/// g = i / run.  Compressing the pair takes fewer word operations than the
/// five delta swaps per word that the vector tiers use.
inline void column_runs_scalar(const std::uint64_t* in, const std::uint64_t* ctl,
                               std::size_t i_begin, std::size_t i_end, std::size_t run,
                               std::uint64_t* out) {
  for (std::size_t i = i_begin; i < i_end; ++i) {
    const std::uint64_t lo = in[2 * i];
    const std::uint64_t hi = in[2 * i + 1];
    std::uint64_t e = compress_even64(lo) | (compress_even64(hi) << 32);
    std::uint64_t o =
        compress_even64(lo >> 1) | (compress_even64(hi >> 1) << 32);
    const std::uint64_t t = (e ^ o) & ctl[i];
    e ^= t;
    o ^= t;
    const std::size_t g = i / run;
    const std::size_t r = i % run;
    out[g * 2 * run + r] = e;
    out[g * 2 * run + run + r] = o;
  }
}

// ---- column arbiter ------------------------------------------------------
//
// The arbiter trees as prefix networks on a word of positions.  Every node
// of a tree spans 2^s aligned positions, and its signals are broadcast to
// all of them.  kOddChild[s] marks the positions of the odd child of every
// node spanning 2^(s+1) positions (position bit s set).  In the LINE domain
// a position is a line, the leaves are switch pairs (s = 1) and every signal
// lives on the even lines; in a PARITY domain a position is one word of the
// level below (its up signal is that word's parity) and the leaves are the
// positions themselves (s = 0).

inline constexpr std::uint64_t kOddChild[6] = {
    0xAAAAAAAAAAAAAAAAULL, 0xCCCCCCCCCCCCCCCCULL, 0xF0F0F0F0F0F0F0F0ULL,
    0xFF00FF00FF00FF00ULL, 0xFFFF0000FFFF0000ULL, 0xFFFFFFFF00000000ULL};

/// Calls f(std::integral_constant<unsigned, top>) for top in 1..6, so the
/// word loops unroll their tree levels at compile time.
template <class F>
inline void with_arbiter_top(unsigned top, F&& f) {
  switch (top) {
    case 1: return f(std::integral_constant<unsigned, 1>{});
    case 2: return f(std::integral_constant<unsigned, 2>{});
    case 3: return f(std::integral_constant<unsigned, 3>{});
    case 4: return f(std::integral_constant<unsigned, 4>{});
    case 5: return f(std::integral_constant<unsigned, 5>{});
    default: return f(std::integral_constant<unsigned, 6>{});
  }
}

/// The tree levels of one word, up to nodes spanning 2^Top positions.  With
/// RootInWord those are the roots (flag D = U); otherwise they are the
/// word-wide nodes of a larger tree and `d_top` is their flag, broadcast.
/// Line domain: returns the line-domain controls (for Top = 1, sp(1) has no
/// arbiter and control t is the upper input x[2t]).  Parity domain: returns
/// every leaf's flag D.
template <bool Line, unsigned Top, bool RootInWord>
[[nodiscard]] inline std::uint64_t arbiter_word(std::uint64_t x,
                                                std::uint64_t d_top) noexcept {
  if constexpr (Line && Top == 1) {
    return x & bitpack::kEvenBits;
  } else {
    constexpr unsigned kLeaf = Line ? 1 : 0;
    constexpr std::uint64_t kLive = Line ? bitpack::kEvenBits : ~std::uint64_t{0};
    std::uint64_t u[Top + 1] = {};
    u[kLeaf] = Line ? (x ^ (x >> 1)) & kLive : x;
    for (unsigned s = kLeaf; s < Top; ++s) {
      const std::uint64_t a = (u[s] ^ (u[s] >> (1U << s))) & kLive & ~kOddChild[s];
      u[s + 1] = a | (a << (1U << s));
    }
    std::uint64_t d = RootInWord ? u[Top] : d_top;
    for (unsigned s = Top; s-- > kLeaf;) d = (d & u[s + 1]) | (kOddChild[s] & ~u[s + 1]);
    if constexpr (Line) {
      return (x ^ (u[kLeaf] & d)) & kLive;
    } else {
      return d;
    }
  }
}

/// Bit w of `bits`, broadcast to a whole word.
[[nodiscard]] inline std::uint64_t flag_of(const std::uint64_t* bits,
                                           std::size_t w) noexcept {
  return std::uint64_t{0} - ((bits[w >> 6] >> (w & 63)) & 1U);
}

/// The XOR of the 64 bits of `x`.  (Not std::popcount: its out-of-line
/// copy in an unoptimised build has external linkage, and the one compiled
/// with POPCNT could serve this tier.)
[[nodiscard]] inline std::uint64_t parity64(std::uint64_t x) noexcept {
  for (unsigned s = 32; s != 0; s >>= 1) x ^= x >> s;
  return x & 1U;
}

/// Bit w of `par` = parity of x[w], for w in [w_begin, w_end).  A parity
/// word starts from zero at its first bit, so callers that fill a prefix
/// themselves may start the tail on any word.
inline void pack_word_parities_scalar(const std::uint64_t* x, std::size_t w_begin,
                                      std::size_t w_end, std::uint64_t* par) {
  for (std::size_t w = w_begin; w < w_end;) {
    std::uint64_t acc = (w & 63) == 0 ? 0 : par[w >> 6];
    const std::size_t end = (w | 63) + 1 < w_end ? (w | 63) + 1 : w_end;
    for (; w < end; ++w) {
      acc |= parity64(x[w]) << (w & 63);
    }
    par[(w - 1) >> 6] = acc;
  }
}

/// The flags of every leaf of a parity domain: `u` holds `count` positions
/// (zero tail), whose trees' roots span 2^span_log2 of them.  Roots wider
/// than a word recurse on the word parities.  `work` provides
/// kernels::arbiter_work_words(64 * count) words.
inline void arbiter_parity_level(const std::uint64_t* u, std::size_t count,
                                 unsigned span_log2, std::uint64_t* d,
                                 std::uint64_t* work) {
  const std::size_t words = bitpack::words_for(count);
  if (span_log2 <= 6) {
    with_arbiter_top(span_log2, [&](auto top) {
      for (std::size_t w = 0; w < words; ++w) {
        d[w] = arbiter_word<false, top, true>(u[w], 0);
      }
    });
    return;
  }
  const std::size_t pw = bitpack::words_for(words);
  pack_word_parities_scalar(u, 0, words, work);
  arbiter_parity_level(work, words, span_log2 - 6, work + pw, work + 2 * pw);
  for (std::size_t w = 0; w < words; ++w) {
    d[w] = arbiter_word<false, 6, false>(u[w], flag_of(work + pw, w));
  }
}

/// Line-domain controls of words [w_begin, w_end): roots in the word when
/// `d_above` is null, else each word's flag is bit w of `d_above`.
template <unsigned Top>
inline void arbiter_line_words_scalar(const std::uint64_t* x,
                                      const std::uint64_t* d_above, std::size_t w_begin,
                                      std::size_t w_end, std::uint64_t* c2) {
  if (d_above == nullptr) {
    for (std::size_t w = w_begin; w < w_end; ++w) {
      c2[w] = arbiter_word<true, Top, true>(x[w], 0);
    }
  } else {
    for (std::size_t w = w_begin; w < w_end; ++w) {
      c2[w] = arbiter_word<true, Top, false>(x[w], flag_of(d_above, w));
    }
  }
}

/// Packed control words [i_begin, i_end) from the `words` line-domain words
/// of c2: word i packs the even bits of c2[2i] and c2[2i+1].
inline void compress_controls_scalar(const std::uint64_t* c2, std::size_t words,
                                     std::size_t i_begin, std::size_t i_end,
                                     std::uint64_t* ctl) {
  for (std::size_t i = i_begin; i < i_end; ++i) {
    const std::uint64_t hi = 2 * i + 1 < words ? c2[2 * i + 1] : 0;
    ctl[i] = compress_even64(c2[2 * i]) | (compress_even64(hi) << 32);
  }
}

/// The tier-independent shape of column_arbiter.  Splitters of up to 64
/// lines keep their whole tree in a word: line_words(top, nullptr) with top
/// = p.  Wider ones fold every word to its parity (parities(x, words, par)),
/// solve the levels above a word on that vector, and hand each word its
/// flag: line_words(6, flags).  line_words writes c2 and ctl.
template <class Parities, class LineWords>
inline void column_arbiter_levels(const std::uint64_t* x, std::size_t nbits, unsigned p,
                                  std::uint64_t* work, Parities&& parities,
                                  LineWords&& line_words) {
  if (p <= 6) {
    with_arbiter_top(p, [&](auto top) { line_words(top, nullptr); });
    return;
  }
  const std::size_t words = bitpack::words_for(nbits);
  const std::size_t pw = bitpack::words_for(words);
  parities(x, words, work);
  arbiter_parity_level(work, words, p - 6, work + pw, work + 2 * pw);
  line_words(std::integral_constant<unsigned, 6>{}, work + pw);
}

/// Pack address bits 0..m-1 of the 64-line blocks [b_begin, b_end) of
/// `image` into `slices` (slice a at a * words_for(n)): one 64x64 transpose
/// per block, lines past n packed as zero.
inline void pack_address_blocks_scalar(const std::uint32_t* image, std::size_t n,
                                       unsigned m, std::size_t b_begin, std::size_t b_end,
                                       std::uint64_t* slices) {
  const std::size_t words = bitpack::words_for(n);
  std::uint64_t blk[64];
  for (std::size_t b = b_begin; b < b_end; ++b) {
    const std::size_t lines = n - 64 * b < 64 ? n - 64 * b : 64;
    for (std::size_t j = 0; j < lines; ++j) blk[j] = image[64 * b + j];
    for (std::size_t j = lines; j < 64; ++j) blk[j] = 0;
    bitpack::transpose_64x64(blk);
    for (unsigned a = 0; a < m; ++a) slices[a * words + b] = blk[a];
  }
}

}  // namespace
}  // namespace bnb::kernels::detail

// Shared scalar word loops for column_pass and pack_address_slices: the SIMD
// tiers reuse these for their sub-vector tails so the tail arithmetic can
// never diverge from the scalar tier (tests would catch it, but sharing
// removes the possibility).  Internal to src/core/kernels/.
//
// Everything here has internal linkage: each tier's translation unit is
// compiled with its own instruction-set flags, and an out-of-line copy with
// external linkage could be merged by the linker into the one compiled for
// AVX-512, which the scalar tier would then execute on any host.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <type_traits>

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

/// c2[w] for w in [w_begin, w_end): control bit t of the column moved to
/// line bit 2t (the even line of pair t).
inline void spread_controls_scalar(const std::uint64_t* ctl, std::size_t w_begin,
                                   std::size_t w_end, std::uint64_t* c2) {
  for (std::size_t w = w_begin; w < w_end; ++w) {
    c2[w] = bitpack::spread_chunks(ctl[w >> 1] >> ((w & 1U) * 32), 1);
  }
}

/// One word through the switch column (in the line domain, under the spread
/// controls c2) and Swaps unshuffle delta swaps.
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
    std::uint64_t e = bitpack::compress_even64(lo) | (bitpack::compress_even64(hi) << 32);
    std::uint64_t o =
        bitpack::compress_even64(lo >> 1) | (bitpack::compress_even64(hi >> 1) << 32);
    const std::uint64_t t = (e ^ o) & ctl[i];
    e ^= t;
    o ^= t;
    const std::size_t g = i / run;
    const std::size_t r = i % run;
    out[g * 2 * run + r] = e;
    out[g * 2 * run + run + r] = o;
  }
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
    const std::size_t lines = std::min<std::size_t>(64, n - 64 * b);
    for (std::size_t j = 0; j < lines; ++j) blk[j] = image[64 * b + j];
    for (std::size_t j = lines; j < 64; ++j) blk[j] = 0;
    bitpack::transpose_64x64(blk);
    for (unsigned a = 0; a < m; ++a) slices[a * words + b] = blk[a];
  }
}

}  // namespace
}  // namespace bnb::kernels::detail

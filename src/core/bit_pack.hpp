// Word-parallel bit-slice primitives for the flat routing engine.
//
// The compiled BNB engine (core/compiled_bnb.hpp) keeps one address bit per
// line, packed 64 lines per uint64_t (bit t of word w is line 64*w + t), and
// runs every splitter column as a handful of word operations in that line
// domain: switch t's inputs are lines 2t and 2t+1, so a column's arbiter
// trees, its exchange and its unshuffle are all shifts and masks of the
// packed words (core/kernels/kernel_set.hpp).  Bits past the logical size
// of an array are zero, so no trailing-bit masking is needed between steps.
//
// Everything here has internal linkage: the kernel tiers include this header
// from translation units compiled with different instruction-set flags, and
// an out-of-line copy with external linkage could be merged by the linker
// into the one compiled for AVX-512, which the scalar tier would then
// execute on any host.
#pragma once

#include <cstddef>
#include <cstdint>

namespace bnb::bitpack {
namespace {

/// The even lines of a word: the upper input of every switch.
inline constexpr std::uint64_t kEvenBits = 0x5555555555555555ULL;

/// Number of 64-bit words needed for `nbits` packed bits.
[[nodiscard]] inline constexpr std::size_t words_for(std::size_t nbits) noexcept {
  return (nbits + 63) / 64;
}

/// True when every switch pair (lines 2t, 2t+1) of the first `lines` lines
/// holds one 0 and one 1.  Word-parallel with no early exit; bits at
/// positions >= lines are ignored.
[[nodiscard]] inline bool pairs_split(const std::uint64_t* x,
                                      std::size_t lines) noexcept {
  std::uint64_t same = 0;  // even bit 2t set: pair t holds two equal bits
  const std::size_t full = lines / 64;
  for (std::size_t w = 0; w < full; ++w) same |= ~(x[w] ^ (x[w] >> 1));
  if (const std::size_t rest = lines % 64; rest != 0) {
    same |= ~(x[full] ^ (x[full] >> 1)) & ((std::uint64_t{1} << rest) - 1);
  }
  return (same & kEvenBits) == 0;
}

/// Read packed bit `idx`.
[[nodiscard]] inline unsigned get_bit(const std::uint64_t* words, std::size_t idx) noexcept {
  return static_cast<unsigned>((words[idx >> 6] >> (idx & 63)) & 1U);
}

/// In-place 64x64 bit-matrix transpose: afterwards bit i of x[j] equals bit
/// j of the original x[i].  The wide datapath uses this to convert between
/// line-major values (x[line] = value) and bit-sliced form (x[slice] = one
/// packed bit of 64 lines) in O(64 log 64) word operations per block.
inline void transpose_64x64(std::uint64_t x[64]) noexcept {
  unsigned j = 32;
  std::uint64_t m = 0x00000000FFFFFFFFULL;
  for (; j != 0; j >>= 1, m ^= m << j) {
    for (unsigned k = 0; k < 64; k = (k + j + 1) & ~j) {
      const std::uint64_t t = ((x[k] >> j) ^ x[k + j]) & m;
      x[k] ^= t << j;
      x[k + j] ^= t;
    }
  }
}

}  // namespace
}  // namespace bnb::bitpack

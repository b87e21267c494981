// AVX2 kernel tier: 4 packed words per step for the column arbiter's tree
// levels and the wide-datapath column pass, a sign-bit MOVMSKPS address
// pack, and scalar PEXT (one BMI2 instruction per word) to pack the
// arbiter's controls.  Compiled with -mavx2 -mbmi2 only for this
// translation unit; kernel_set.cpp gates execution behind a runtime
// CPUID/XGETBV check, so linking this TU into a portable binary is safe.
//
// Bit arithmetic mirrors scalar_core.hpp lane-for-lane, and tails that do
// not fill a vector fall back to the shared scalar loops there.
#if defined(__AVX2__)

#include <immintrin.h>

#include <utility>

#include "core/bit_pack.hpp"
#include "core/kernels/kernel_impl.hpp"
#include "core/kernels/scalar_core.hpp"

namespace bnb::kernels {
namespace {

inline __m256i bcast(std::uint64_t v) {
  return _mm256_set1_epi64x(static_cast<long long>(v));
}

void xor_words_k(std::uint64_t* dst, const std::uint64_t* src, std::size_t words) {
  std::size_t w = 0;
  for (; w + 4 <= words; w += 4) {
    const __m256i d = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst + w));
    const __m256i s = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + w));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + w), _mm256_xor_si256(d, s));
  }
  for (; w < words; ++w) dst[w] ^= src[w];
}

/// x ^= swap of the bits under `mask` with the bits `D` above them.
template <int D>
inline __m256i delta_swap(__m256i x, std::uint64_t mask) {
  const __m256i t =
      _mm256_and_si256(_mm256_xor_si256(x, _mm256_srli_epi64(x, D)), bcast(mask));
  return _mm256_xor_si256(x, _mm256_xor_si256(t, _mm256_slli_epi64(t, D)));
}

/// Swaps unshuffle delta swaps per lane (scalar_core.hpp's masks).  Swaps
/// 3 and 4 move whole bytes, so they run as one VPSHUFB: swap 3 trades
/// bytes 1 and 2 of every dword, swaps 3 and 4 together put a word's even
/// bytes in its low half and its odd bytes in its high half.
template <unsigned Swaps>
inline __m256i unshuffle_lanes(__m256i x) {
  if constexpr (Swaps > 0) x = delta_swap<1>(x, detail::kUnshuffleMasks[0]);
  if constexpr (Swaps > 1) x = delta_swap<2>(x, detail::kUnshuffleMasks[1]);
  if constexpr (Swaps > 2) x = delta_swap<4>(x, detail::kUnshuffleMasks[2]);
  if constexpr (Swaps == 4) {
    x = _mm256_shuffle_epi8(
        x, _mm256_setr_epi8(0, 2, 1, 3, 4, 6, 5, 7, 8, 10, 9, 11, 12, 14, 13, 15,
                            0, 2, 1, 3, 4, 6, 5, 7, 8, 10, 9, 11, 12, 14, 13, 15));
  } else if constexpr (Swaps == 5) {
    x = _mm256_shuffle_epi8(
        x, _mm256_setr_epi8(0, 2, 4, 6, 1, 3, 5, 7, 8, 10, 12, 14, 9, 11, 13, 15,
                            0, 2, 4, 6, 1, 3, 5, 7, 8, 10, 12, 14, 9, 11, 13, 15));
  }
  return x;
}

/// chunk_bits = 2^Swaps <= 32: every output word is its input word,
/// exchanged under the line-domain controls c2 and unshuffled in its register
/// (4 lanes of scalar_core.hpp's exchange_unshuffle64).
template <unsigned Swaps>
void column_words(const std::uint64_t* in, std::size_t slices, std::size_t words,
                  const std::uint64_t* c2, std::uint64_t* out) {
  for (std::size_t s = 0; s < slices; ++s) {
    const std::uint64_t* src = in + s * words;
    std::uint64_t* dst = out + s * words;
    std::size_t w = 0;
    for (; w + 4 <= words; w += 4) {
      __m256i x = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + w));
      const __m256i c = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(c2 + w));
      const __m256i t = _mm256_and_si256(_mm256_xor_si256(x, _mm256_srli_epi64(x, 1)), c);
      x = _mm256_xor_si256(x, _mm256_xor_si256(t, _mm256_slli_epi64(t, 1)));
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + w), unshuffle_lanes<Swaps>(x));
    }
    detail::column_words_scalar<Swaps>(src, c2, w, words, dst);
  }
}

/// chunk_bits >= 64: 8 words fully unshuffled in-word (even lines low, odd
/// lines high); a dword permute turns each 4-word vector into [even run
/// words, odd run words] of its two word pairs, a 128-bit lane permute
/// gathers 4 of each, and those exchange under 4 packed control words.
/// Runs of 4+ words take them as whole vectors; runs of 1 or 2 words
/// interleave them into 8 consecutive output words.
void column_runs(const std::uint64_t* in, std::size_t slices, std::size_t nbits,
                 const std::uint64_t* ctl, std::size_t run, std::uint64_t* out) {
  const std::size_t words = bitpack::words_for(nbits);
  const std::size_t pairs = nbits / 128;
  const __m256i split = _mm256_setr_epi32(0, 2, 4, 6, 1, 3, 5, 7);
  for (std::size_t s = 0; s < slices; ++s) {
    const std::uint64_t* src = in + s * words;
    std::uint64_t* dst = out + s * words;
    std::size_t i = 0;
    for (; i + 4 <= pairs; i += 4) {
      const auto* p = reinterpret_cast<const __m256i*>(src + 2 * i);
      // a = [e_i, e_i+1, o_i, o_i+1], b = the same for pairs i+2, i+3.
      const __m256i a =
          _mm256_permutevar8x32_epi32(unshuffle_lanes<5>(_mm256_loadu_si256(p)), split);
      const __m256i b =
          _mm256_permutevar8x32_epi32(unshuffle_lanes<5>(_mm256_loadu_si256(p + 1)), split);
      __m256i e = _mm256_permute2x128_si256(a, b, 0x20);
      __m256i o = _mm256_permute2x128_si256(a, b, 0x31);
      const __m256i t = _mm256_and_si256(
          _mm256_xor_si256(e, o),
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(ctl + i)));
      e = _mm256_xor_si256(e, t);
      o = _mm256_xor_si256(o, t);
      auto* d = reinterpret_cast<__m256i*>(dst + 2 * i);
      if (run >= 4) {
        const std::size_t base = (i / run) * 2 * run + i % run;
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + base), e);
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + base + run), o);
      } else if (run == 2) {
        _mm256_storeu_si256(d, _mm256_permute2x128_si256(e, o, 0x20));
        _mm256_storeu_si256(d + 1, _mm256_permute2x128_si256(e, o, 0x31));
      } else {
        const __m256i lo = _mm256_unpacklo_epi64(e, o);  // [e_i, o_i, e_i+2, o_i+2]
        const __m256i hi = _mm256_unpackhi_epi64(e, o);  // [e_i+1, o_i+1, e_i+3, o_i+3]
        _mm256_storeu_si256(d, _mm256_permute2x128_si256(lo, hi, 0x20));
        _mm256_storeu_si256(d + 1, _mm256_permute2x128_si256(lo, hi, 0x31));
      }
    }
    detail::column_runs_scalar(src, ctl, i, pairs, run, dst);
  }
}

void column_pass_k(const std::uint64_t* in, std::size_t slices, std::size_t nbits,
                   const std::uint64_t* c2, const std::uint64_t* ctl,
                   std::size_t chunk_bits, std::uint64_t* out) {
  if (chunk_bits >= 64) return column_runs(in, slices, nbits, ctl, chunk_bits / 64, out);
  detail::with_unshuffle_swaps(chunk_bits, [&](auto swaps) {
    column_words<swaps>(in, slices, bitpack::words_for(nbits), c2, out);
  });
}

/// One up level: every node spanning 2^(S+1) lines gets the XOR of its
/// two children's up signals, broadcast over both halves.  The halves of
/// 16-, 32- and 64-line nodes swap in one dword or byte shuffle, so those
/// levels are u ^ swap(u); narrower ones fold the upper half down under a
/// mask and copy the result back up.
template <unsigned S>
inline __m256i up_level(__m256i u) {
  constexpr unsigned kDelta = 1U << S;
  if constexpr (kDelta == 32) {
    return _mm256_xor_si256(u, _mm256_shuffle_epi32(u, 0xB1));
  } else if constexpr (kDelta >= 8) {
    const __m256i swap =
        kDelta == 16
            ? _mm256_setr_epi8(2, 3, 0, 1, 6, 7, 4, 5, 10, 11, 8, 9, 14, 15, 12, 13,
                               2, 3, 0, 1, 6, 7, 4, 5, 10, 11, 8, 9, 14, 15, 12, 13)
            : _mm256_setr_epi8(1, 0, 3, 2, 5, 4, 7, 6, 9, 8, 11, 10, 13, 12, 15, 14,
                               1, 0, 3, 2, 5, 4, 7, 6, 9, 8, 11, 10, 13, 12, 15, 14);
    return _mm256_xor_si256(u, _mm256_shuffle_epi8(u, swap));
  } else {
    const __m256i a =
        _mm256_and_si256(_mm256_xor_si256(u, _mm256_srli_epi64(u, kDelta)),
                         bcast(bitpack::kEvenBits & ~detail::kOddChild[S]));
    return _mm256_or_si256(a, _mm256_slli_epi64(a, kDelta));
  }
}

/// The tree levels of 4 line words (scalar_core.hpp's arbiter_word, per
/// lane): up levels to the nodes spanning 2^Top lines, their flag (the
/// root's own up signal, or `d_top` from the levels above a word), the down
/// levels as D' = (D & U) | (odd child & ~U), and the leaf's control.
template <unsigned Top, bool RootInWord>
inline __m256i arbiter_lanes(__m256i x, __m256i d_top) {
  const __m256i even = bcast(bitpack::kEvenBits);
  if constexpr (Top == 1) {
    return _mm256_and_si256(x, even);  // sp(1): the upper input is the control
  } else {
    __m256i u[Top + 1];
    u[1] = _mm256_and_si256(_mm256_xor_si256(x, _mm256_srli_epi64(x, 1)), even);
    [&]<unsigned... S>(std::integer_sequence<unsigned, S...>) {
      ((u[S + 2] = up_level<S + 1>(u[S + 1])), ...);
    }(std::make_integer_sequence<unsigned, Top - 1>{});
    __m256i d = RootInWord ? u[Top] : d_top;
    for (unsigned s = Top; s-- > 1;) {
      d = _mm256_or_si256(_mm256_and_si256(d, u[s + 1]),
                          _mm256_andnot_si256(u[s + 1], bcast(detail::kOddChild[s])));
    }
    return _mm256_and_si256(_mm256_xor_si256(x, _mm256_and_si256(u[1], d)), even);
  }
}

/// Line-domain controls of every word, 4 per step, then PEXT packs them.
/// Without RootInWord each word's flag is bit w of `d_above`, expanded to
/// its lane by a compare against the lane's bit.
template <unsigned Top, bool RootInWord>
void arbiter_line_words(const std::uint64_t* x, std::size_t words,
                        const std::uint64_t* d_above, std::uint64_t* c2,
                        std::uint64_t* ctl) {
  const __m256i lane_bit = _mm256_setr_epi64x(1, 2, 4, 8);
  std::size_t w = 0;
  for (; w + 4 <= words; w += 4) {
    __m256i d_top = _mm256_setzero_si256();
    if constexpr (!RootInWord) {
      const __m256i bits = bcast(d_above[w >> 6] >> (w & 63));
      d_top = _mm256_cmpeq_epi64(_mm256_and_si256(bits, lane_bit), lane_bit);
    }
    const __m256i c = arbiter_lanes<Top, RootInWord>(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(x + w)), d_top);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(c2 + w), c);
  }
  detail::arbiter_line_words_scalar<Top>(x, RootInWord ? nullptr : d_above, w, words, c2);
  detail::compress_controls_scalar(c2, words, 0, (words + 1) / 2, ctl);
}

/// Bit w of `par` = parity of x[w]: each byte's two nibbles fold into one,
/// a VPSHUFB table gives the byte's parity, VPSADBW sums the 8 byte
/// parities of a word, and VMOVMSKPD reads 4 word parities off bit 0.
void pack_word_parities(const std::uint64_t* x, std::size_t words, std::uint64_t* par) {
  const __m256i nibble_parity =
      _mm256_setr_epi8(0, 1, 1, 0, 1, 0, 0, 1, 1, 0, 0, 1, 0, 1, 1, 0,
                       0, 1, 1, 0, 1, 0, 0, 1, 1, 0, 0, 1, 0, 1, 1, 0);
  std::size_t w = 0;
  std::uint64_t acc = 0;
  for (; w + 4 <= words; w += 4) {
    const __m256i v = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(x + w));
    const __m256i nib = _mm256_and_si256(_mm256_xor_si256(v, _mm256_srli_epi64(v, 4)),
                                         bcast(0x0F0F0F0F0F0F0F0FULL));
    const __m256i sum = _mm256_sad_epu8(_mm256_shuffle_epi8(nibble_parity, nib),
                                        _mm256_setzero_si256());
    const auto k = static_cast<std::uint64_t>(static_cast<unsigned>(
        _mm256_movemask_pd(_mm256_castsi256_pd(_mm256_slli_epi64(sum, 63)))));
    acc |= k << (w & 63);
    if ((w & 63) == 60) {
      par[w >> 6] = acc;
      acc = 0;
    }
  }
  if ((w & 63) != 0) par[w >> 6] = acc;
  detail::pack_word_parities_scalar(x, w, words, par);
}

void column_arbiter_k(const std::uint64_t* x, std::size_t nbits, unsigned p,
                      std::uint64_t* c2, std::uint64_t* ctl, std::uint64_t* work) {
  const std::size_t words = bitpack::words_for(nbits);
  const auto line_words = [&](auto top, const std::uint64_t* d_above) {
    if (d_above == nullptr) {
      arbiter_line_words<top, true>(x, words, d_above, c2, ctl);
    } else {
      arbiter_line_words<top, false>(x, words, d_above, c2, ctl);
    }
  };
  detail::column_arbiter_levels(x, nbits, p, work, &pack_word_parities, line_words);
}

// Address-slice pack: 8 lines per YMM; shifting address bit a to each
// lane's sign bit lets one VMOVMSKPS read 8 bits of its slice word, 8 of
// them fill the word of a 64-line block.  A partial last block takes the
// scalar transpose.
void pack_address_slices_k(const std::uint32_t* image, std::size_t n, unsigned m,
                           std::uint64_t* slices) {
  const std::size_t words = bitpack::words_for(n);
  const std::size_t full = n / 64;
  for (std::size_t b = 0; b < full; ++b) {
    const auto* lines = reinterpret_cast<const __m256i*>(image + 64 * b);
    __m256i v[8];
    for (unsigned k = 0; k < 8; ++k) v[k] = _mm256_loadu_si256(lines + k);
    for (unsigned a = 0; a < m; ++a) {
      const __m128i to_sign = _mm_cvtsi32_si128(static_cast<int>(31 - a));
      std::uint64_t word = 0;
      for (unsigned k = 0; k < 8; ++k) {
        const auto bits = static_cast<std::uint64_t>(static_cast<unsigned>(
            _mm256_movemask_ps(_mm256_castsi256_ps(_mm256_sll_epi32(v[k], to_sign)))));
        word |= bits << (8 * k);
      }
      slices[a * words + b] = word;
    }
  }
  detail::pack_address_blocks_scalar(image, n, m, full, words, slices);
}

// Small-schedule replay: the 8 independent 64-line states split across two
// YMM registers; each (mask, delta) butterfly step runs both halves before
// the next mask load.  Deltas vary per step, so the shifts take their count
// from an XMM register rather than an immediate.
void small_apply8_k(const std::uint64_t* masks, const std::uint8_t* deltas,
                    std::size_t depth, std::uint64_t* lanes) {
  __m256i x0 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(lanes));
  __m256i x1 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(lanes + 4));
  for (std::size_t s = 0; s < depth; ++s) {
    const __m128i d = _mm_cvtsi32_si128(deltas[s]);
    const __m256i m = bcast(masks[s]);
    const __m256i y0 = _mm256_and_si256(_mm256_xor_si256(x0, _mm256_srl_epi64(x0, d)), m);
    const __m256i y1 = _mm256_and_si256(_mm256_xor_si256(x1, _mm256_srl_epi64(x1, d)), m);
    x0 = _mm256_xor_si256(x0, _mm256_xor_si256(y0, _mm256_sll_epi64(y0, d)));
    x1 = _mm256_xor_si256(x1, _mm256_xor_si256(y1, _mm256_sll_epi64(y1, d)));
  }
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(lanes), x0);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(lanes + 4), x1);
}

}  // namespace

namespace detail {
const KernelSet kAvx2Set{"avx2",
                         Tier::kAvx2,
                         /*wide_datapath=*/true,
                         &column_arbiter_k,
                         &xor_words_k,
                         &column_pass_k,
                         &pack_address_slices_k,
                         &small_apply8_k};
}  // namespace detail

}  // namespace bnb::kernels

#endif  // __AVX2__

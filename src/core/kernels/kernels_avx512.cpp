// AVX-512 kernel tier: 8 packed words per step.  The column arbiter runs
// its wide up levels as one rotate or byte shuffle each and every down level
// and the leaf's control as one VPTERNLOGQ, packs the controls with three
// VPTERNLOGQ folds and a VPMOVWB, and folds words to their parities with a
// VPSHUFB nibble table.  The column pass runs every bit-level delta swap as
// two VPTERNLOGQ and the byte-level ones as one VPSHUFB, and the address
// pack is one VPTESTMD per address bit per 16 lines.  Compiled with AVX-512
// flags only for this TU; kernel_set.cpp gates execution behind runtime
// CPUID/XGETBV checks.
#if defined(__AVX512F__) && defined(__AVX512BW__) && defined(__AVX512DQ__) && \
    defined(__AVX512VL__)

#include <immintrin.h>

#include <utility>

#include "core/bit_pack.hpp"
#include "core/kernels/kernel_impl.hpp"
#include "core/kernels/scalar_core.hpp"

namespace bnb::kernels {
namespace {

// VPTERNLOGQ immediates: f(a,b,c) bit at position (a<<2 | b<<1 | c).
constexpr int kOrAnd = 0xA8;   // (a | b) & c
constexpr int kXorAnd = 0x28;  // (a ^ b) & c
constexpr int kXor3 = 0x96;    // a ^ b ^ c
constexpr int kDown = 0xD8;    // a ? (b | ~c) : (b & c): the arbiter's down level
constexpr int kLeaf = 0x78;    // a ^ (b & c): the switch control at the leaf

inline __m512i bcast(std::uint64_t v) {
  return _mm512_set1_epi64(static_cast<long long>(v));
}

/// One magic-network round: (x | x >> s) & m in two instructions.
inline __m512i fold_r(__m512i x, int s, std::uint64_t m) {
  return _mm512_ternarylogic_epi64(x, _mm512_srli_epi64(x, s), bcast(m), kOrAnd);
}

/// The 32 even-position bits of every 64-bit lane (odd bits zero), packed
/// into dword lane j of the result: three folds gather each 16-bit unit's
/// bits into its low byte, and VPMOVWB keeps those bytes.
inline __m256i compress_even_lanes(__m512i x) {
  x = fold_r(x, 1, 0x3333333333333333ULL);
  x = fold_r(x, 2, 0x0F0F0F0F0F0F0F0FULL);
  x = fold_r(x, 4, 0x00FF00FF00FF00FFULL);
  return _mm512_cvtepi16_epi8(x);
}

/// Dword-pack the low halves of two compressed vectors: result word j is
/// low32(c0 lane 2j, c0 lane 2j+1) for j < 4, then the same from c1.
inline __m512i pack_low_halves(__m512i c0, __m512i c1) {
  const __m512i idx = _mm512_setr_epi32(0, 2, 4, 6, 8, 10, 12, 14, 16, 18, 20, 22,
                                        24, 26, 28, 30);
  return _mm512_permutex2var_epi32(c0, idx, c1);
}

void xor_words_k(std::uint64_t* dst, const std::uint64_t* src, std::size_t words) {
  std::size_t w = 0;
  for (; w + 8 <= words; w += 8) {
    _mm512_storeu_si512(dst + w, _mm512_xor_si512(_mm512_loadu_si512(dst + w),
                                                  _mm512_loadu_si512(src + w)));
  }
  for (; w < words; ++w) dst[w] ^= src[w];
}

/// x ^= swap of the bits under `mask` with the bits `D` above them.
template <int D>
inline __m512i delta_swap(__m512i x, std::uint64_t mask) {
  const __m512i t = _mm512_ternarylogic_epi64(x, _mm512_srli_epi64(x, D), bcast(mask),
                                              kXorAnd);
  return _mm512_ternarylogic_epi64(x, t, _mm512_slli_epi64(t, D), kXor3);
}

/// Swaps unshuffle delta swaps per lane (scalar_core.hpp's masks).  Swaps
/// 3 and 4 move whole bytes, so they run as one VPSHUFB: swap 3 trades
/// bytes 1 and 2 of every dword, swaps 3 and 4 together put a word's even
/// bytes in its low half and its odd bytes in its high half.
template <unsigned Swaps>
inline __m512i unshuffle_lanes(__m512i x) {
  if constexpr (Swaps > 0) x = delta_swap<1>(x, detail::kUnshuffleMasks[0]);
  if constexpr (Swaps > 1) x = delta_swap<2>(x, detail::kUnshuffleMasks[1]);
  if constexpr (Swaps > 2) x = delta_swap<4>(x, detail::kUnshuffleMasks[2]);
  if constexpr (Swaps == 4) {
    x = _mm512_shuffle_epi8(
        x, _mm512_broadcast_i32x4(
               _mm_setr_epi8(0, 2, 1, 3, 4, 6, 5, 7, 8, 10, 9, 11, 12, 14, 13, 15)));
  } else if constexpr (Swaps == 5) {
    x = _mm512_shuffle_epi8(
        x, _mm512_broadcast_i32x4(
               _mm_setr_epi8(0, 2, 4, 6, 1, 3, 5, 7, 8, 10, 12, 14, 9, 11, 13, 15)));
  }
  return x;
}

/// chunk_bits = 2^Swaps <= 32: every output word is its input word,
/// exchanged under the line-domain controls c2 and unshuffled in its register
/// (8 lanes of scalar_core.hpp's exchange_unshuffle64).
template <unsigned Swaps>
void column_words(const std::uint64_t* in, std::size_t slices, std::size_t words,
                  const std::uint64_t* c2, std::uint64_t* out) {
  for (std::size_t s = 0; s < slices; ++s) {
    const std::uint64_t* src = in + s * words;
    std::uint64_t* dst = out + s * words;
    std::size_t w = 0;
    for (; w + 8 <= words; w += 8) {
      const __m512i x = _mm512_loadu_si512(src + w);
      const __m512i t = _mm512_ternarylogic_epi64(x, _mm512_srli_epi64(x, 1),
                                                  _mm512_loadu_si512(c2 + w), kXorAnd);
      _mm512_storeu_si512(dst + w, unshuffle_lanes<Swaps>(_mm512_ternarylogic_epi64(
                                       x, t, _mm512_slli_epi64(t, 1), kXor3)));
    }
    detail::column_words_scalar<Swaps>(src, c2, w, words, dst);
  }
}

/// chunk_bits >= 64: 16 words fully unshuffled in-word (even lines low, odd
/// lines high), then one VPERMT2D each gathers the 8 even and the 8 odd run
/// words (word pair 2i, 2i+1 -> run word i), which exchange under 8 packed
/// control words.  Runs of 8+ words take them as whole vectors; runs of 1,
/// 2 or 4 words interleave them into 16 consecutive output words.
void column_runs(const std::uint64_t* in, std::size_t slices, std::size_t nbits,
                 const std::uint64_t* ctl, std::size_t run, std::uint64_t* out) {
  const std::size_t words = bitpack::words_for(nbits);
  const std::size_t pairs = nbits / 128;
  const __m512i odd_idx = _mm512_setr_epi32(1, 3, 5, 7, 9, 11, 13, 15, 17, 19, 21, 23,
                                            25, 27, 29, 31);
  // Runs under 8 words: output word p of the 16 is the even (index < 8) or
  // odd (index 8 + k) run word that group p / (2 * run) holds there.
  alignas(64) std::uint64_t lo_idx[8];
  alignas(64) std::uint64_t hi_idx[8];
  for (std::size_t p = 0; p < 16 && run < 8; ++p) {
    const std::size_t g = p / (2 * run);
    const std::size_t within = p % (2 * run);
    const std::uint64_t src =
        within < run ? g * run + within : 8 + g * run + within - run;
    (p < 8 ? lo_idx[p] : hi_idx[p - 8]) = src;
  }
  const __m512i lo_perm = run < 8 ? _mm512_load_si512(lo_idx) : _mm512_setzero_si512();
  const __m512i hi_perm = run < 8 ? _mm512_load_si512(hi_idx) : _mm512_setzero_si512();
  for (std::size_t s = 0; s < slices; ++s) {
    const std::uint64_t* src = in + s * words;
    std::uint64_t* dst = out + s * words;
    std::size_t i = 0;
    for (; i + 8 <= pairs; i += 8) {
      const __m512i x0 = unshuffle_lanes<5>(_mm512_loadu_si512(src + 2 * i));
      const __m512i x1 = unshuffle_lanes<5>(_mm512_loadu_si512(src + 2 * i + 8));
      __m512i e = pack_low_halves(x0, x1);
      __m512i o = _mm512_permutex2var_epi32(x0, odd_idx, x1);
      const __m512i t = _mm512_ternarylogic_epi64(e, o, _mm512_loadu_si512(ctl + i), kXorAnd);
      e = _mm512_xor_si512(e, t);
      o = _mm512_xor_si512(o, t);
      if (run >= 8) {
        const std::size_t base = (i / run) * 2 * run + i % run;
        _mm512_storeu_si512(dst + base, e);
        _mm512_storeu_si512(dst + base + run, o);
      } else {
        _mm512_storeu_si512(dst + 2 * i, _mm512_permutex2var_epi64(e, lo_perm, o));
        _mm512_storeu_si512(dst + 2 * i + 8, _mm512_permutex2var_epi64(e, hi_perm, o));
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
/// 16-, 32- and 64-line nodes swap in one rotate or byte shuffle, so those
/// levels are u ^ swap(u); narrower ones fold the upper half down under a
/// mask and copy the result back up.
template <unsigned S>
inline __m512i up_level(__m512i u) {
  constexpr unsigned kDelta = 1U << S;
  if constexpr (kDelta == 32) {
    return _mm512_xor_si512(u, _mm512_rol_epi64(u, 32));
  } else if constexpr (kDelta == 16) {
    return _mm512_xor_si512(u, _mm512_rol_epi32(u, 16));
  } else if constexpr (kDelta == 8) {
    const __m512i swap_bytes = _mm512_broadcast_i32x4(
        _mm_set_epi64x(0x0E0F0C0D0A0B0809LL, 0x0607040502030001LL));
    return _mm512_xor_si512(u, _mm512_shuffle_epi8(u, swap_bytes));
  } else {
    const __m512i low_half = bcast(bitpack::kEvenBits & ~detail::kOddChild[S]);
    const __m512i a =
        _mm512_ternarylogic_epi64(u, _mm512_srli_epi64(u, kDelta), low_half, kXorAnd);
    return _mm512_or_si512(a, _mm512_slli_epi64(a, kDelta));
  }
}

/// The tree levels of 8 line words (scalar_core.hpp's arbiter_word, per
/// lane): up levels to the nodes spanning 2^Top lines, their flag (the
/// root's own up signal, or `d_top` from the levels above a word), one
/// VPTERNLOGQ per down level, and one for the leaf's control.
template <unsigned Top, bool RootInWord>
inline __m512i arbiter_lanes(__m512i x, __m512i d_top) {
  const __m512i even = bcast(bitpack::kEvenBits);
  if constexpr (Top == 1) {
    return _mm512_and_si512(x, even);  // sp(1): the upper input is the control
  } else {
    __m512i u[Top + 1];
    u[1] = _mm512_ternarylogic_epi64(x, _mm512_srli_epi64(x, 1), even, kXorAnd);
    [&]<unsigned... S>(std::integer_sequence<unsigned, S...>) {
      ((u[S + 2] = up_level<S + 1>(u[S + 1])), ...);
    }(std::make_integer_sequence<unsigned, Top - 1>{});
    __m512i d = RootInWord ? u[Top] : d_top;
    for (unsigned s = Top; s-- > 1;) {
      d = _mm512_ternarylogic_epi64(bcast(detail::kOddChild[s]), d, u[s + 1], kDown);
    }
    return _mm512_and_si512(_mm512_ternarylogic_epi64(x, u[1], d, kLeaf), even);
  }
}

/// Line-domain controls of every word plus their packed form: 8 words per
/// step, compressed into 4 control words.  Without RootInWord each word's
/// flag is bit w of `d_above`, expanded to its lane by VPMOVM2Q.
template <unsigned Top, bool RootInWord>
void arbiter_line_words(const std::uint64_t* x, std::size_t words,
                        const std::uint64_t* d_above, std::uint64_t* c2,
                        std::uint64_t* ctl) {
  std::size_t w = 0;
  for (; w + 8 <= words; w += 8) {
    __m512i d_top = _mm512_setzero_si512();
    if constexpr (!RootInWord) {
      d_top = _mm512_movm_epi64(static_cast<__mmask8>(d_above[w >> 6] >> (w & 63)));
    }
    const __m512i c = arbiter_lanes<Top, RootInWord>(_mm512_loadu_si512(x + w), d_top);
    _mm512_storeu_si512(c2 + w, c);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(ctl + w / 2), compress_even_lanes(c));
  }
  detail::arbiter_line_words_scalar<Top>(x, RootInWord ? nullptr : d_above, w, words, c2);
  detail::compress_controls_scalar(c2, words, w / 2, (words + 1) / 2, ctl);
}

/// Bit w of `par` = parity of x[w]: each byte's two nibbles fold into one,
/// a VPSHUFB table gives the byte's parity, VPSADBW sums the 8 byte
/// parities of a word, and VPTESTMQ reads 8 word parities off bit 0.
void pack_word_parities(const std::uint64_t* x, std::size_t words, std::uint64_t* par) {
  const __m512i nibble_parity = _mm512_broadcast_i32x4(
      _mm_set_epi8(0, 1, 1, 0, 1, 0, 0, 1, 1, 0, 0, 1, 0, 1, 1, 0));
  std::size_t w = 0;
  for (; w + 8 <= words; w += 8) {
    const __m512i v = _mm512_loadu_si512(x + w);
    const __m512i nib = _mm512_ternarylogic_epi64(v, _mm512_srli_epi64(v, 4),
                                                  bcast(0x0F0F0F0F0F0F0F0FULL), kXorAnd);
    const __m512i sum = _mm512_sad_epu8(_mm512_shuffle_epi8(nibble_parity, nib),
                                        _mm512_setzero_si512());
    const std::uint64_t k = _mm512_test_epi64_mask(sum, bcast(1));
    par[w >> 6] = (w & 63) == 0 ? k : par[w >> 6] | (k << (w & 63));
  }
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

// Address-slice pack: 16 lines per ZMM, so one VPTESTMD per address bit
// yields 16 bits of its slice word; 4 of them fill the word of a 64-line
// block.  A partial last block takes the scalar transpose.
void pack_address_slices_k(const std::uint32_t* image, std::size_t n, unsigned m,
                           std::uint64_t* slices) {
  const std::size_t words = bitpack::words_for(n);
  const std::size_t full = n / 64;
  for (std::size_t b = 0; b < full; ++b) {
    const std::uint32_t* lines = image + 64 * b;
    const __m512i v0 = _mm512_loadu_si512(lines);
    const __m512i v1 = _mm512_loadu_si512(lines + 16);
    const __m512i v2 = _mm512_loadu_si512(lines + 32);
    const __m512i v3 = _mm512_loadu_si512(lines + 48);
    for (unsigned a = 0; a < m; ++a) {
      const __m512i bit = _mm512_set1_epi32(static_cast<int>(1U << a));
      const std::uint64_t k0 = _mm512_test_epi32_mask(v0, bit);
      const std::uint64_t k1 = _mm512_test_epi32_mask(v1, bit);
      const std::uint64_t k2 = _mm512_test_epi32_mask(v2, bit);
      const std::uint64_t k3 = _mm512_test_epi32_mask(v3, bit);
      slices[a * words + b] = k0 | (k1 << 16) | (k2 << 32) | (k3 << 48);
    }
  }
  detail::pack_address_blocks_scalar(image, n, m, full, words, slices);
}

// Small-schedule replay: one ZMM register holds all 8 independent 64-line
// states, so every (mask, delta) butterfly step is 4 instructions for the
// whole batch — VPSRLQ, VPTERNLOGQ for (x ^ (x >> d)) & m, VPSLLQ, VPXORQ.
// Deltas vary per step, so the shifts take their count from an XMM register
// (_mm_cvtsi32_si128) rather than an immediate.
void small_apply8_k(const std::uint64_t* masks, const std::uint8_t* deltas,
                    std::size_t depth, std::uint64_t* lanes) {
  __m512i x = _mm512_loadu_si512(lanes);
  for (std::size_t s = 0; s < depth; ++s) {
    const __m128i d = _mm_cvtsi32_si128(deltas[s]);
    const __m512i y =
        _mm512_ternarylogic_epi64(x, _mm512_srl_epi64(x, d), bcast(masks[s]), kXorAnd);
    x = _mm512_xor_si512(x, _mm512_xor_si512(y, _mm512_sll_epi64(y, d)));
  }
  _mm512_storeu_si512(lanes, x);
}

}  // namespace

namespace detail {
const KernelSet kAvx512Set{"avx512",
                           Tier::kAvx512,
                           /*wide_datapath=*/true,
                           &column_arbiter_k,
                           &xor_words_k,
                           &column_pass_k,
                           &pack_address_slices_k,
                           &small_apply8_k};
}  // namespace detail

}  // namespace bnb::kernels

#endif  // AVX-512

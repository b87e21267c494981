// AVX-512 kernel tier: 8 packed words per step, with VPTERNLOGQ fusing
// every or-shift-and round of the magic-mask compress/spread networks into
// two instructions and VPERMT2D packing compressed half-words across
// vectors in one shuffle.  Unlike the AVX2 tier this vectorizes the
// half-width compress passes too — 8 lanes amortize the network where 4 do
// not beat scalar PEXT.  The column pass runs its delta swaps as two
// VPTERNLOGQ each, and the address pack is one VPTESTMD per address bit
// per 16 lines.  Compiled with AVX-512 flags only for this TU;
// kernel_set.cpp gates execution behind runtime CPUID/XGETBV checks.
#if defined(__AVX512F__) && defined(__AVX512BW__) && defined(__AVX512DQ__) && \
    defined(__AVX512VL__)

#include <immintrin.h>

#include "core/bit_pack.hpp"
#include "core/kernels/kernel_impl.hpp"
#include "core/kernels/scalar_core.hpp"

namespace bnb::kernels {
namespace {

// VPTERNLOGQ immediates: f(a,b,c) bit at position (a<<2 | b<<1 | c).
constexpr int kOrAnd = 0xA8;   // (a | b) & c
constexpr int kXorAnd = 0x28;  // (a ^ b) & c
constexpr int kXor3 = 0x96;    // a ^ b ^ c

inline __m512i bcast(std::uint64_t v) {
  return _mm512_set1_epi64(static_cast<long long>(v));
}

/// One magic-network round: (x | x >> s) & m in two instructions.
inline __m512i fold_r(__m512i x, int s, std::uint64_t m) {
  return _mm512_ternarylogic_epi64(x, _mm512_srli_epi64(x, s), bcast(m), kOrAnd);
}

inline __m512i fold_l(__m512i x, int s, std::uint64_t m) {
  return _mm512_ternarylogic_epi64(x, _mm512_slli_epi64(x, s), bcast(m), kOrAnd);
}

/// Per 64-bit lane: pack the 32 even-position bits into the low half.
inline __m512i compress_even_lanes(__m512i x) {
  x = _mm512_and_si512(x, bcast(0x5555555555555555ULL));
  x = fold_r(x, 1, 0x3333333333333333ULL);
  x = fold_r(x, 2, 0x0F0F0F0F0F0F0F0FULL);
  x = fold_r(x, 4, 0x00FF00FF00FF00FFULL);
  x = fold_r(x, 8, 0x0000FFFF0000FFFFULL);
  x = fold_r(x, 16, 0x00000000FFFFFFFFULL);
  return x;
}

/// Per 64-bit lane: spread the low 32 bits at `chunk` granularity.
inline __m512i spread_chunks_lanes(__m512i x, unsigned chunk) {
  x = _mm512_and_si512(x, bcast(0x00000000FFFFFFFFULL));
  if (chunk <= 16) x = fold_l(x, 16, 0x0000FFFF0000FFFFULL);
  if (chunk <= 8) x = fold_l(x, 8, 0x00FF00FF00FF00FFULL);
  if (chunk <= 4) x = fold_l(x, 4, 0x0F0F0F0F0F0F0F0FULL);
  if (chunk <= 2) x = fold_l(x, 2, 0x3333333333333333ULL);
  if (chunk <= 1) x = fold_l(x, 1, 0x5555555555555555ULL);
  return x;
}

/// Dword-pack the low halves of two compressed vectors: result word j is
/// low32(c0 lane 2j, c0 lane 2j+1) for j < 4, then the same from c1.
inline __m512i pack_low_halves(__m512i c0, __m512i c1) {
  const __m512i idx = _mm512_setr_epi32(0, 2, 4, 6, 8, 10, 12, 14, 16, 18, 20, 22,
                                        24, 26, 28, 30);
  return _mm512_permutex2var_epi32(c0, idx, c1);
}

/// Shared body of the three compress-style array passes: out word i packs
/// transform(in[2i]), transform(in[2i+1]); `shift` pre-shifts for odd bits,
/// `with_xor` folds in x ^ (x >> 1) for the arbiter up pass.
template <int Shift, bool WithXor>
void compress_pass(const std::uint64_t* in, std::size_t nbits, std::uint64_t* out) {
  const std::size_t in_words = bitpack::words_for(nbits);
  const std::size_t out_words = bitpack::words_for(nbits / 2);
  std::size_t i = 0;
  for (; i + 8 <= out_words && 2 * i + 16 <= in_words + (in_words & 1); i += 8) {
    // 16 input words only exist when in_words >= 2*i+16; guarded above.
    if (2 * i + 16 > in_words) break;
    __m512i x0 = _mm512_loadu_si512(in + 2 * i);
    __m512i x1 = _mm512_loadu_si512(in + 2 * i + 8);
    if constexpr (WithXor) {
      x0 = _mm512_xor_si512(x0, _mm512_srli_epi64(x0, 1));
      x1 = _mm512_xor_si512(x1, _mm512_srli_epi64(x1, 1));
    } else if constexpr (Shift != 0) {
      x0 = _mm512_srli_epi64(x0, Shift);
      x1 = _mm512_srli_epi64(x1, Shift);
    }
    const __m512i packed =
        pack_low_halves(compress_even_lanes(x0), compress_even_lanes(x1));
    _mm512_storeu_si512(out + i, packed);
  }
  for (; i < out_words; ++i) {
    std::uint64_t lo = in[2 * i];
    std::uint64_t hi = (2 * i + 1 < in_words) ? in[2 * i + 1] : 0;
    if constexpr (WithXor) {
      lo ^= lo >> 1;
      hi ^= hi >> 1;
    } else if constexpr (Shift != 0) {
      lo >>= Shift;
      hi >>= Shift;
    }
    out[i] = bitpack::compress_even64(lo) | (bitpack::compress_even64(hi) << 32);
  }
}

void compress_even_k(const std::uint64_t* in, std::size_t nbits, std::uint64_t* out) {
  compress_pass<0, false>(in, nbits, out);
}

void compress_odd_k(const std::uint64_t* in, std::size_t nbits, std::uint64_t* out) {
  compress_pass<1, false>(in, nbits, out);
}

void pair_xor_compress_k(const std::uint64_t* in, std::size_t nbits, std::uint64_t* out) {
  compress_pass<0, true>(in, nbits, out);
}

void masked_exchange_k(std::uint64_t* e, std::uint64_t* o, const std::uint64_t* ctl,
                       std::size_t words) {
  std::size_t w = 0;
  for (; w + 8 <= words; w += 8) {
    const __m512i ev = _mm512_loadu_si512(e + w);
    const __m512i ov = _mm512_loadu_si512(o + w);
    const __m512i cv = _mm512_loadu_si512(ctl + w);
    const __m512i t = _mm512_ternarylogic_epi64(ev, ov, cv, kXorAnd);
    _mm512_storeu_si512(e + w, _mm512_xor_si512(ev, t));
    _mm512_storeu_si512(o + w, _mm512_xor_si512(ov, t));
  }
  for (; w < words; ++w) {
    const std::uint64_t t = (e[w] ^ o[w]) & ctl[w];
    e[w] ^= t;
    o[w] ^= t;
  }
}

void xor_words_k(std::uint64_t* dst, const std::uint64_t* src, std::size_t words) {
  std::size_t w = 0;
  for (; w + 8 <= words; w += 8) {
    _mm512_storeu_si512(dst + w, _mm512_xor_si512(_mm512_loadu_si512(dst + w),
                                                  _mm512_loadu_si512(src + w)));
  }
  for (; w < words; ++w) dst[w] ^= src[w];
}

/// Shared body of interleave_bits (chunk = 1) and chunk_concat (chunk < 64):
/// 4 input words from each side expand to 8 output words per step.
void interleave_chunks_avx512(const std::uint64_t* a, const std::uint64_t* b,
                              std::size_t nbits_each, unsigned chunk,
                              std::uint64_t* out) {
  const std::size_t in_words = bitpack::words_for(nbits_each);
  const std::size_t out_words = bitpack::words_for(2 * nbits_each);
  std::size_t i = 0;
  for (; 2 * i + 8 <= out_words && i + 4 <= in_words; i += 4) {
    const __m512i xa = _mm512_cvtepu32_epi64(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i)));
    const __m512i xb = _mm512_cvtepu32_epi64(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i)));
    const __m512i res =
        _mm512_or_si512(spread_chunks_lanes(xa, chunk),
                        _mm512_slli_epi64(spread_chunks_lanes(xb, chunk),
                                          static_cast<int>(chunk)));
    _mm512_storeu_si512(out + 2 * i, res);
  }
  for (; i < in_words; ++i) {
    const std::uint64_t aw = a[i];
    const std::uint64_t bw = b[i];
    out[2 * i] = bitpack::interleave_chunks64(aw & 0xFFFFFFFFULL,
                                              bw & 0xFFFFFFFFULL, chunk);
    if (2 * i + 1 < out_words) {
      out[2 * i + 1] = bitpack::interleave_chunks64(aw >> 32, bw >> 32, chunk);
    }
  }
}

void interleave_bits_k(const std::uint64_t* a, const std::uint64_t* b,
                       std::size_t nbits_each, std::uint64_t* out) {
  interleave_chunks_avx512(a, b, nbits_each, 1, out);
}

void chunk_concat_k(const std::uint64_t* even, const std::uint64_t* odd,
                    std::size_t nbits_each, std::size_t chunk_bits,
                    std::uint64_t* out) {
  if (chunk_bits >= 64) {
    bitpack::chunk_concat(even, odd, nbits_each, chunk_bits, out);  // word runs
    return;
  }
  interleave_chunks_avx512(even, odd, nbits_each,
                           static_cast<unsigned>(chunk_bits), out);
}

/// x ^= swap of the bits under `mask` with the bits `D` above them.
template <int D>
inline __m512i delta_swap(__m512i x, std::uint64_t mask) {
  const __m512i t = _mm512_ternarylogic_epi64(x, _mm512_srli_epi64(x, D), bcast(mask),
                                              kXorAnd);
  return _mm512_ternarylogic_epi64(x, t, _mm512_slli_epi64(t, D), kXor3);
}

/// Swaps unshuffle delta swaps per lane (scalar_core.hpp's masks).
template <unsigned Swaps>
inline __m512i unshuffle_lanes(__m512i x) {
  if constexpr (Swaps > 0) x = delta_swap<1>(x, detail::kUnshuffleMasks[0]);
  if constexpr (Swaps > 1) x = delta_swap<2>(x, detail::kUnshuffleMasks[1]);
  if constexpr (Swaps > 2) x = delta_swap<4>(x, detail::kUnshuffleMasks[2]);
  if constexpr (Swaps > 3) x = delta_swap<8>(x, detail::kUnshuffleMasks[3]);
  if constexpr (Swaps > 4) x = delta_swap<16>(x, detail::kUnshuffleMasks[4]);
  return x;
}

/// chunk_bits = 2^Swaps <= 32: every output word is its input word,
/// exchanged under the spread controls c2 and unshuffled in its register
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
                   const std::uint64_t* ctl, std::size_t chunk_bits, std::uint64_t* tmp,
                   std::uint64_t* out) {
  if (chunk_bits >= 64) return column_runs(in, slices, nbits, ctl, chunk_bits / 64, out);
  if (slices == 0) return;
  // Spread the controls once per column: half-word w of ctl -> word w.
  const std::size_t words = bitpack::words_for(nbits);
  const auto* ctl32 = reinterpret_cast<const std::uint32_t*>(ctl);
  std::size_t w = 0;
  for (; w + 8 <= words; w += 8) {
    const __m512i c = _mm512_cvtepu32_epi64(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(ctl32 + w)));
    _mm512_storeu_si512(tmp + w, spread_chunks_lanes(c, 1));
  }
  detail::spread_controls_scalar(ctl, w, words, tmp);
  detail::with_unshuffle_swaps(chunk_bits, [&](auto swaps) {
    column_words<swaps>(in, slices, words, tmp, out);
  });
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
                           &compress_even_k,
                           &compress_odd_k,
                           &pair_xor_compress_k,
                           &interleave_bits_k,
                           &chunk_concat_k,
                           &masked_exchange_k,
                           &xor_words_k,
                           &column_pass_k,
                           &pack_address_slices_k,
                           &small_apply8_k};
}  // namespace detail

}  // namespace bnb::kernels

#endif  // AVX-512

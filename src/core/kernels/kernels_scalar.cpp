// Scalar kernel tier: the portable 64-bit word loops of scalar_core.hpp,
// exported twice — as the `scalar` set that keeps the engine's original
// per-line datapath, and as the `wide` set that drives the bit-sliced wide
// datapath with the identical word arithmetic.  Every SIMD tier is tested
// bit-for-bit against these.
#include "core/bit_pack.hpp"
#include "core/kernels/kernel_impl.hpp"
#include "core/kernels/scalar_core.hpp"

namespace bnb::kernels {
namespace {

// Column arbiter: every word runs its tree levels in its register, wide
// splitters on the shared word-parity levels; then one compress packs the
// controls.
void column_arbiter_k(const std::uint64_t* x, std::size_t nbits, unsigned p,
                      std::uint64_t* c2, std::uint64_t* ctl, std::uint64_t* work) {
  const std::size_t words = bitpack::words_for(nbits);
  detail::column_arbiter_levels(
      x, nbits, p, work,
      [](const std::uint64_t* in, std::size_t count, std::uint64_t* par) {
        detail::pack_word_parities_scalar(in, 0, count, par);
      },
      [&](auto top, const std::uint64_t* d_above) {
        detail::arbiter_line_words_scalar<top>(x, d_above, 0, words, c2);
      });
  detail::compress_controls_scalar(c2, words, 0, bitpack::words_for(nbits / 2), ctl);
}

void xor_words_k(std::uint64_t* dst, const std::uint64_t* src, std::size_t words) {
  for (std::size_t w = 0; w < words; ++w) dst[w] ^= src[w];
}

// Column pass over `slices` packed slices.  Chunks of a word or less: every
// slice word is exchanged under the line-domain controls and unshuffled by
// delta swaps in its register.  Whole-word chunks: each word pair
// compresses to its even and odd run words, which exchange under the packed
// controls.  The loops live in scalar_core.hpp because the SIMD tiers reuse
// them for tails.
void column_pass_k(const std::uint64_t* in, std::size_t slices, std::size_t nbits,
                   const std::uint64_t* c2, const std::uint64_t* ctl,
                   std::size_t chunk_bits, std::uint64_t* out) {
  const std::size_t words = bitpack::words_for(nbits);
  if (chunk_bits >= 64) {
    // nbits % (2 * chunk_bits) == 0 makes every run whole.
    for (std::size_t s = 0; s < slices; ++s) {
      detail::column_runs_scalar(in + s * words, ctl, 0, nbits / 128, chunk_bits / 64,
                                 out + s * words);
    }
    return;
  }
  detail::with_unshuffle_swaps(chunk_bits, [&](auto swaps) {
    for (std::size_t s = 0; s < slices; ++s) {
      detail::column_words_scalar<swaps>(in + s * words, c2, 0, words, out + s * words);
    }
  });
}

void pack_address_slices_k(const std::uint32_t* image, std::size_t n, unsigned m,
                           std::uint64_t* slices) {
  detail::pack_address_blocks_scalar(image, n, m, 0, bitpack::words_for(n), slices);
}

// Small-schedule replay over 8 independent lanes: step-outer order loads
// each (mask, delta) once and streams it across the lanes, which the
// compiler unrolls into straight register code (the per-lane body is the
// same butterfly as SmallSchedule::apply).
void small_apply8_k(const std::uint64_t* masks, const std::uint8_t* deltas,
                    std::size_t depth, std::uint64_t* lanes) {
  for (std::size_t s = 0; s < depth; ++s) {
    const unsigned d = deltas[s];
    const std::uint64_t m = masks[s];
    for (std::size_t l = 0; l < 8; ++l) {
      const std::uint64_t y = (lanes[l] ^ (lanes[l] >> d)) & m;
      lanes[l] ^= y ^ (y << d);
    }
  }
}

constexpr KernelSet make_set(const char* name, Tier tier, bool wide) {
  return KernelSet{name,
                   tier,
                   wide,
                   &column_arbiter_k,
                   &xor_words_k,
                   &column_pass_k,
                   &pack_address_slices_k,
                   &small_apply8_k};
}

}  // namespace

namespace detail {
const KernelSet kScalarSet = make_set("scalar", Tier::kScalar, false);
const KernelSet kWideSet = make_set("wide", Tier::kWide, true);
}  // namespace detail

}  // namespace bnb::kernels

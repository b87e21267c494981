// NEON kernel tier (aarch64): 2 packed words per step for the fault
// overlay's XOR pass; the arbiter, column pass and address pack reuse the
// wide set's scalar word loops (at 128-bit width the vector form does not
// beat them).  NEON is baseline on aarch64, so this TU needs no special
// compile flags and no runtime gate beyond the architecture itself.
#if defined(__aarch64__) && defined(__ARM_NEON)

#include <arm_neon.h>

#include "core/kernels/kernel_impl.hpp"

namespace bnb::kernels {
namespace {

void xor_words_k(std::uint64_t* dst, const std::uint64_t* src, std::size_t words) {
  std::size_t w = 0;
  for (; w + 2 <= words; w += 2) {
    vst1q_u64(dst + w, veorq_u64(vld1q_u64(dst + w), vld1q_u64(src + w)));
  }
  for (; w < words; ++w) dst[w] ^= src[w];
}

}  // namespace

namespace detail {
const KernelSet kNeonSet{"neon",
                         Tier::kNeon,
                         /*wide_datapath=*/true,
                         kWideSet.column_arbiter,
                         &xor_words_k,
                         kWideSet.column_pass,
                         kWideSet.pack_address_slices,
                         // 128-bit lanes gain nothing over the unrolled
                         // scalar step loop for the small-schedule replay.
                         kScalarSet.small_apply8};
}  // namespace detail

}  // namespace bnb::kernels

#endif  // aarch64 NEON

// Runtime-dispatched kernel layer for the compiled routing engine.
//
// Every hot word-parallel pass of CompiledBnb — the column arbiter, the
// bit-slice column pass and the solve's address-slice pack — is reached
// through a KernelSet of function pointers.  One set per implementation tier:
//
//   scalar   portable 64-bit words over the PER-LINE datapath — the
//            reference every other tier is tested against;
//   wide     the same scalar kernels driving the BIT-SLICED wide datapath
//            (all q = 2m address+index slices moved as packed words) — the
//            portable reference for the SIMD tiers' datapath;
//   avx2     256-bit kernels (4 words per step), wide datapath;
//   avx512   512-bit kernels (8 words per step, masked tails), wide datapath;
//   neon     128-bit kernels on aarch64, wide datapath.
//
// The active set is chosen ONCE at first use: CPUID (and, on x86, XGETBV
// state checks) picks the best tier the host can execute, and the
// BNB_KERNELS environment variable overrides the choice for testing
// ("scalar", "wide", "avx2", "avx512", "neon"; an unknown or unsupported
// name throws).  CompiledBnb captures the set at construction, so a single
// process can also hold plans on different tiers (the equivalence suite
// does exactly that via the explicit-set constructor).
//
// Contract shared by every implementation of a pass (and enforced
// bit-for-bit by tests/test_kernels.cpp): little-endian bit order (bit t of
// word w is line 64*w + t) and the zero-tail invariant — bits at positions
// >= the logical size are zero on input and on output, so passes chain
// without masking.  A column's controls come in two forms: LINE-DOMAIN
// (control t at bit 2t, odd bits zero; `c2`, words_for(nbits) words) and
// PACKED (control t at bit t; `ctl`, words_for(nbits/2) words, the
// ControlSchedule / ControlTrace layout).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>

namespace bnb::kernels {

enum class Tier : std::uint8_t { kScalar, kWide, kAvx2, kAvx512, kNeon };

/// Human-readable tier name ("scalar", "wide", "avx2", "avx512", "neon").
[[nodiscard]] const char* tier_name(Tier tier) noexcept;

/// One dispatchable implementation of the engine's word-parallel passes.
/// All sizes follow core/bit_pack.hpp: `nbits` logical bits, arrays of
/// bitpack::words_for(nbits) words, zeroed tails in and out.
struct KernelSet {
  const char* name;    ///< tier_name(tier); also the BNB_KERNELS spelling
  Tier tier;
  bool wide_datapath;  ///< true: CompiledBnb routes bit-sliced; false: per-line

  /// The switch controls of one splitter column, computed by the paper's
  /// arbiter trees A(p) of every sp(p) splitter in it at once.  `x` holds
  /// the column's input bit per line (nbits lines, nbits a power of two
  /// and a multiple of 2^p; zero tail).  Writes the controls in both
  /// forms: line-domain `c2` and packed `ctl` (see above).  For p = 1
  /// there is no arbiter: control t is the upper input bit x[2t].
  /// Otherwise each tree runs as a prefix network on the line bits, every
  /// node's signals broadcast to all leaves below it: leaf up signal
  /// u = (x ^ x >> 1) & even lines, up levels U' = the XOR of a node's two
  /// children, the root's flag D = U, down levels D' = odd child ?
  /// (D | ~U) : (D & U), and control t = x[2t] ^ (u & D) at the leaf.
  /// Splitters wider than 64 lines first fold each word to its parity and
  /// run the levels above a word on that parity vector.  `work` provides
  /// arbiter_work_words(nbits) words.  `x`, `c2`, `ctl` and `work` must not
  /// alias.
  void (*column_arbiter)(const std::uint64_t* x, std::size_t nbits, unsigned p,
                         std::uint64_t* c2, std::uint64_t* ctl, std::uint64_t* work);
  /// dst[w] ^= src[w] (fault bit-flip overlays).
  void (*xor_words)(std::uint64_t* dst, const std::uint64_t* src,
                    std::size_t words);
  /// One splitter column applied to `slices` packed slices with the SAME
  /// controls: slice s of `in` (words [s*W, (s+1)*W), W = words_for(nbits))
  /// goes through the switch exchange (pair t swaps lines 2t and 2t+1 when
  /// control t is set) and the chunk_bits unshuffle (output group g of
  /// 2*chunk_bits lines = the even outputs' chunk g, then the odd outputs'
  /// chunk g) into slice s of `out`.  `c2` and `ctl` are the column's
  /// controls in line-domain and packed form (column_arbiter writes both):
  /// chunks of up to 32 bits exchange each slice word in the line domain
  /// under c2, whole-word chunks exchange packed even/odd run words under
  /// ctl.  Requires nbits a multiple of 2*chunk_bits (every CompiledBnb
  /// column satisfies this: group divides N).  Writes exactly slices*W
  /// words of `out` and nothing past them; the output keeps the zero tail
  /// of the input.  `out` must not alias `in`, `c2` or `ctl`.  slices == 0
  /// touches nothing.
  void (*column_pass)(const std::uint64_t* in, std::size_t slices, std::size_t nbits,
                      const std::uint64_t* c2, const std::uint64_t* ctl,
                      std::size_t chunk_bits, std::uint64_t* out);
  /// Address-slice pack for the controls-only solve: slice a (words
  /// [a*W, (a+1)*W), W = words_for(n)) gets bit a of image[j] at line j,
  /// for a < m (m <= 32).  Lines past n pack as zero (zero tail); image
  /// bits at or above m are ignored.  Writes exactly m*W words of `slices`
  /// and nothing past them; `image` and `slices` must not alias.
  void (*pack_address_slices)(const std::uint32_t* image, std::size_t n, unsigned m,
                              std::uint64_t* slices);
  /// Replay a flattened small-N schedule (core/small_schedule.hpp) over 8
  /// INDEPENDENT 64-line states in one instruction stream.  Step s swaps
  /// bits i and i+deltas[s] of every lane for each set bit i of masks[s]
  /// (the classic Benes butterfly:  y = (x ^ (x >> d)) & m;  x ^= y ^
  /// (y << d)).  `lanes` is 8 contiguous words, updated in place; bits the
  /// masks never touch (>= the schedule's line count) pass through
  /// unchanged.  Bit-identical across tiers — the AVX-512 lane runs all 8
  /// words per step in one register, the scalar fallback loops.
  void (*small_apply8)(const std::uint64_t* masks, const std::uint8_t* deltas,
                       std::size_t depth, std::uint64_t* lanes);
};

/// Words of `work` column_arbiter needs for an nbits-line column: a word
/// parity vector and its flags for every level of 64-fold reduction.
[[nodiscard]] std::size_t arbiter_work_words(std::size_t nbits) noexcept;

/// The portable per-line reference set (always available, every host).
[[nodiscard]] const KernelSet& scalar_kernels() noexcept;

/// The scalar-kernel wide-datapath set (always available; the portable
/// reference for the SIMD tiers' bit-sliced data movement).
[[nodiscard]] const KernelSet& wide_kernels() noexcept;

/// Every set this build can execute on this host, scalar first, in
/// ascending tier order.  Stable storage for the life of the process.
[[nodiscard]] std::span<const KernelSet* const> supported_kernel_sets();

/// Look up a supported set by its BNB_KERNELS spelling; nullptr when the
/// name is unknown, not compiled in, or the host cannot execute it.
[[nodiscard]] const KernelSet* find_kernels(std::string_view name);

/// The set named by the BNB_KERNELS environment variable, or nullptr when
/// the variable is unset.  Throws std::runtime_error for a name that is not
/// runnable here (misspelled override must fail loudly, not fall back).
[[nodiscard]] const KernelSet* kernels_from_env();

/// The process-wide default: BNB_KERNELS if set, else the best supported
/// tier (avx512 > avx2 > neon > scalar).  Resolved once, then cached.
[[nodiscard]] const KernelSet& active_kernels();

}  // namespace bnb::kernels

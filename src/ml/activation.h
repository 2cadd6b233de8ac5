// The MLP's hidden-layer activation: a branchless, SIMD-friendly tanh.
//
// std::tanh dominates surrogate inference (the [6->14->4->1] topology spends
// ~half its per-row time in 18 libm calls), and libm's implementation
// neither inlines nor vectorizes. fast_tanh evaluates
//
//   tanh(x) = (e^{2x} - 1) / (e^{2x} + 1)
//
// with a degree-7 polynomial exp reduced by 2x = n ln2 + r (|r| <= ln2/2),
// using the round-to-nearest "magic number" trick for n and exact bit
// assembly of 2^n. Max absolute error vs std::tanh is ~3.5e-9 — far below
// the surrogate's model error — and the formula is branch-free, so the
// batched path can evaluate it 4 or 8 rows at a time with SIMD.
//
// Determinism contract: every evaluation path (this scalar inline, and the
// AVX2 / AVX-512 blocks behind fast_tanh_block) performs the identical
// sequence of IEEE-754 double operations per element, so scalar and batched
// inference agree bit-for-bit (asserted by tests/ml_batch_test.cpp). Keep
// the operation ORDER in sync with activation.cpp when editing either.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>

namespace rafiki::ml {

namespace activation_detail {
/// Clamp on t = 2x; tanh(22) is 1 to double precision, so beyond +/-44 the
/// quotient saturates exactly.
inline constexpr double kClamp = 44.0;
inline constexpr double kLog2E = 1.4426950408889634074;
/// 1.5 * 2^52: adding it rounds to nearest integer and leaves that integer
/// in the low mantissa bits (valid for |v| < 2^51).
inline constexpr double kRoundMagic = 6755399441055744.0;
inline constexpr std::int64_t kRoundMagicBits = 0x4338000000000000LL;
inline constexpr double kLn2Hi = 6.93147180369123816490e-01;
inline constexpr double kLn2Lo = 1.90821492927058770002e-10;
/// exp(r) Taylor coefficients c7..c0 for |r| <= ln2/2 (error ~5e-9 relative,
/// dominated by the truncation at r^7/7!).
inline constexpr double kC7 = 1.0 / 5040.0;
inline constexpr double kC6 = 1.0 / 720.0;
inline constexpr double kC5 = 1.0 / 120.0;
inline constexpr double kC4 = 1.0 / 24.0;
inline constexpr double kC3 = 1.0 / 6.0;
inline constexpr double kC2 = 0.5;
}  // namespace activation_detail

/// tanh approximation, |err| <= ~3.5e-9 absolute. See the header comment for
/// the formula; the bit-identical SIMD version lives in fast_tanh_block.
inline double fast_tanh(double x) noexcept {
  namespace d = activation_detail;
  double t = 2.0 * x;
  t = t > d::kClamp ? d::kClamp : t;
  t = t < -d::kClamp ? -d::kClamp : t;
  // n = round(t / ln2), captured exactly in the magic number's low bits.
  double nd = t * d::kLog2E + d::kRoundMagic;
  std::int64_t n;
  std::memcpy(&n, &nd, sizeof n);
  n -= d::kRoundMagicBits;
  nd -= d::kRoundMagic;
  // r = t - n ln2, with ln2 split for an exact-ish reduction.
  double r = t - nd * d::kLn2Hi;
  r -= nd * d::kLn2Lo;
  double p = d::kC7;
  p = p * r + d::kC6;
  p = p * r + d::kC5;
  p = p * r + d::kC4;
  p = p * r + d::kC3;
  p = p * r + d::kC2;
  p = p * r + 1.0;
  p = p * r + 1.0;
  // 2^n assembled directly in the exponent field (n in [-64, 64] after the
  // clamp, so no overflow/subnormal cases).
  const std::int64_t ebits = (n + 1023) << 52;
  double two_n;
  std::memcpy(&two_n, &ebits, sizeof two_n);
  const double e = p * two_n;  // e^{2x}
  return (e - 1.0) / (e + 1.0);
}

/// In-place fast_tanh over `values[0..n)`. Bit-for-bit identical to calling
/// fast_tanh per element; on x86-64 it runs 4 (AVX2) or 8 (AVX-512) elements
/// per instruction, picked once at runtime.
void fast_tanh_block(double* values, std::size_t n) noexcept;

/// Batch rows per register tile of layer_affine_block. Transposed activation
/// blocks use a leading dimension padded up to a multiple of this (see
/// Mlp::forward_batch), so the kernel never runs a scalar tail.
inline constexpr std::size_t kAffineRowTile = 8;

/// Dense affine layer over a column-major (transposed) batch:
///
///   out_t[o*ld + r] = bias[o] + sum_i w[o*in_dim + i] * in_t[i*ld + r]
///
/// Activations are stored transposed ([unit][row]) so the vector lane is the
/// batch dimension, which stays long no matter how narrow the layer is. `ld`
/// is the leading dimension of both blocks and must be a multiple of
/// kAffineRowTile; lanes past the caller's real batch are padding, computed
/// like any other lane and ignored by the caller. `w` is the layer's weight
/// block in its native out_dim x in_dim layout.
///
/// Register tiling: 4 outputs x kAffineRowTile rows stay in registers across
/// the whole input loop (the out_dim % 4 leftover outputs run as a narrower
/// tile of the same form), so each input row is loaded once per tile and
/// each output stored once. The accumulation order per output element is
/// fixed: bias first, then ascending input index, each step a multiply then
/// an add (never fused) — the exact order Mlp::forward uses. Rows are
/// independent lanes, so results are bit-identical to the scalar path.
/// Dispatched to AVX2 / AVX-512 codegen on x86-64 at runtime; every ISA runs
/// the same template body.
void layer_affine_block(const double* in_t, std::size_t ld, std::size_t in_dim,
                        const double* w, const double* bias, double* out_t,
                        std::size_t out_dim) noexcept;

}  // namespace rafiki::ml

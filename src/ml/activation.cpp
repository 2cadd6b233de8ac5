// SIMD lanes for the inference hot path: fast_tanh blocks and the dense
// affine layer kernel. Each variant performs the exact operation sequence of
// the scalar code per element — every op used (mul, add, sub, div, min/max,
// integer exponent assembly) is correctly rounded element-wise IEEE-754, so
// lane results are bit-identical to scalar results. This file must be
// compiled with -ffp-contract=off: the AVX targets bring FMA into reach, and
// a contracted mul+add rounds once instead of twice, which would break the
// scalar/batched parity the tests pin down.
#include "ml/activation.h"

#include <algorithm>
#include <cstring>
#include <iterator>

#if defined(__x86_64__) && defined(__GNUC__)
#define RAFIKI_X86_DISPATCH 1
#include <immintrin.h>
#else
#define RAFIKI_X86_DISPATCH 0
#endif

namespace rafiki::ml {
namespace {
namespace d = activation_detail;

// kAffineRowTile batch rows as one GCC generic vector: the compiler lowers
// it to whatever the enclosing ISA wrapper provides (one AVX-512 register,
// two AVX2 registers, four SSE2 registers). Element-wise + and * on it are
// the same correctly rounded IEEE-754 operations as on scalars.
typedef double RowTile __attribute__((vector_size(kAffineRowTile * sizeof(double))));

// Outputs per register tile: 4 x 8 accumulators fill eight AVX2 registers and
// leave the rest of the sixteen for the input row and the weights.
constexpr std::size_t kAffineOutputTile = 4;

// One register tile: kOutputs outputs x kAffineRowTile rows accumulate in
// registers across the whole input loop. `w`, `bias` and `out_t` point at the
// tile's first output; `in_t` and `out_t` at its first row.
template <std::size_t kOutputs>
__attribute__((always_inline)) inline void affine_tile(const double* in_t, std::size_t ld,
                                                       std::size_t in_dim, const double* w,
                                                       const double* bias, double* out_t) {
  RowTile acc[kOutputs];
  for (std::size_t k = 0; k < kOutputs; ++k) {
    double lanes[kAffineRowTile];
    std::fill(std::begin(lanes), std::end(lanes), bias[k]);
    std::memcpy(&acc[k], lanes, sizeof lanes);
  }
  for (std::size_t i = 0; i < in_dim; ++i) {
    RowTile x;
    std::memcpy(&x, in_t + i * ld, sizeof x);
    for (std::size_t k = 0; k < kOutputs; ++k) acc[k] += w[k * in_dim + i] * x;
  }
  for (std::size_t k = 0; k < kOutputs; ++k) {
    std::memcpy(out_t + k * ld, &acc[k], sizeof(RowTile));
  }
}

// One source of truth for the affine layer; the ISA wrappers below inline
// it. The accumulation order per output element (bias, then ascending i,
// mul then add) never changes, so every wrapper is bit-identical.
__attribute__((always_inline)) inline void affine_body(
    const double* in_t, std::size_t ld, std::size_t in_dim, const double* w,
    const double* bias, double* out_t, std::size_t out_dim) {
  for (std::size_t r = 0; r < ld; r += kAffineRowTile) {
    std::size_t o = 0;
    for (; o + kAffineOutputTile <= out_dim; o += kAffineOutputTile) {
      affine_tile<kAffineOutputTile>(in_t + r, ld, in_dim, w + o * in_dim, bias + o,
                                     out_t + o * ld + r);
    }
    switch (out_dim - o) {
      case 3:
        affine_tile<3>(in_t + r, ld, in_dim, w + o * in_dim, bias + o, out_t + o * ld + r);
        break;
      case 2:
        affine_tile<2>(in_t + r, ld, in_dim, w + o * in_dim, bias + o, out_t + o * ld + r);
        break;
      case 1:
        affine_tile<1>(in_t + r, ld, in_dim, w + o * in_dim, bias + o, out_t + o * ld + r);
        break;
      default:
        break;
    }
  }
}

#if RAFIKI_X86_DISPATCH

__attribute__((target("avx2")))
void tanh_block_avx2(double* values, std::size_t n) {
  const __m256d clamp_hi = _mm256_set1_pd(d::kClamp);
  const __m256d clamp_lo = _mm256_set1_pd(-d::kClamp);
  const __m256d log2e = _mm256_set1_pd(d::kLog2E);
  const __m256d magic = _mm256_set1_pd(d::kRoundMagic);
  const __m256i magic_bits = _mm256_set1_epi64x(d::kRoundMagicBits);
  const __m256d ln2_hi = _mm256_set1_pd(d::kLn2Hi);
  const __m256d ln2_lo = _mm256_set1_pd(d::kLn2Lo);
  const __m256d one = _mm256_set1_pd(1.0);
  const __m256i exp_bias = _mm256_set1_epi64x(1023);

  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    __m256d t = _mm256_mul_pd(_mm256_loadu_pd(values + i), _mm256_set1_pd(2.0));
    t = _mm256_min_pd(t, clamp_hi);
    t = _mm256_max_pd(t, clamp_lo);
    __m256d nd = _mm256_add_pd(_mm256_mul_pd(t, log2e), magic);
    const __m256i n64 = _mm256_sub_epi64(_mm256_castpd_si256(nd), magic_bits);
    nd = _mm256_sub_pd(nd, magic);
    __m256d r = _mm256_sub_pd(t, _mm256_mul_pd(nd, ln2_hi));
    r = _mm256_sub_pd(r, _mm256_mul_pd(nd, ln2_lo));
    __m256d p = _mm256_set1_pd(d::kC7);
    p = _mm256_add_pd(_mm256_mul_pd(p, r), _mm256_set1_pd(d::kC6));
    p = _mm256_add_pd(_mm256_mul_pd(p, r), _mm256_set1_pd(d::kC5));
    p = _mm256_add_pd(_mm256_mul_pd(p, r), _mm256_set1_pd(d::kC4));
    p = _mm256_add_pd(_mm256_mul_pd(p, r), _mm256_set1_pd(d::kC3));
    p = _mm256_add_pd(_mm256_mul_pd(p, r), _mm256_set1_pd(d::kC2));
    p = _mm256_add_pd(_mm256_mul_pd(p, r), one);
    p = _mm256_add_pd(_mm256_mul_pd(p, r), one);
    const __m256i ebits = _mm256_slli_epi64(_mm256_add_epi64(n64, exp_bias), 52);
    const __m256d e = _mm256_mul_pd(p, _mm256_castsi256_pd(ebits));
    _mm256_storeu_pd(values + i,
                     _mm256_div_pd(_mm256_sub_pd(e, one), _mm256_add_pd(e, one)));
  }
  for (; i < n; ++i) values[i] = fast_tanh(values[i]);
}

// GCC's avx512fintrin.h implements _mm512_undefined_* as a deliberately
// uninitialized read (`__m512i __Y = __Y;`), which -Wmaybe-uninitialized
// flags when intrinsics like _mm512_slli_epi64 inline here (GCC PR105593).
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
__attribute__((target("avx512f")))
void tanh_block_avx512(double* values, std::size_t n) {
  const __m512d clamp_hi = _mm512_set1_pd(d::kClamp);
  const __m512d clamp_lo = _mm512_set1_pd(-d::kClamp);
  const __m512d log2e = _mm512_set1_pd(d::kLog2E);
  const __m512d magic = _mm512_set1_pd(d::kRoundMagic);
  const __m512i magic_bits = _mm512_set1_epi64(d::kRoundMagicBits);
  const __m512d ln2_hi = _mm512_set1_pd(d::kLn2Hi);
  const __m512d ln2_lo = _mm512_set1_pd(d::kLn2Lo);
  const __m512d one = _mm512_set1_pd(1.0);
  const __m512i exp_bias = _mm512_set1_epi64(1023);

  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    __m512d t = _mm512_mul_pd(_mm512_loadu_pd(values + i), _mm512_set1_pd(2.0));
    t = _mm512_min_pd(t, clamp_hi);
    t = _mm512_max_pd(t, clamp_lo);
    __m512d nd = _mm512_add_pd(_mm512_mul_pd(t, log2e), magic);
    const __m512i n64 = _mm512_sub_epi64(_mm512_castpd_si512(nd), magic_bits);
    nd = _mm512_sub_pd(nd, magic);
    __m512d r = _mm512_sub_pd(t, _mm512_mul_pd(nd, ln2_hi));
    r = _mm512_sub_pd(r, _mm512_mul_pd(nd, ln2_lo));
    __m512d p = _mm512_set1_pd(d::kC7);
    p = _mm512_add_pd(_mm512_mul_pd(p, r), _mm512_set1_pd(d::kC6));
    p = _mm512_add_pd(_mm512_mul_pd(p, r), _mm512_set1_pd(d::kC5));
    p = _mm512_add_pd(_mm512_mul_pd(p, r), _mm512_set1_pd(d::kC4));
    p = _mm512_add_pd(_mm512_mul_pd(p, r), _mm512_set1_pd(d::kC3));
    p = _mm512_add_pd(_mm512_mul_pd(p, r), _mm512_set1_pd(d::kC2));
    p = _mm512_add_pd(_mm512_mul_pd(p, r), one);
    p = _mm512_add_pd(_mm512_mul_pd(p, r), one);
    const __m512i ebits = _mm512_slli_epi64(_mm512_add_epi64(n64, exp_bias), 52);
    const __m512d e = _mm512_mul_pd(p, _mm512_castsi512_pd(ebits));
    _mm512_storeu_pd(values + i,
                     _mm512_div_pd(_mm512_sub_pd(e, one), _mm512_add_pd(e, one)));
  }
  for (; i < n; ++i) values[i] = fast_tanh(values[i]);
}
#pragma GCC diagnostic pop

__attribute__((target("avx2")))
void affine_block_avx2(const double* in_t, std::size_t ld, std::size_t in_dim,
                       const double* w, const double* bias, double* out_t,
                       std::size_t out_dim) {
  affine_body(in_t, ld, in_dim, w, bias, out_t, out_dim);
}

__attribute__((target("avx512f")))
void affine_block_avx512(const double* in_t, std::size_t ld, std::size_t in_dim,
                         const double* w, const double* bias, double* out_t,
                         std::size_t out_dim) {
  affine_body(in_t, ld, in_dim, w, bias, out_t, out_dim);
}

enum class Isa { kScalar, kAvx2, kAvx512 };

Isa detect_isa() {
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx512f")) return Isa::kAvx512;
  if (__builtin_cpu_supports("avx2")) return Isa::kAvx2;
  return Isa::kScalar;
}

#endif  // RAFIKI_X86_DISPATCH

}  // namespace

void fast_tanh_block(double* values, std::size_t n) noexcept {
#if RAFIKI_X86_DISPATCH
  static const Isa isa = detect_isa();
  if (isa == Isa::kAvx512) {
    tanh_block_avx512(values, n);
    return;
  }
  if (isa == Isa::kAvx2) {
    tanh_block_avx2(values, n);
    return;
  }
#endif
  for (std::size_t i = 0; i < n; ++i) values[i] = fast_tanh(values[i]);
}

void layer_affine_block(const double* in_t, std::size_t ld, std::size_t in_dim,
                        const double* w, const double* bias, double* out_t,
                        std::size_t out_dim) noexcept {
#if RAFIKI_X86_DISPATCH
  static const Isa isa = detect_isa();
  if (isa == Isa::kAvx512) {
    affine_block_avx512(in_t, ld, in_dim, w, bias, out_t, out_dim);
    return;
  }
  if (isa == Isa::kAvx2) {
    affine_block_avx2(in_t, ld, in_dim, w, bias, out_t, out_dim);
    return;
  }
#endif
  affine_body(in_t, ld, in_dim, w, bias, out_t, out_dim);
}

}  // namespace rafiki::ml

// Portable compile-time SIMD layer for the double-precision kernels.
//
// One vector type, VecD, selected at compile time:
//   - AVX2  (x86-64, __AVX2__):  4 doubles per lane group
//   - NEON  (aarch64, __ARM_NEON): 2 doubles per lane group
//   - scalar fallback: 1 double (always available)
// Defining TPCP_FORCE_SCALAR (CMake option of the same name) pins the
// scalar backend regardless of the architecture flags — the CI leg that
// proves the vector kernels are bit-identical to the scalar ones.
//
// Determinism contract:
//   - MulAdd(a, b, acc) computes acc + a*b with TWO roundings (separate
//     multiply and add), exactly like the scalar expression `acc + a * b`.
//     Kernels built on MulAdd are bit-identical to their scalar loops.
//   - FusedMulAdd(a, b, acc) computes fma(a, b, acc) with ONE rounding on
//     every backend (hardware FMA where available, std::fma otherwise —
//     both correctly rounded, so the result is identical across backends).
//     It is NOT bit-identical to MulAdd; kernels that use it are the
//     KernelArith::kFma variants, which are fingerprinted options
//     (core/config.h) precisely because they change the numbers.
//   - SelectIfZero(p, if_zero, otherwise) picks per lane on p == 0.0
//     (either sign; NaN is not zero) — the vector form of a scalar
//     `if (p == 0.0)` skip, for kernels whose zero-skip is per element.

#ifndef TPCP_LINALG_SIMD_H_
#define TPCP_LINALG_SIMD_H_

#include <cmath>
#include <cstdint>

#if !defined(TPCP_FORCE_SCALAR) && defined(__AVX2__)
#define TPCP_SIMD_AVX2 1
#include <immintrin.h>
#elif !defined(TPCP_FORCE_SCALAR) && defined(__ARM_NEON)
#define TPCP_SIMD_NEON 1
#include <arm_neon.h>
#endif

namespace tpcp {
namespace simd {

#if defined(TPCP_SIMD_AVX2)

inline constexpr int kWidth = 4;
inline constexpr const char* kTargetName = "avx2";

struct VecD {
  __m256d v;
};

inline VecD Load(const double* p) { return {_mm256_loadu_pd(p)}; }
inline void Store(double* p, VecD a) { _mm256_storeu_pd(p, a.v); }
inline VecD Broadcast(double x) { return {_mm256_set1_pd(x)}; }
inline VecD Zero() { return {_mm256_setzero_pd()}; }
inline VecD Add(VecD a, VecD b) { return {_mm256_add_pd(a.v, b.v)}; }
inline VecD Mul(VecD a, VecD b) { return {_mm256_mul_pd(a.v, b.v)}; }
inline VecD MulAdd(VecD a, VecD b, VecD acc) {
  return {_mm256_add_pd(acc.v, _mm256_mul_pd(a.v, b.v))};
}
inline VecD SelectIfZero(VecD p, VecD if_zero, VecD otherwise) {
  const __m256d zero = _mm256_cmp_pd(p.v, _mm256_setzero_pd(), _CMP_EQ_OQ);
  return {_mm256_blendv_pd(otherwise.v, if_zero.v, zero)};
}
#if defined(__FMA__)
inline VecD FusedMulAdd(VecD a, VecD b, VecD acc) {
  return {_mm256_fmadd_pd(a.v, b.v, acc.v)};
}
#else
// AVX2 without the FMA instruction set: keep the fused (single-rounding)
// semantics via std::fma so kFma results stay identical across backends.
inline VecD FusedMulAdd(VecD a, VecD b, VecD acc) {
  alignas(32) double av[4], bv[4], cv[4];
  _mm256_store_pd(av, a.v);
  _mm256_store_pd(bv, b.v);
  _mm256_store_pd(cv, acc.v);
  for (int i = 0; i < 4; ++i) cv[i] = std::fma(av[i], bv[i], cv[i]);
  return {_mm256_load_pd(cv)};
}
#endif

#elif defined(TPCP_SIMD_NEON)

inline constexpr int kWidth = 2;
inline constexpr const char* kTargetName = "neon";

struct VecD {
  float64x2_t v;
};

inline VecD Load(const double* p) { return {vld1q_f64(p)}; }
inline void Store(double* p, VecD a) { vst1q_f64(p, a.v); }
inline VecD Broadcast(double x) { return {vdupq_n_f64(x)}; }
inline VecD Zero() { return {vdupq_n_f64(0.0)}; }
inline VecD Add(VecD a, VecD b) { return {vaddq_f64(a.v, b.v)}; }
inline VecD Mul(VecD a, VecD b) { return {vmulq_f64(a.v, b.v)}; }
inline VecD MulAdd(VecD a, VecD b, VecD acc) {
  return {vaddq_f64(acc.v, vmulq_f64(a.v, b.v))};
}
inline VecD FusedMulAdd(VecD a, VecD b, VecD acc) {
  return {vfmaq_f64(acc.v, a.v, b.v)};
}
inline VecD SelectIfZero(VecD p, VecD if_zero, VecD otherwise) {
  return {vbslq_f64(vceqq_f64(p.v, vdupq_n_f64(0.0)), if_zero.v, otherwise.v)};
}

#else

inline constexpr int kWidth = 1;
inline constexpr const char* kTargetName = "scalar";

struct VecD {
  double v;
};

inline VecD Load(const double* p) { return {*p}; }
inline void Store(double* p, VecD a) { *p = a.v; }
inline VecD Broadcast(double x) { return {x}; }
inline VecD Zero() { return {0.0}; }
inline VecD Add(VecD a, VecD b) { return {a.v + b.v}; }
inline VecD Mul(VecD a, VecD b) { return {a.v * b.v}; }
inline VecD MulAdd(VecD a, VecD b, VecD acc) { return {acc.v + a.v * b.v}; }
inline VecD FusedMulAdd(VecD a, VecD b, VecD acc) {
  return {std::fma(a.v, b.v, acc.v)};
}
inline VecD SelectIfZero(VecD p, VecD if_zero, VecD otherwise) {
  return p.v == 0.0 ? if_zero : otherwise;
}

#endif

/// True when an explicit vector backend (width > 1) is compiled in.
inline constexpr bool kEnabled = kWidth > 1;

}  // namespace simd
}  // namespace tpcp

#endif  // TPCP_LINALG_SIMD_H_

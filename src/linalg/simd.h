// Portable SIMD layer for the double-precision kernels (linalg/kernels.cc
// is its only includer).
//
// One vector type, VecD, per target:
//   - x86-64: AVX2 with FMA, 4 doubles per lane group. The x86-64 baseline
//     has neither, so these functions, and every kernel body built on them,
//     carry TPCP_VECTOR_TARGET (compiled for avx2,fma by attribute, not by a
//     whole-file -mavx2) and run only after the run-time check in
//     kernels.cc has found both features on the CPU.
//   - aarch64 (__ARM_NEON): NEON, 2 doubles per lane group; baseline on
//     that target, so always available.
//   - anything else: width 1, a plain double. The kernels never dispatch
//     to it; it only lets the one set of vector bodies compile everywhere.
// Everything here has internal linkage: a function compiled for avx2 must
// not become a shared (COMDAT) definition that baseline code could link
// against.
//
// Determinism contract:
//   - MulAdd(a, b, acc) computes acc + a*b with TWO roundings (separate
//     multiply and add), exactly like the scalar expression `acc + a * b`.
//     Kernels built on MulAdd are bit-identical to their scalar loops.
//   - FusedMulAdd(a, b, acc) computes fma(a, b, acc) with ONE rounding on
//     every backend (hardware FMA, or std::fma at width 1 — both correctly
//     rounded, so the result is identical across backends).
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

#if defined(__x86_64__)
#define TPCP_SIMD_AVX2 1
#define TPCP_VECTOR_TARGET __attribute__((target("avx2,fma")))
#include <immintrin.h>
#else
#define TPCP_VECTOR_TARGET
#if defined(__ARM_NEON)
#define TPCP_SIMD_NEON 1
#include <arm_neon.h>
#endif
#endif

namespace tpcp {
namespace simd {
namespace {

#if defined(TPCP_SIMD_AVX2)

constexpr int kWidth = 4;
constexpr const char* kTargetName = "avx2";

/// Whether this CPU (and OS) can run the AVX2+FMA bodies.
inline bool CpuSupported() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
}

struct VecD {
  __m256d v;
};

TPCP_VECTOR_TARGET inline VecD Load(const double* p) {
  return {_mm256_loadu_pd(p)};
}
TPCP_VECTOR_TARGET inline void Store(double* p, VecD a) {
  _mm256_storeu_pd(p, a.v);
}
TPCP_VECTOR_TARGET inline VecD Broadcast(double x) {
  return {_mm256_set1_pd(x)};
}
TPCP_VECTOR_TARGET inline VecD Add(VecD a, VecD b) {
  return {_mm256_add_pd(a.v, b.v)};
}
TPCP_VECTOR_TARGET inline VecD Mul(VecD a, VecD b) {
  return {_mm256_mul_pd(a.v, b.v)};
}
TPCP_VECTOR_TARGET inline VecD MulAdd(VecD a, VecD b, VecD acc) {
  return {_mm256_add_pd(acc.v, _mm256_mul_pd(a.v, b.v))};
}
TPCP_VECTOR_TARGET inline VecD FusedMulAdd(VecD a, VecD b, VecD acc) {
  return {_mm256_fmadd_pd(a.v, b.v, acc.v)};
}
TPCP_VECTOR_TARGET inline VecD SelectIfZero(VecD p, VecD if_zero,
                                            VecD otherwise) {
  const __m256d zero = _mm256_cmp_pd(p.v, _mm256_setzero_pd(), _CMP_EQ_OQ);
  return {_mm256_blendv_pd(otherwise.v, if_zero.v, zero)};
}

#elif defined(TPCP_SIMD_NEON)

constexpr int kWidth = 2;
constexpr const char* kTargetName = "neon";

inline bool CpuSupported() { return true; }

struct VecD {
  float64x2_t v;
};

inline VecD Load(const double* p) { return {vld1q_f64(p)}; }
inline void Store(double* p, VecD a) { vst1q_f64(p, a.v); }
inline VecD Broadcast(double x) { return {vdupq_n_f64(x)}; }
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

constexpr int kWidth = 1;
constexpr const char* kTargetName = "scalar";

inline bool CpuSupported() { return false; }

struct VecD {
  double v;
};

inline VecD Load(const double* p) { return {*p}; }
inline void Store(double* p, VecD a) { *p = a.v; }
inline VecD Broadcast(double x) { return {x}; }
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

}  // namespace
}  // namespace simd
}  // namespace tpcp

#endif  // TPCP_LINALG_SIMD_H_

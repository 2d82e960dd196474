#include "linalg/kernels.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>

#include "linalg/simd.h"

namespace tpcp {
namespace {

// ---- Scalar reference bodies -------------------------------------------
//
// These are the exact pre-SIMD loops; the vector forms below must replay
// the same per-element operation sequence (same multiplies, same adds, in
// the same order, same zero-skips) to stay bit-identical.

template <bool kFused>
void MicroKernelNNScalar(const double* a, int64_t lda, const double* b,
                         int64_t ldb, double* c, int64_t ldc, int64_t mb,
                         int64_t nb, int64_t kb) {
  for (int64_t i = 0; i < mb; ++i) {
    const double* a_row = a + i * lda;
    double* c_row = c + i * ldc;
    for (int64_t p = 0; p < kb; ++p) {
      const double aip = a_row[p];
      if (aip == 0.0) continue;
      const double* b_row = b + p * ldb;
      for (int64_t j = 0; j < nb; ++j) {
        if constexpr (kFused) {
          c_row[j] = std::fma(aip, b_row[j], c_row[j]);
        } else {
          c_row[j] += aip * b_row[j];
        }
      }
    }
  }
}

template <bool kFused>
void MicroKernelTNScalar(const double* a, int64_t lda, const double* b,
                         int64_t ldb, double* c, int64_t ldc, int64_t mb,
                         int64_t nb, int64_t kb, double alpha) {
  for (int64_t p = 0; p < kb; ++p) {
    const double* a_row = a + p * lda;
    const double* b_row = b + p * ldb;
    for (int64_t i = 0; i < mb; ++i) {
      const double aip = alpha * a_row[i];
      if (aip == 0.0) continue;
      double* c_row = c + i * ldc;
      for (int64_t j = 0; j < nb; ++j) {
        if constexpr (kFused) {
          c_row[j] = std::fma(aip, b_row[j], c_row[j]);
        } else {
          c_row[j] += aip * b_row[j];
        }
      }
    }
  }
}

// ---- Vector bodies ------------------------------------------------------
//
// Compiled for the vector target (TPCP_VECTOR_TARGET, linalg/simd.h) and
// called only once UseVector() has picked it for this process.
//
// Register blocking: C strips of kRowStrip rows x two vectors of columns
// stay in registers across the whole k extent, so each C element is
// loaded/stored once per tile instead of once per k step. The k loop is
// innermost and ascends, which for every C element replays the scalar
// loops' per-element accumulation order exactly; the per-(row, k)
// zero-skip is a scalar branch on the broadcast value, preserving
// skip-means-no-update semantics (-0.0 / inf / NaN edge cases included).

constexpr int64_t kRowStrip = 4;

template <bool kFused>
TPCP_VECTOR_TARGET inline simd::VecD Acc(simd::VecD a, simd::VecD b,
                                         simd::VecD acc) {
  if constexpr (kFused) {
    return simd::FusedMulAdd(a, b, acc);
  } else {
    return simd::MulAdd(a, b, acc);
  }
}

// Shared i/j blocking for both Gemm microkernels: `AVal(r, p)` abstracts
// the operand layout (NN reads A row-major per C row; TN reads A
// column-strided with the alpha scale folded in).
template <bool kFused, typename AVal>
TPCP_VECTOR_TARGET void BlockedKernel(const double* b, int64_t ldb, double* c,
                                      int64_t ldc, int64_t mb, int64_t nb,
                                      int64_t kb, const AVal& aval) {
  constexpr int64_t kW = simd::kWidth;
  int64_t j = 0;
  for (; j + 2 * kW <= nb; j += 2 * kW) {
    for (int64_t i0 = 0; i0 < mb; i0 += kRowStrip) {
      const int64_t rows = std::min(kRowStrip, mb - i0);
      simd::VecD acc0[kRowStrip];
      simd::VecD acc1[kRowStrip];
      for (int64_t r = 0; r < rows; ++r) {
        acc0[r] = simd::Load(c + (i0 + r) * ldc + j);
        acc1[r] = simd::Load(c + (i0 + r) * ldc + j + kW);
      }
      for (int64_t p = 0; p < kb; ++p) {
        const simd::VecD b0 = simd::Load(b + p * ldb + j);
        const simd::VecD b1 = simd::Load(b + p * ldb + j + kW);
        for (int64_t r = 0; r < rows; ++r) {
          const double aip = aval(i0 + r, p);
          if (aip == 0.0) continue;
          const simd::VecD av = simd::Broadcast(aip);
          acc0[r] = Acc<kFused>(av, b0, acc0[r]);
          acc1[r] = Acc<kFused>(av, b1, acc1[r]);
        }
      }
      for (int64_t r = 0; r < rows; ++r) {
        simd::Store(c + (i0 + r) * ldc + j, acc0[r]);
        simd::Store(c + (i0 + r) * ldc + j + kW, acc1[r]);
      }
    }
  }
  for (; j + kW <= nb; j += kW) {
    for (int64_t i0 = 0; i0 < mb; i0 += kRowStrip) {
      const int64_t rows = std::min(kRowStrip, mb - i0);
      simd::VecD acc0[kRowStrip];
      for (int64_t r = 0; r < rows; ++r) {
        acc0[r] = simd::Load(c + (i0 + r) * ldc + j);
      }
      for (int64_t p = 0; p < kb; ++p) {
        const simd::VecD b0 = simd::Load(b + p * ldb + j);
        for (int64_t r = 0; r < rows; ++r) {
          const double aip = aval(i0 + r, p);
          if (aip == 0.0) continue;
          acc0[r] = Acc<kFused>(simd::Broadcast(aip), b0, acc0[r]);
        }
      }
      for (int64_t r = 0; r < rows; ++r) {
        simd::Store(c + (i0 + r) * ldc + j, acc0[r]);
      }
    }
  }
  if (j < nb) {
    // Remainder columns: the scalar reference restricted to [j, nb).
    for (int64_t i = 0; i < mb; ++i) {
      double* c_row = c + i * ldc;
      for (int64_t p = 0; p < kb; ++p) {
        const double aip = aval(i, p);
        if (aip == 0.0) continue;
        const double* b_row = b + p * ldb;
        for (int64_t jj = j; jj < nb; ++jj) {
          if constexpr (kFused) {
            c_row[jj] = std::fma(aip, b_row[jj], c_row[jj]);
          } else {
            c_row[jj] += aip * b_row[jj];
          }
        }
      }
    }
  }
}

template <bool kFused>
TPCP_VECTOR_TARGET void MicroKernelNNVec(const double* a, int64_t lda,
                                         const double* b, int64_t ldb,
                                         double* c, int64_t ldc, int64_t mb,
                                         int64_t nb, int64_t kb) {
  BlockedKernel<kFused>(
      b, ldb, c, ldc, mb, nb, kb,
      [a, lda](int64_t i, int64_t p) { return a[i * lda + p]; });
}

template <bool kFused>
TPCP_VECTOR_TARGET void MicroKernelTNVec(const double* a, int64_t lda,
                                         const double* b, int64_t ldb,
                                         double* c, int64_t ldc, int64_t mb,
                                         int64_t nb, int64_t kb,
                                         double alpha) {
  BlockedKernel<kFused>(
      b, ldb, c, ldc, mb, nb, kb,
      [a, lda, alpha](int64_t i, int64_t p) { return alpha * a[p * lda + i]; });
}

// The element-wise kernels: whole lane groups, then the scalar expression
// on the tail narrower than a vector.

TPCP_VECTOR_TARGET void HadamardVec(double* a, const double* b, int64_t n) {
  constexpr int64_t kW = simd::kWidth;
  int64_t i = 0;
  // This loop is pure streaming bandwidth; a single vector per
  // iteration leaves load ports idle behind the store, so issue four
  // independent lane groups per trip (element-wise multiply — the
  // unroll order cannot change any result bit).
  for (; i + 4 * kW <= n; i += 4 * kW) {
    const simd::VecD r0 = simd::Mul(simd::Load(a + i), simd::Load(b + i));
    const simd::VecD r1 =
        simd::Mul(simd::Load(a + i + kW), simd::Load(b + i + kW));
    const simd::VecD r2 =
        simd::Mul(simd::Load(a + i + 2 * kW), simd::Load(b + i + 2 * kW));
    const simd::VecD r3 =
        simd::Mul(simd::Load(a + i + 3 * kW), simd::Load(b + i + 3 * kW));
    simd::Store(a + i, r0);
    simd::Store(a + i + kW, r1);
    simd::Store(a + i + 2 * kW, r2);
    simd::Store(a + i + 3 * kW, r3);
  }
  for (; i + kW <= n; i += kW) {
    simd::Store(a + i, simd::Mul(simd::Load(a + i), simd::Load(b + i)));
  }
  for (; i < n; ++i) a[i] *= b[i];
}

TPCP_VECTOR_TARGET void MttkrpRow3Vec(double* dst, double v, const double* r1,
                                      const double* r2, int64_t f) {
  constexpr int64_t kW = simd::kWidth;
  const simd::VecD vv = simd::Broadcast(v);
  int64_t c = 0;
  for (; c + kW <= f; c += kW) {
    // (v * r1[c]) * r2[c], then add — the scalar expression's order.
    const simd::VecD t =
        simd::Mul(simd::Mul(vv, simd::Load(r1 + c)), simd::Load(r2 + c));
    simd::Store(dst + c, simd::Add(simd::Load(dst + c), t));
  }
  for (; c < f; ++c) dst[c] += v * r1[c] * r2[c];
}

TPCP_VECTOR_TARGET void MttkrpFoldVec(double* dst, const double* w,
                                      const double* p, int64_t f) {
  constexpr int64_t kW = simd::kWidth;
  int64_t c = 0;
  for (; c + kW <= f; c += kW) {
    const simd::VecD pv = simd::Load(p + c);
    const simd::VecD d = simd::Load(dst + c);
    simd::Store(dst + c, simd::SelectIfZero(
                             pv, d, simd::MulAdd(simd::Load(w + c), pv, d)));
  }
  for (; c < f; ++c) {
    if (p[c] != 0.0) dst[c] += w[c] * p[c];
  }
}

TPCP_VECTOR_TARGET void MttkrpLeavesVec(double* dst, int64_t ldd,
                                        const double* x, int64_t ldx,
                                        const double* v, const int64_t* rows,
                                        int64_t count, int64_t f) {
  constexpr int64_t kW = simd::kWidth;
  for (int64_t e = 0; e < count; ++e) {
    if (v[e] == 0.0) continue;
    double* d = dst + rows[e] * ldd;
    const double* xr = x + rows[e] * ldx;
    const simd::VecD vv = simd::Broadcast(v[e]);
    int64_t c = 0;
    for (; c + kW <= f; c += kW) {
      simd::Store(d + c,
                  simd::MulAdd(vv, simd::Load(xr + c), simd::Load(d + c)));
    }
    for (; c < f; ++c) d[c] += v[e] * xr[c];
  }
}

TPCP_VECTOR_TARGET void MttkrpSeedVec(double* prod, double v, const double* row,
                                      int64_t f) {
  constexpr int64_t kW = simd::kWidth;
  const simd::VecD vv = simd::Broadcast(v);
  int64_t c = 0;
  for (; c + kW <= f; c += kW) {
    simd::Store(prod + c, simd::Mul(vv, simd::Load(row + c)));
  }
  for (; c < f; ++c) prod[c] = v * row[c];
}

TPCP_VECTOR_TARGET void MttkrpAccumVec(double* dst, const double* src,
                                       int64_t f) {
  constexpr int64_t kW = simd::kWidth;
  int64_t c = 0;
  for (; c + kW <= f; c += kW) {
    simd::Store(dst + c, simd::Add(simd::Load(dst + c), simd::Load(src + c)));
  }
  for (; c < f; ++c) dst[c] += src[c];
}

// ---- Backend selection --------------------------------------------------
//
// Decided once per process: the vector bodies run when the CPU supports
// them, unless the environment pins the scalar reference with
// TPCP_SIMD=scalar (any other value leaves the choice to the CPU check).
// Forked processes inherit both the environment and the decision.

bool DetectVector() {
  const char* env = std::getenv("TPCP_SIMD");
  if (env != nullptr && std::strcmp(env, "scalar") == 0) return false;
  return simd::CpuSupported();
}

inline bool VectorActive() {
  static const bool active = DetectVector();
  return active;
}

bool UseVector(KernelVariant variant) {
  return variant == KernelVariant::kSimd && VectorActive();
}

}  // namespace

bool SimdCompiled() { return VectorActive(); }

const char* SimdTargetName() {
  return VectorActive() ? simd::kTargetName : "scalar";
}

const char* KernelVariantName(KernelVariant variant) {
  return variant == KernelVariant::kScalar ? "scalar" : "simd";
}

const char* KernelArithName(KernelArith arith) {
  return arith == KernelArith::kExact ? "exact" : "fma";
}

void MicroKernelNN(const double* a, int64_t lda, const double* b,
                   int64_t ldb, double* c, int64_t ldc, int64_t mb,
                   int64_t nb, int64_t kb, KernelVariant variant,
                   KernelArith arith) {
  if (UseVector(variant)) {
    if (arith == KernelArith::kFma) {
      MicroKernelNNVec<true>(a, lda, b, ldb, c, ldc, mb, nb, kb);
    } else {
      MicroKernelNNVec<false>(a, lda, b, ldb, c, ldc, mb, nb, kb);
    }
    return;
  }
  if (arith == KernelArith::kFma) {
    MicroKernelNNScalar<true>(a, lda, b, ldb, c, ldc, mb, nb, kb);
  } else {
    MicroKernelNNScalar<false>(a, lda, b, ldb, c, ldc, mb, nb, kb);
  }
}

void MicroKernelTN(const double* a, int64_t lda, const double* b,
                   int64_t ldb, double* c, int64_t ldc, int64_t mb,
                   int64_t nb, int64_t kb, double alpha,
                   KernelVariant variant, KernelArith arith) {
  if (UseVector(variant)) {
    if (arith == KernelArith::kFma) {
      MicroKernelTNVec<true>(a, lda, b, ldb, c, ldc, mb, nb, kb, alpha);
    } else {
      MicroKernelTNVec<false>(a, lda, b, ldb, c, ldc, mb, nb, kb, alpha);
    }
    return;
  }
  if (arith == KernelArith::kFma) {
    MicroKernelTNScalar<true>(a, lda, b, ldb, c, ldc, mb, nb, kb, alpha);
  } else {
    MicroKernelTNScalar<false>(a, lda, b, ldb, c, ldc, mb, nb, kb, alpha);
  }
}

void HadamardKernel(double* a, const double* b, int64_t n,
                    KernelVariant variant) {
  if (UseVector(variant)) return HadamardVec(a, b, n);
  for (int64_t i = 0; i < n; ++i) a[i] *= b[i];
}

void MttkrpRow3(double* dst, double v, const double* r1, const double* r2,
                int64_t f, KernelVariant variant) {
  if (UseVector(variant)) return MttkrpRow3Vec(dst, v, r1, r2, f);
  for (int64_t c = 0; c < f; ++c) dst[c] += v * r1[c] * r2[c];
}

void MttkrpFold(double* dst, const double* w, const double* p, int64_t f,
                KernelVariant variant) {
  if (UseVector(variant)) return MttkrpFoldVec(dst, w, p, f);
  for (int64_t c = 0; c < f; ++c) {
    if (p[c] != 0.0) dst[c] += w[c] * p[c];
  }
}

void MttkrpLeaves(double* dst, int64_t ldd, const double* x, int64_t ldx,
                  const double* v, const int64_t* rows, int64_t count,
                  int64_t f, KernelVariant variant) {
  if (UseVector(variant)) {
    return MttkrpLeavesVec(dst, ldd, x, ldx, v, rows, count, f);
  }
  for (int64_t e = 0; e < count; ++e) {
    if (v[e] == 0.0) continue;
    double* d = dst + rows[e] * ldd;
    const double* xr = x + rows[e] * ldx;
    for (int64_t c = 0; c < f; ++c) d[c] += v[e] * xr[c];
  }
}

void MttkrpSeed(double* prod, double v, const double* row, int64_t f,
                KernelVariant variant) {
  if (UseVector(variant)) return MttkrpSeedVec(prod, v, row, f);
  for (int64_t c = 0; c < f; ++c) prod[c] = v * row[c];
}

void MttkrpAccum(double* dst, const double* src, int64_t f,
                 KernelVariant variant) {
  if (UseVector(variant)) return MttkrpAccumVec(dst, src, f);
  for (int64_t c = 0; c < f; ++c) dst[c] += src[c];
}

}  // namespace tpcp

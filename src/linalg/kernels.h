// Variant-selectable inner-loop kernels — the raw hot loops under Gemm,
// Gram, Hadamard, and MTTKRP, each available in an explicit scalar form
// and an explicitly vectorized form (linalg/simd.h).
//
// Every call site that matters for wall-clock dispatches KernelVariant::
// kSimd; kScalar is the reference implementation the bit-identity tests
// and the micro-kernel bench compare against. kSimd runs the vector
// backend picked once per process: on x86-64 the AVX2+FMA bodies when the
// CPU has both features, on aarch64 NEON; otherwise, or when the
// environment sets TPCP_SIMD=scalar, it runs the scalar reference. One
// binary thus serves every x86-64 CPU.
//
// KernelArith selects the accumulation arithmetic:
//   - kExact: separate multiply and add (two roundings) — bit-identical
//     between the scalar and vector forms, the library default.
//   - kFma:   fused multiply-add (one rounding per update) — faster on FMA
//     hardware but a *different* rounding sequence, hence different
//     numbers. Runs that enable it carry it in their resume fingerprint
//     (TwoPhaseCpOptions::kernel_fma). kFma results are identical across
//     scalar and vector forms too (std::fma == hardware FMA), just not to
//     kExact.

#ifndef TPCP_LINALG_KERNELS_H_
#define TPCP_LINALG_KERNELS_H_

#include <cstdint>

namespace tpcp {

enum class KernelVariant { kScalar, kSimd };
enum class KernelArith { kExact, kFma };

/// True when kSimd runs a vector backend in this process (false under
/// TPCP_SIMD=scalar, on x86-64 CPUs without AVX2 and FMA, and on targets
/// without AVX2/NEON).
bool SimdCompiled();

/// Name of the backend kSimd runs in this process: "avx2", "neon", or
/// "scalar".
const char* SimdTargetName();

const char* KernelVariantName(KernelVariant variant);
const char* KernelArithName(KernelArith arith);

/// C[mb x nb] += A[mb x kb] * B[kb x nb], row-major with leading
/// dimensions lda/ldb/ldc — the Gemm NN microkernel. Skips (i, p) pairs
/// with a(i, p) == 0 exactly like the scalar loop (a skipped update is no
/// update, which matters for -0.0 and non-finite C/B values).
void MicroKernelNN(const double* a, int64_t lda, const double* b,
                   int64_t ldb, double* c, int64_t ldc, int64_t mb,
                   int64_t nb, int64_t kb, KernelVariant variant,
                   KernelArith arith);

/// C[mb x nb] += alpha * A^T * B with A (kb x mb) and B (kb x nb)
/// row-major — the Gemm TN microkernel (Gram / MatTMul shape). Skips
/// (p, i) pairs where alpha * a(p, i) == 0.
void MicroKernelTN(const double* a, int64_t lda, const double* b,
                   int64_t ldb, double* c, int64_t ldc, int64_t mb,
                   int64_t nb, int64_t kb, double alpha,
                   KernelVariant variant, KernelArith arith);

/// a[i] *= b[i] for i in [0, n) — the Hadamard inner loop.
void HadamardKernel(double* a, const double* b, int64_t n,
                    KernelVariant variant);

/// dst[c] += v * r1[c] * r2[c] for c in [0, f) — the fused 3-mode sparse
/// MTTKRP row update. Evaluation order matches the scalar expression:
/// (v * r1[c]) * r2[c], then add.
void MttkrpRow3(double* dst, double v, const double* r1, const double* r2,
                int64_t f, KernelVariant variant);

/// dst[c] += w[c] * p[c] for c in [0, f), skipping every c with
/// p[c] == 0 — the fold of a dense MTTKRP partial into its output row.
/// A zero partial entry is no update, so a non-finite weight paired with
/// it cannot turn the output into NaN.
void MttkrpFold(double* dst, const double* w, const double* p, int64_t f,
                KernelVariant variant);

/// For each e in [0, count) in turn, unless v[e] == 0:
///   dst[rows[e] * ldd + c] += v[e] * x[rows[e] * ldx + c], c in [0, f)
/// — one Gemm-microkernel step per entry, with its per-element arithmetic
/// and zero-skip. The CSF MTTKRP runs one fiber's leaves through it: with
/// ldd = 0 they gather into one partial row, with ldx = 0 one Khatri-Rao
/// row scatters over output rows. Either way the result matches the
/// dense contraction bit for bit.
void MttkrpLeaves(double* dst, int64_t ldd, const double* x, int64_t ldx,
                  const double* v, const int64_t* rows, int64_t count,
                  int64_t f, KernelVariant variant);

/// prod[c] = v * row[c] — the fused product-buffer seed of the generic
/// MTTKRP paths.
void MttkrpSeed(double* prod, double v, const double* row, int64_t f,
                KernelVariant variant);

/// dst[c] += src[c] — the product-buffer accumulate of the generic MTTKRP
/// paths.
void MttkrpAccum(double* dst, const double* src, int64_t f,
                 KernelVariant variant);

}  // namespace tpcp

#endif  // TPCP_LINALG_KERNELS_H_

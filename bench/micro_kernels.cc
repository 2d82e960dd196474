// Micro-kernel benchmark: the vectorized inner loops (linalg/kernels.h)
// against their scalar reference forms, self-timed (no external benchmark
// dependency).
//
//   bench_micro_kernels [--json=BENCH_micro_kernels.json]
//
// Each kernel is measured in both variants on identical inputs; the SIMD
// row carries its speedup over the scalar row. The SIMD row runs the
// backend the process selected at start-up (AVX2 on an x86-64 CPU with
// AVX2 and FMA); under TPCP_SIMD=scalar both rows run the scalar
// reference. The scalar baseline is whatever the compiler makes of the
// plain loops for the build's baseline ISA (SSE2 on x86-64).

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "linalg/blas.h"
#include "linalg/kernels.h"
#include "tensor/csf_tensor.h"
#include "tensor/mttkrp.h"
#include "util/random.h"

namespace tpcp {
namespace {

Matrix RandomMatrix(int64_t rows, int64_t cols, uint64_t seed) {
  Rng rng(seed);
  Matrix m(rows, cols);
  for (int64_t i = 0; i < m.size(); ++i) m.data()[i] = rng.NextGaussian();
  return m;
}

DenseTensor RandomSparseTensor(const Shape& shape, double density,
                               uint64_t seed) {
  Rng rng(seed);
  DenseTensor t(shape);
  for (int64_t i = 0; i < t.NumElements(); ++i) {
    t.at_linear(i) = rng.NextDouble() < density ? rng.NextGaussian() : 0.0;
  }
  return t;
}

// Defeats dead-code elimination without perturbing the measured loop.
volatile double g_sink = 0.0;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Times `op` (one logical kernel invocation per call): calibrates a
/// repetition count targeting tens of milliseconds, then reports the best
/// of three samples in ns per invocation.
template <typename Op>
double TimeNsPerOp(Op&& op) {
  op();  // warm caches and page in buffers
  int64_t reps = 1;
  for (;;) {
    const int64_t start = NowNs();
    for (int64_t i = 0; i < reps; ++i) op();
    const int64_t elapsed = NowNs() - start;
    if (elapsed >= 20'000'000 || reps >= (int64_t{1} << 30)) break;
    reps *= 4;
  }
  double best = 1e300;
  for (int sample = 0; sample < 3; ++sample) {
    const int64_t start = NowNs();
    for (int64_t i = 0; i < reps; ++i) op();
    const double per_op =
        static_cast<double>(NowNs() - start) / static_cast<double>(reps);
    if (per_op < best) best = per_op;
  }
  return best;
}

struct Row {
  std::string kernel;
  std::string variant;
  double ns_per_op = 0.0;
  double bytes_per_s = 0.0;
  double speedup_vs_scalar = 0.0;  // simd rows only
};

std::vector<Row> g_rows;

/// Measures `op(variant)` under both variants. `bytes_per_op` is the
/// kernel's effective traffic (operands touched once per invocation).
template <typename Op>
void BenchKernel(const std::string& name, double bytes_per_op, Op&& op) {
  double scalar_ns = 0.0;
  for (KernelVariant variant :
       {KernelVariant::kScalar, KernelVariant::kSimd}) {
    const double ns = TimeNsPerOp([&] { op(variant); });
    Row row;
    row.kernel = name;
    row.variant = KernelVariantName(variant);
    row.ns_per_op = ns;
    row.bytes_per_s = bytes_per_op / (ns * 1e-9);
    if (variant == KernelVariant::kScalar) {
      scalar_ns = ns;
    } else {
      row.speedup_vs_scalar = scalar_ns / ns;
    }
    g_rows.push_back(row);
    std::printf("%-22s %-7s %12.1f ns/op %9.2f GB/s", name.c_str(),
                row.variant.c_str(), ns, row.bytes_per_s / 1e9);
    if (variant == KernelVariant::kSimd) {
      std::printf("   %5.2fx vs scalar", row.speedup_vs_scalar);
    }
    std::printf("\n");
  }
}

void RunAll() {
  std::printf("micro-kernels (simd target: %s, active: %s)\n",
              SimdTargetName(), SimdCompiled() ? "yes" : "no");
  bench::PrintRule();

  // The Gemm tile shape (linalg/blas.cc kTileM/N/K).
  constexpr int64_t kTile = 64;
  const Matrix a = RandomMatrix(kTile, kTile, 1);
  const Matrix b = RandomMatrix(kTile, kTile, 2);
  Matrix c(kTile, kTile);
  const double tile_bytes =
      static_cast<double>(3 * kTile * kTile) * sizeof(double);
  BenchKernel("gemm_tile_nn", tile_bytes, [&](KernelVariant v) {
    MicroKernelNN(a.data(), kTile, b.data(), kTile, c.data(), kTile, kTile,
                  kTile, kTile, v, KernelArith::kExact);
    g_sink += c.data()[0];
  });
  BenchKernel("gemm_tile_tn", tile_bytes, [&](KernelVariant v) {
    MicroKernelTN(a.data(), kTile, b.data(), kTile, c.data(), kTile, kTile,
                  kTile, kTile, 1.0, v, KernelArith::kExact);
    g_sink += c.data()[0];
  });
  BenchKernel("gemm_tile_tn_fma", tile_bytes, [&](KernelVariant v) {
    MicroKernelTN(a.data(), kTile, b.data(), kTile, c.data(), kTile, kTile,
                  kTile, kTile, 1.0, v, KernelArith::kFma);
    g_sink += c.data()[0];
  });

  // The refinement's Gram shape: tall-skinny factor, small rank.
  const int64_t gram_rows = 4096, gram_rank = 32;
  const Matrix tall = RandomMatrix(gram_rows, gram_rank, 3);
  Matrix gram_out(gram_rank, gram_rank);
  const double gram_bytes =
      static_cast<double>(gram_rows * gram_rank +
                          2 * gram_rank * gram_rank) *
      sizeof(double);
  BenchKernel("gram", gram_bytes, [&](KernelVariant v) {
    GemmVariant(Trans::kYes, tall, Trans::kNo, tall, 1.0, 0.0, &gram_out, v,
                KernelArith::kExact);
    g_sink += gram_out.data()[0];
  });

  // Hadamard is measured as a multiply/unmultiply pair: a single repeated
  // in-place `a *= b` drives a through the denormal range (|b|<1 decays,
  // |b|>1 overflows), and from then on both variants time the CPU's
  // denormal microcode assist instead of the kernel. Multiplying by 1/b
  // on the rebound keeps every element normal for any repetition count.
  const int64_t had_n = 1 << 16;
  Matrix had_a = RandomMatrix(had_n, 1, 4);
  const Matrix had_b = RandomMatrix(had_n, 1, 5);
  Matrix had_binv(had_n, 1);
  for (int64_t i = 0; i < had_n; ++i) {
    had_binv.data()[i] = 1.0 / had_b.data()[i];
  }
  BenchKernel("hadamard", static_cast<double>(2 * 3 * had_n) * sizeof(double),
              [&](KernelVariant v) {
                HadamardKernel(had_a.data(), had_b.data(), had_n, v);
                HadamardKernel(had_a.data(), had_binv.data(), had_n, v);
                g_sink += had_a.data()[0];
              });

  // MTTKRP over a 3-mode block at the refinement's rank scale.
  const int64_t rank = 16;
  const Shape cube({48, 48, 48});
  const DenseTensor dense = RandomSparseTensor(cube, 0.05, 6);
  const SparseTensor coo = SparseTensor::FromDense(dense);
  const CsfTensor csf = CsfTensor::FromDense(dense);
  std::vector<Matrix> factors;
  for (int m = 0; m < 3; ++m) {
    factors.push_back(
        RandomMatrix(cube.dim(m), rank, static_cast<uint64_t>(10 + m)));
  }
  // Per non-zero: the value, one factor row per skipped mode, and an
  // output-row update.
  const double nnz_bytes = static_cast<double>(coo.nnz()) *
                           static_cast<double>(1 + 3 * rank) *
                           sizeof(double);
  BenchKernel("sparse_mttkrp_coo", nnz_bytes, [&](KernelVariant v) {
    Matrix m = MttkrpVariant(coo, factors, 1, v);
    g_sink += m.data()[0];
  });
  BenchKernel("sparse_mttkrp_csf", nnz_bytes, [&](KernelVariant v) {
    Matrix m = MttkrpVariant(csf, factors, 1, v);
    g_sink += m.data()[0];
  });
  const double dense_bytes = static_cast<double>(cube.NumElements()) *
                             static_cast<double>(1 + 3 * rank) *
                             sizeof(double);
  BenchKernel("dense_mttkrp", dense_bytes, [&](KernelVariant v) {
    Matrix m = MttkrpVariant(dense, factors, 1, v);
    g_sink += m.data()[0];
  });
}

}  // namespace
}  // namespace tpcp

int main(int argc, char** argv) {
  std::string json_path;
  if (!tpcp::bench::ParseBenchArgs(argc, argv, &json_path)) return 2;
  tpcp::RunAll();
  if (!json_path.empty()) {
    std::vector<std::string> rows;
    for (const tpcp::Row& row : tpcp::g_rows) {
      tpcp::bench::JsonObject obj;
      obj.Add("kernel", row.kernel)
          .Add("variant", row.variant)
          .Add("ns_per_op", row.ns_per_op)
          .Add("bytes_per_s", row.bytes_per_s);
      if (row.variant == "simd") {
        obj.Add("speedup_vs_scalar", row.speedup_vs_scalar);
      }
      rows.push_back(obj.Render());
    }
    tpcp::bench::JsonObject top;
    top.Add("bench", "micro_kernels")
        .Add("simd_target", tpcp::SimdTargetName())
        .Add("simd_compiled", tpcp::SimdCompiled())
        .AddRaw("rows", tpcp::bench::JsonArray(rows));
    tpcp::bench::WriteJsonFile(json_path, top.Render());
  }
  return 0;
}

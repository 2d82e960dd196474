#include "cp/init.h"

#include <algorithm>

#include "linalg/svd_jacobi.h"
#include "tensor/unfold.h"
#include "util/random.h"

namespace tpcp {

std::vector<Matrix> RandomFactors(const Shape& shape, int64_t rank,
                                  uint64_t seed) {
  Rng rng(seed);
  std::vector<Matrix> factors;
  factors.reserve(static_cast<size_t>(shape.num_modes()));
  for (int m = 0; m < shape.num_modes(); ++m) {
    Matrix f(shape.dim(m), rank);
    for (int64_t i = 0; i < f.size(); ++i) f.data()[i] = rng.NextDouble();
    factors.push_back(std::move(f));
  }
  return factors;
}

std::vector<Matrix> HosvdFactors(const DenseTensor& tensor, int64_t rank,
                                 uint64_t seed) {
  Rng rng(seed);
  std::vector<Matrix> factors;
  factors.reserve(static_cast<size_t>(tensor.num_modes()));
  for (int m = 0; m < tensor.num_modes(); ++m) {
    const Matrix unfolding = Unfold(tensor, m);
    const int64_t usable = std::min<int64_t>(rank, unfolding.rows());
    const Matrix leading = LeadingLeftSingularVectors(unfolding, usable);
    Matrix f(tensor.dim(m), rank);
    for (int64_t i = 0; i < f.rows(); ++i) {
      for (int64_t j = 0; j < rank; ++j) {
        f(i, j) = j < usable ? leading(i, j) : rng.NextDouble();
      }
    }
    factors.push_back(std::move(f));
  }
  return factors;
}

std::vector<Matrix> InitFactors(const DenseTensor& tensor, int64_t rank,
                                InitMethod method, uint64_t seed) {
  switch (method) {
    case InitMethod::kRandom:
      return RandomFactors(tensor.shape(), rank, seed);
    case InitMethod::kHosvd:
      return HosvdFactors(tensor, rank, seed);
  }
  return RandomFactors(tensor.shape(), rank, seed);
}

std::vector<Matrix> InitFactors(const CsfTensor& tensor, int64_t rank,
                                InitMethod method, uint64_t seed) {
  if (method == InitMethod::kHosvd) {
    return HosvdFactors(tensor.ToDense(), rank, seed);
  }
  return RandomFactors(tensor.shape(), rank, seed);
}

}  // namespace tpcp

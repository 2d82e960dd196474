// Factor matrix initialization strategies for ALS.

#ifndef TPCP_CP_INIT_H_
#define TPCP_CP_INIT_H_

#include <vector>

#include "linalg/matrix.h"
#include "tensor/csf_tensor.h"
#include "tensor/dense_tensor.h"

namespace tpcp {

/// How ALS factor matrices are initialized.
enum class InitMethod {
  /// i.i.d. uniform [0,1) entries (Tensor Toolbox default).
  kRandom,
  /// Leading left singular vectors of each mode-n unfolding (HOSVD); columns
  /// beyond the mode dimension are padded with random entries.
  kHosvd,
};

/// Random factors: dims[i] x rank each, drawn from `seed`.
std::vector<Matrix> RandomFactors(const Shape& shape, int64_t rank,
                                  uint64_t seed);

/// HOSVD initialization for a dense tensor.
std::vector<Matrix> HosvdFactors(const DenseTensor& tensor, int64_t rank,
                                 uint64_t seed);

/// Builds factors per `method`. A CSF tensor honours kHosvd by densifying
/// once, for the init only, so its factors equal the dense tensor's.
std::vector<Matrix> InitFactors(const DenseTensor& tensor, int64_t rank,
                                InitMethod method, uint64_t seed);
std::vector<Matrix> InitFactors(const CsfTensor& tensor, int64_t rank,
                                InitMethod method, uint64_t seed);

}  // namespace tpcp

#endif  // TPCP_CP_INIT_H_

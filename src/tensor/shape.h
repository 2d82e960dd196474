// N-mode shape and multi-index arithmetic shared by dense and sparse tensors.

#ifndef TPCP_TENSOR_SHAPE_H_
#define TPCP_TENSOR_SHAPE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "util/logging.h"
#include "util/status.h"

namespace tpcp {

/// Multi-index into an N-mode tensor (one coordinate per mode).
using Index = std::vector<int64_t>;

/// Shape of an N-mode tensor plus linearization helpers.
///
/// Linearization is row-major (last mode fastest), matching DenseTensor's
/// storage layout.
class Shape {
 public:
  Shape() = default;
  explicit Shape(std::vector<int64_t> dims);

  int num_modes() const { return static_cast<int>(dims_.size()); }
  int64_t dim(int mode) const {
    TPCP_DCHECK(mode >= 0 && mode < num_modes());
    return dims_[static_cast<size_t>(mode)];
  }
  const std::vector<int64_t>& dims() const { return dims_; }

  /// Total number of cells (product of dims).
  int64_t NumElements() const { return num_elements_; }

  /// Row-major linear offset of a multi-index.
  int64_t LinearIndex(const Index& index) const;

  /// Inverse of LinearIndex.
  Index MultiIndex(int64_t linear) const;

  /// Product of all dims except `mode` (the row count of the mode-n
  /// unfolding's column space).
  int64_t NumElementsExcept(int mode) const;

  /// "I1xI2x...xIN".
  std::string ToString() const;

  bool operator==(const Shape& other) const { return dims_ == other.dims_; }
  bool operator!=(const Shape& other) const { return !(*this == other); }

 private:
  std::vector<int64_t> dims_;
  std::vector<int64_t> strides_;  // row-major strides
  int64_t num_elements_ = 0;
};

/// Element count of a tensor with extents `dims`. InvalidArgument where
/// Shape(dims) would CHECK-fail or overflow: no extents, an extent below 1,
/// or a product past int64. Decoders of untrusted geometry call this
/// before they build a Shape.
Result<int64_t> CheckedElementCount(const std::vector<int64_t>& dims);

}  // namespace tpcp

#endif  // TPCP_TENSOR_SHAPE_H_

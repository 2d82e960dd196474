#include "tensor/shape.h"

#include "util/format.h"

namespace tpcp {

Shape::Shape(std::vector<int64_t> dims) : dims_(std::move(dims)) {
  TPCP_CHECK(!dims_.empty());
  strides_.resize(dims_.size());
  int64_t stride = 1;
  for (int i = static_cast<int>(dims_.size()) - 1; i >= 0; --i) {
    TPCP_CHECK_GT(dims_[static_cast<size_t>(i)], 0);
    strides_[static_cast<size_t>(i)] = stride;
    stride *= dims_[static_cast<size_t>(i)];
  }
  num_elements_ = stride;
}

Result<int64_t> CheckedElementCount(const std::vector<int64_t>& dims) {
  if (dims.empty()) return Status::InvalidArgument("shape has no extents");
  int64_t elements = 1;
  for (const int64_t d : dims) {
    if (d < 1) {
      return Status::InvalidArgument("shape has extent " + std::to_string(d));
    }
    if (__builtin_mul_overflow(elements, d, &elements)) {
      return Status::InvalidArgument("shape overflows the element count");
    }
  }
  return elements;
}

int64_t Shape::LinearIndex(const Index& index) const {
  TPCP_DCHECK(static_cast<int>(index.size()) == num_modes());
  int64_t linear = 0;
  for (size_t i = 0; i < dims_.size(); ++i) {
    TPCP_DCHECK(index[i] >= 0 && index[i] < dims_[i]);
    linear += index[i] * strides_[i];
  }
  return linear;
}

Index Shape::MultiIndex(int64_t linear) const {
  TPCP_DCHECK(linear >= 0 && linear < num_elements_);
  Index index(dims_.size());
  for (size_t i = 0; i < dims_.size(); ++i) {
    index[i] = linear / strides_[i];
    linear %= strides_[i];
  }
  return index;
}

int64_t Shape::NumElementsExcept(int mode) const {
  TPCP_CHECK(mode >= 0 && mode < num_modes());
  return num_elements_ / dims_[static_cast<size_t>(mode)];
}

std::string Shape::ToString() const {
  std::vector<uint64_t> dims(dims_.begin(), dims_.end());
  return DimsToString(dims);
}

}  // namespace tpcp

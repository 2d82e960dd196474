#include "tensor/csf_tensor.h"

#include <algorithm>

namespace tpcp {

CsfTensor CsfTensor::FromSparse(const SparseTensor& coo) {
  CsfTensor out;
  out.shape_ = coo.shape();
  const int n = out.num_modes();
  out.idx_.assign(static_cast<size_t>(n), {});
  if (n > 1) out.ptr_.assign(static_cast<size_t>(n - 1), {});
  if (n == 0) return out;

  // Sort entry order (not the entries themselves) lexicographically;
  // stable, so duplicates keep their stored order for the merge below.
  const std::vector<SparseEntry>& entries = coo.entries();
  std::vector<size_t> order(entries.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&entries](size_t a, size_t b) {
                     return entries[a].index < entries[b].index;
                   });

  // Per-level child counts of the currently open node; prefix-summed into
  // ptr once all entries are placed.
  std::vector<std::vector<int64_t>> counts(
      n > 1 ? static_cast<size_t>(n - 1) : 0);
  out.values_.reserve(entries.size());
  const Index* prev = nullptr;
  for (size_t oi : order) {
    const SparseEntry& e = entries[oi];
    if (prev != nullptr && *prev == e.index) {
      out.values_.back() += e.value;
      continue;
    }
    // First level whose coordinate diverges from the previous entry — new
    // nodes open from there down.
    int start = 0;
    if (prev != nullptr) {
      while (start < n - 1 &&
             (*prev)[static_cast<size_t>(start)] ==
                 e.index[static_cast<size_t>(start)]) {
        ++start;
      }
    }
    for (int l = start; l < n; ++l) {
      out.idx_[static_cast<size_t>(l)].push_back(
          e.index[static_cast<size_t>(l)]);
      if (l < n - 1) counts[static_cast<size_t>(l)].push_back(0);
      if (l > 0) ++counts[static_cast<size_t>(l - 1)].back();
    }
    out.values_.push_back(e.value);
    prev = &e.index;
  }
  for (int l = 0; l < n - 1; ++l) {
    std::vector<int64_t>& ptr = out.ptr_[static_cast<size_t>(l)];
    ptr.reserve(counts[static_cast<size_t>(l)].size() + 1);
    ptr.push_back(0);
    for (int64_t c : counts[static_cast<size_t>(l)]) {
      ptr.push_back(ptr.back() + c);
    }
  }
  return out;
}

CsfTensor CsfTensor::FromDense(const DenseTensor& dense) {
  // FromDense scans in linear (row-major) order, which IS lexicographic
  // order, so the sort inside FromSparse is a no-op pass.
  return FromSparse(SparseTensor::FromDense(dense));
}

CsfTensor CsfTensor::FromLevels(Shape shape,
                                std::vector<std::vector<int64_t>> idx,
                                std::vector<std::vector<int64_t>> ptr,
                                std::vector<double> values) {
  CsfTensor out;
  out.shape_ = std::move(shape);
  out.idx_ = std::move(idx);
  out.ptr_ = std::move(ptr);
  out.values_ = std::move(values);
  return out;
}

SparseTensor CsfTensor::ToSparse() const {
  SparseTensor out(shape_);
  ForEachEntry([&out](const Index& index, double value) {
    out.Add(index, value);
  });
  return out;
}

double CsfTensor::SquaredNorm() const {
  double acc = 0.0;
  for (double v : values_) acc += v * v;
  return acc;
}

DenseTensor CsfTensor::ToDense() const {
  DenseTensor out(shape_);
  ForEachEntry([&out](const Index& index, double value) {
    out.at(index) = value;
  });
  return out;
}

}  // namespace tpcp

// Compressed Sparse Fiber (CSF) tensor: the non-zeros of an N-mode tensor
// stored as a sorted fiber hierarchy.
//
// Level l (one per mode, in mode order) holds one node per distinct
// index-prefix of length l+1 over the lexicographically sorted non-zeros:
//   idx(l)  — the mode-l coordinate of each node,
//   ptr(l)  — for l < N-1, node k's children occupy [ptr(l)[k],
//             ptr(l)[k+1]) in level l+1.
// Leaf nodes (level N-1) align one-to-one with values(). Shared prefixes
// are stored once, so a tensor whose non-zeros cluster into fibers costs
// far fewer index words than COO's N coordinates per entry — and a walk
// streams whole fibers contiguously instead of re-reading full
// coordinates.
//
// Lexicographic order over the non-zeros is exactly row-major (linear)
// order restricted to them, so ForEachEntry visits entries in the same
// order as SparseTensor::FromDense produces — the property that lets the
// CSF MTTKRP replay the dense kernels' accumulation order bit for bit
// (tensor/mttkrp.h).

#ifndef TPCP_TENSOR_CSF_TENSOR_H_
#define TPCP_TENSOR_CSF_TENSOR_H_

#include <utility>
#include <vector>

#include "tensor/sparse_tensor.h"

namespace tpcp {

class CsfTensor {
 public:
  CsfTensor() = default;

  const Shape& shape() const { return shape_; }
  int num_modes() const { return shape_.num_modes(); }
  int64_t dim(int mode) const { return shape_.dim(mode); }
  int64_t nnz() const { return static_cast<int64_t>(values_.size()); }

  int64_t num_nodes(int level) const {
    return static_cast<int64_t>(idx_[static_cast<size_t>(level)].size());
  }
  const std::vector<int64_t>& idx(int level) const {
    return idx_[static_cast<size_t>(level)];
  }
  /// Child ranges for level < num_modes() - 1 (size num_nodes(level) + 1).
  const std::vector<int64_t>& ptr(int level) const {
    return ptr_[static_cast<size_t>(level)];
  }
  const std::vector<double>& values() const { return values_; }

  /// Compresses a COO tensor, entries sorted lexicographically first.
  /// Entries sharing a coordinate merge into one leaf, summed in stored
  /// order as SparseTensor::ToDense sums them, so sibling indices always
  /// strictly increase.
  static CsfTensor FromSparse(const SparseTensor& coo);

  /// Compresses the non-zero cells of a dense tensor.
  static CsfTensor FromDense(const DenseTensor& dense);

  /// Reassembles from explicit level arrays — the deserializer's
  /// constructor. Callers own structural validity: monotone in-range
  /// pointers and strictly increasing sibling indices (the serializer's
  /// reader validates both before calling).
  static CsfTensor FromLevels(Shape shape,
                              std::vector<std::vector<int64_t>> idx,
                              std::vector<std::vector<int64_t>> ptr,
                              std::vector<double> values);

  /// Expands back to COO, entries in lexicographic order.
  SparseTensor ToSparse() const;

  /// Materializes to a dense tensor.
  DenseTensor ToDense() const;

  /// Sum of squared values in leaf order — bit-identical to
  /// DenseTensor::SquaredNorm of ToDense() (zero cells add nothing).
  double SquaredNorm() const;

  /// Visits every non-zero as fn(const Index&, double), in lexicographic
  /// order. The Index reference is reused across calls.
  template <typename Fn>
  void ForEachEntry(Fn&& fn) const {
    const int n = num_modes();
    if (n == 0 || values_.empty()) return;
    Index index(static_cast<size_t>(n));
    Walk(0, 0, num_nodes(0), &index, fn);
  }

 private:
  template <typename Fn>
  void Walk(int level, int64_t begin, int64_t end, Index* index,
            Fn&& fn) const {
    const bool leaf = level == num_modes() - 1;
    const std::vector<int64_t>& ids = idx_[static_cast<size_t>(level)];
    for (int64_t k = begin; k < end; ++k) {
      (*index)[static_cast<size_t>(level)] = ids[static_cast<size_t>(k)];
      if (leaf) {
        fn(static_cast<const Index&>(*index),
           values_[static_cast<size_t>(k)]);
      } else {
        const std::vector<int64_t>& p = ptr_[static_cast<size_t>(level)];
        Walk(level + 1, p[static_cast<size_t>(k)],
             p[static_cast<size_t>(k + 1)], index, fn);
      }
    }
  }

  Shape shape_;
  std::vector<std::vector<int64_t>> idx_;  // one per level
  std::vector<std::vector<int64_t>> ptr_;  // one per non-leaf level
  std::vector<double> values_;
};

}  // namespace tpcp

#endif  // TPCP_TENSOR_CSF_TENSOR_H_

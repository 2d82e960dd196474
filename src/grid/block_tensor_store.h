// On-disk chunked tensor store (the TensorDB/SciDB chunk-store role).
//
// A BlockTensorStore holds one serialized tensor file per grid block.
// Large tensors never need to exist contiguously in memory: producers write
// blocks one at a time, consumers (Phase 1) read them back one at a time.
//
// Blocks are encoded per the store's SlabFormat (dense row-major, sparse
// COO, or compressed sparse fiber) — a store-wide property recorded in the
// manifest. Reads auto-detect the record kind, so any consumer opens any
// format: ReadBlock materializes the same dense bits regardless of
// encoding, and ReadBlockCsf hands sparse slabs to Phase 1 without
// densifying them.

#ifndef TPCP_GRID_BLOCK_TENSOR_STORE_H_
#define TPCP_GRID_BLOCK_TENSOR_STORE_H_

#include <functional>
#include <string>

#include "grid/grid_partition.h"
#include "grid/slab_format.h"
#include "storage/env.h"
#include "tensor/csf_tensor.h"
#include "tensor/dense_tensor.h"
#include "tensor/sparse_tensor.h"
#include "util/status.h"

namespace tpcp {

/// Chunked dense tensor resident in an Env.
class BlockTensorStore {
 public:
  /// Store rooted at `prefix` inside `env`, laid out per `grid`. Legacy
  /// manifest-less construction — prefer Create/Open, which persist and
  /// recover the geometry.
  BlockTensorStore(Env* env, std::string prefix, GridPartition grid,
                   SlabFormat format = SlabFormat::kDense);

  /// Creates a store and writes its versioned MANIFEST so Open can recover
  /// the geometry later. InvalidArgument on a null env, empty prefix or
  /// empty grid.
  static Result<BlockTensorStore> Create(
      Env* env, std::string prefix, GridPartition grid,
      SlabFormat format = SlabFormat::kDense);

  /// Opens an existing store: geometry from `<prefix>/MANIFEST` on the
  /// happy path, falling back to the legacy block-filename scan for
  /// pre-manifest stores (and rewriting the manifest it recovered).
  /// NotFound when neither a manifest nor block files exist.
  static Result<BlockTensorStore> Open(Env* env, std::string prefix);

  const GridPartition& grid() const { return grid_; }
  Env* env() const { return env_; }
  SlabFormat format() const { return format_; }

  /// Writes one block (shape must match the grid geometry for `block`),
  /// encoded per the store's format.
  Status WriteBlock(const BlockIndex& block, const DenseTensor& data);

  /// Reads one block back as a dense tensor, whatever its encoding. The
  /// sparse decodings hold exactly the non-zero cells the dense record
  /// stores, so the returned bits are identical across formats. Phase 1
  /// reads dense slabs this way and sparse ones through ReadBlockCsf; its
  /// factors match across formats because the CSF ALS sweep replays the
  /// dense kernels' accumulation order, not because of this densify.
  Result<DenseTensor> ReadBlock(const BlockIndex& block) const;

  /// Reads one block as a CSF tensor without densifying: CSF records
  /// decode as stored (validated), COO records compress through
  /// CsfTensor::FromSparse, dense records through their non-zero cells.
  Result<CsfTensor> ReadBlockCsf(const BlockIndex& block) const;

  /// Reads one block as a COO tensor without densifying: sparse records
  /// decode directly (CSF expands in lexicographic order), dense records
  /// scan their non-zero cells — in both cases entries arrive in
  /// lexicographic order, so consumers see one canonical entry order
  /// regardless of the store's format.
  Result<SparseTensor> ReadBlockSparse(const BlockIndex& block) const;

  /// True if the block has been written.
  bool HasBlock(const BlockIndex& block) const;

  /// Partitions a fully materialized tensor into the store.
  Status ImportTensor(const DenseTensor& tensor);

  /// Reassembles the full tensor (use only when it fits in memory).
  Result<DenseTensor> ExportTensor() const;

  /// Streams blocks generated cell-by-cell by `gen(global_index)` into the
  /// store without ever materializing the whole tensor — the path used to
  /// build billion-cell inputs.
  Status Generate(const std::function<double(const Index&)>& gen);

  /// File name of a block (exposed for tests and tooling).
  std::string BlockFileName(const BlockIndex& block) const;

  /// Sum of serialized block sizes currently present, in bytes.
  Result<uint64_t> TotalBytes() const;

 private:
  Env* env_;
  std::string prefix_;
  GridPartition grid_;
  SlabFormat format_;
};

}  // namespace tpcp

#endif  // TPCP_GRID_BLOCK_TENSOR_STORE_H_

// Env-resident store of Phase-1 block factors U^(i)_k and Phase-2
// sub-factors A^(i)_(ki).

#ifndef TPCP_CORE_BLOCK_FACTORS_H_
#define TPCP_CORE_BLOCK_FACTORS_H_

#include <string>
#include <vector>

#include "grid/grid_partition.h"
#include "linalg/matrix.h"
#include "parallel/thread_pool.h"
#include "storage/env.h"
#include "util/status.h"

namespace tpcp {

/// Persists the factor matrices of a block-based decomposition.
///
/// Layout inside the Env (one serialized Matrix per file):
///   <prefix>/U_<mode>_<k1>_<k2>_..._<kN>   block factor U^(mode)_k
///   <prefix>/A_<mode>_<part>               sub-factor A^(mode)_(part)
///   <prefix>/S_<mode>_<part>               U-slab of unit <mode, part>
///
/// S is derived: the U^(mode)_l of the slab { l : l_mode = part } stacked
/// in SlabBlocks order, (slab length * partition extent) x rank. Phase-2
/// unit loads read U only through it, so a buffer swap costs two reads
/// (A and S) instead of 1 + Π_{j≠mode} K_j. Writing a block factor deletes the S it
/// feeds, and PackMissingSlabs re-derives every absent S from the U
/// files, so deleting S_* files is always safe.
class BlockFactorStore {
 public:
  /// Legacy manifest-less construction (CHECK-fails on rank < 1) — prefer
  /// Create/Open, which persist and recover the geometry.
  BlockFactorStore(Env* env, std::string prefix, GridPartition grid,
                   int64_t rank);

  /// Creates a store and writes its versioned MANIFEST (kind "factors",
  /// recording grid and rank). InvalidArgument on a null env, empty
  /// prefix, empty grid, or rank < 1.
  static Result<BlockFactorStore> Create(Env* env, std::string prefix,
                                         GridPartition grid, int64_t rank);

  /// Opens an existing factor store from its MANIFEST. NotFound when the
  /// manifest is absent (factor stores have no legacy filename scan: rank
  /// is not recoverable from block-factor names).
  static Result<BlockFactorStore> Open(Env* env, std::string prefix);

  const GridPartition& grid() const { return grid_; }
  int64_t rank() const { return rank_; }
  Env* env() const { return env_; }
  const std::string& prefix() const { return prefix_; }

  /// Writes U^(mode)_block; shape must be (block's mode-extent) x rank.
  /// Deletes the S record of the block's mode-`mode` slab first, so no
  /// packed slab outlives a change to one of its blocks.
  Status WriteBlockFactor(const BlockIndex& block, int mode, const Matrix& u);
  Result<Matrix> ReadBlockFactor(const BlockIndex& block, int mode) const;

  /// Writes A^(mode)_(part); shape must be (partition extent) x rank.
  Status WriteSubFactor(int mode, int64_t part, const Matrix& a);
  Result<Matrix> ReadSubFactor(int mode, int64_t part) const;

  /// Packs every slab whose S record is absent, one unit per task on
  /// `pool` (inline when null). Statuses report in unit order.
  Status PackMissingSlabs(ThreadPool* pool);

  /// Reads the S record of <mode, part> and splits it into the slab's
  /// block factors, in SlabBlocks order. Corruption on a damaged record
  /// or one whose shape does not fit the slab.
  Result<std::vector<Matrix>> ReadSlab(int mode, int64_t part) const;

  /// All block positions in the mode-i slab of partition `part`:
  /// { l in K : l_mode = part }.
  std::vector<BlockIndex> SlabBlocks(int mode, int64_t part) const;

  /// Assembles the full factor A^(mode) by stacking its partitions.
  Result<Matrix> AssembleFullFactor(int mode) const;

  std::string BlockFactorName(const BlockIndex& block, int mode) const;
  std::string SubFactorName(int mode, int64_t part) const;
  std::string SlabName(int mode, int64_t part) const;

 private:
  /// Stacks the slab's block factors into its S record.
  Status PackSlab(int mode, int64_t part);

  Env* env_;
  std::string prefix_;
  GridPartition grid_;
  int64_t rank_;
};

}  // namespace tpcp

#endif  // TPCP_CORE_BLOCK_FACTORS_H_

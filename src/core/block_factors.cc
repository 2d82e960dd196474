#include "core/block_factors.h"

#include "grid/manifest.h"
#include "storage/serializer.h"

namespace tpcp {

BlockFactorStore::BlockFactorStore(Env* env, std::string prefix,
                                   GridPartition grid, int64_t rank)
    : env_(env), prefix_(std::move(prefix)), grid_(std::move(grid)),
      rank_(rank) {
  TPCP_CHECK_GE(rank_, 1);
}

Result<BlockFactorStore> BlockFactorStore::Create(Env* env,
                                                  std::string prefix,
                                                  GridPartition grid,
                                                  int64_t rank) {
  if (env == nullptr) {
    return Status::InvalidArgument("BlockFactorStore requires an Env");
  }
  if (prefix.empty()) {
    return Status::InvalidArgument(
        "BlockFactorStore requires a non-empty prefix");
  }
  if (grid.num_modes() < 1) {
    return Status::InvalidArgument(
        "BlockFactorStore requires a non-empty grid");
  }
  if (rank < 1) {
    return Status::InvalidArgument("factor rank must be >= 1 (got " +
                                   std::to_string(rank) + ")");
  }
  StoreManifest manifest;
  manifest.kind = StoreManifest::kFactorsKind;
  manifest.grid = grid;
  manifest.rank = rank;
  TPCP_RETURN_IF_ERROR(WriteManifest(env, prefix, manifest));
  return BlockFactorStore(env, std::move(prefix), std::move(grid), rank);
}

Result<BlockFactorStore> BlockFactorStore::Open(Env* env,
                                                std::string prefix) {
  if (env == nullptr) {
    return Status::InvalidArgument("BlockFactorStore requires an Env");
  }
  TPCP_ASSIGN_OR_RETURN(const StoreManifest manifest,
                        ReadManifest(env, prefix));
  if (manifest.kind != StoreManifest::kFactorsKind) {
    return Status::InvalidArgument("store at '" + prefix + "' is a " +
                                   manifest.kind + " store");
  }
  return BlockFactorStore(env, std::move(prefix), manifest.grid,
                          manifest.rank);
}

std::string BlockFactorStore::BlockFactorName(const BlockIndex& block,
                                              int mode) const {
  std::string name = prefix_ + "/U_" + std::to_string(mode);
  for (int64_t k : block) {
    name += "_";
    name += std::to_string(k);
  }
  return name;
}

std::string BlockFactorStore::SubFactorName(int mode, int64_t part) const {
  return prefix_ + "/A_" + std::to_string(mode) + "_" + std::to_string(part);
}

std::string BlockFactorStore::SlabName(int mode, int64_t part) const {
  return prefix_ + "/S_" + std::to_string(mode) + "_" + std::to_string(part);
}

Status BlockFactorStore::WriteBlockFactor(const BlockIndex& block, int mode,
                                          const Matrix& u) {
  const int64_t expected_rows =
      grid_.PartitionSize(mode, block[static_cast<size_t>(mode)]);
  if (u.rows() != expected_rows || u.cols() != rank_) {
    return Status::InvalidArgument("block factor shape mismatch");
  }
  const Status dropped =
      env_->DeleteFile(SlabName(mode, block[static_cast<size_t>(mode)]));
  if (!dropped.ok() && !dropped.IsNotFound()) return dropped;
  return WriteMatrix(env_, BlockFactorName(block, mode), u);
}

Result<Matrix> BlockFactorStore::ReadBlockFactor(const BlockIndex& block,
                                                 int mode) const {
  return ReadMatrix(env_, BlockFactorName(block, mode));
}

Status BlockFactorStore::WriteSubFactor(int mode, int64_t part,
                                        const Matrix& a) {
  if (a.rows() != grid_.PartitionSize(mode, part) || a.cols() != rank_) {
    return Status::InvalidArgument("sub-factor shape mismatch");
  }
  return WriteMatrix(env_, SubFactorName(mode, part), a);
}

Result<Matrix> BlockFactorStore::ReadSubFactor(int mode, int64_t part) const {
  return ReadMatrix(env_, SubFactorName(mode, part));
}

Status BlockFactorStore::PackSlab(int mode, int64_t part) {
  const std::vector<BlockIndex> slab = SlabBlocks(mode, part);
  const int64_t rows = grid_.PartitionSize(mode, part);
  Matrix packed(static_cast<int64_t>(slab.size()) * rows, rank_);
  for (size_t j = 0; j < slab.size(); ++j) {
    TPCP_ASSIGN_OR_RETURN(const Matrix u, ReadBlockFactor(slab[j], mode));
    if (u.rows() != rows || u.cols() != rank_) {
      return Status::Corruption(BlockFactorName(slab[j], mode) +
                                " does not have its block's shape");
    }
    packed.SetRows(static_cast<int64_t>(j) * rows, u);
  }
  return WriteMatrix(env_, SlabName(mode, part), packed);
}

Status BlockFactorStore::PackMissingSlabs(ThreadPool* pool) {
  std::vector<std::pair<int, int64_t>> missing;
  for (int mode = 0; mode < grid_.num_modes(); ++mode) {
    for (int64_t part = 0; part < grid_.parts(mode); ++part) {
      if (!env_->FileExists(SlabName(mode, part))) {
        missing.emplace_back(mode, part);
      }
    }
  }
  std::vector<Status> status(missing.size());
  ParallelFor(pool, 0, static_cast<int64_t>(missing.size()), [&](int64_t t) {
    const auto [mode, part] = missing[static_cast<size_t>(t)];
    status[static_cast<size_t>(t)] = PackSlab(mode, part);
  });
  for (const Status& s : status) TPCP_RETURN_IF_ERROR(s);
  return Status::OK();
}

Result<std::vector<Matrix>> BlockFactorStore::ReadSlab(int mode,
                                                       int64_t part) const {
  TPCP_ASSIGN_OR_RETURN(const Matrix packed,
                        ReadMatrix(env_, SlabName(mode, part)));
  const int64_t blocks = grid_.NumBlocks() / grid_.parts(mode);
  const int64_t rows = grid_.PartitionSize(mode, part);
  if (packed.rows() != blocks * rows || packed.cols() != rank_) {
    return Status::Corruption(SlabName(mode, part) +
                              " does not have its slab's shape");
  }
  std::vector<Matrix> u;
  u.reserve(static_cast<size_t>(blocks));
  for (int64_t j = 0; j < blocks; ++j) {
    u.push_back(packed.RowSlice(j * rows, (j + 1) * rows));
  }
  return u;
}

std::vector<BlockIndex> BlockFactorStore::SlabBlocks(int mode,
                                                     int64_t part) const {
  std::vector<BlockIndex> out;
  out.reserve(static_cast<size_t>(grid_.NumBlocks() / grid_.parts(mode)));
  for (const BlockIndex& block : grid_.AllBlocks()) {
    if (block[static_cast<size_t>(mode)] == part) out.push_back(block);
  }
  return out;
}

Result<Matrix> BlockFactorStore::AssembleFullFactor(int mode) const {
  Matrix full(grid_.tensor_shape().dim(mode), rank_);
  for (int64_t part = 0; part < grid_.parts(mode); ++part) {
    TPCP_ASSIGN_OR_RETURN(Matrix a, ReadSubFactor(mode, part));
    full.SetRows(grid_.PartitionOffset(mode, part), a);
  }
  return full;
}

}  // namespace tpcp

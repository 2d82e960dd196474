// Unit-of-data-access catalog (Definition 4).
//
// The buffer is organized in mode-partition pairs ⟨i, ki⟩ holding the
// sub-factor A^(i)_(ki) together with the mode-i block factors
// U^(i)_[*,...,ki,...,*]. Sizes follow the paper's accounting:
//
//   bytes(⟨i,ki⟩) = (|partition ki of mode i| * F) * (1 + Π_{j≠i} K_j) * 8.
//
// The factor store holds a unit as two records, A_<i>_<ki> and the packed
// U-slab S_<i>_<ki> (core/block_factors.h), so loading one costs two reads
// whatever Π_{j≠i} K_j is; the byte count above is unchanged.

#ifndef TPCP_BUFFER_DATA_UNIT_H_
#define TPCP_BUFFER_DATA_UNIT_H_

#include <cstdint>
#include <vector>

#include "grid/grid_partition.h"
#include "schedule/update_schedule.h"

namespace tpcp {

/// Sizes of every data unit for a (grid, rank) configuration.
class UnitCatalog {
 public:
  UnitCatalog(const GridPartition& grid, int64_t rank);

  const GridPartition& grid() const { return grid_; }
  int64_t rank() const { return rank_; }

  /// Bytes of the A-part of ⟨i,ki⟩: |partition| * F * 8.
  uint64_t FactorBytes(const ModePartition& unit) const;

  /// Bytes of the U-slab of ⟨i,ki⟩: Π_{j≠i} K_j block factors.
  uint64_t BlockFactorBytes(const ModePartition& unit) const;

  /// Total bytes of the unit (factor + block factors).
  uint64_t UnitBytes(const ModePartition& unit) const;

  /// Σ over all units — the paper's mem_total (Observation #2).
  uint64_t TotalBytes() const;

  /// Largest single unit — a lower bound for a workable buffer capacity.
  uint64_t MaxUnitBytes() const;

  /// Every ⟨i,ki⟩ pair, mode-major.
  std::vector<ModePartition> AllUnits() const;

  /// Number of blocks in the mode-i slab of partition ki: Π_{j≠i} K_j.
  int64_t SlabBlocks(int mode) const;

 private:
  GridPartition grid_;
  int64_t rank_;
};

}  // namespace tpcp

#endif  // TPCP_BUFFER_DATA_UNIT_H_

#pragma once

// Divide-and-conquer decomposition of the all-pairs workload (paper §4.2).
//
// The workload {(i, j) : 0 <= i < j < n} is the strict upper triangle of an
// n×n matrix. A `Region` is an axis-aligned rectangle intersected with that
// triangle; the root region is the whole triangle and `split()` produces
// the four quadrant sub-regions (empty quadrants are dropped, as in the
// paper's Fig 5). Leaves are regions at or below a configurable pair
// budget; the scheduler turns leaves into comparison jobs.
//
// All functions here are pure and O(1) (except enumeration), which is what
// makes the decomposition cheap enough to re-derive during work-stealing
// instead of materialising a task tree up front.

#include <array>
#include <cstdint>
#include <vector>

namespace rocket::dnc {

using ItemIndex = std::uint32_t;
using PairCount = std::uint64_t;

/// One ordered pair of items to compare.
struct Pair {
  ItemIndex left;   // smaller index
  ItemIndex right;  // larger index
  friend bool operator==(const Pair&, const Pair&) = default;
};

/// Rectangle [row_begin,row_end) × [col_begin,col_end) intersected with the
/// strict upper triangle (row < col).
struct Region {
  ItemIndex row_begin = 0;
  ItemIndex row_end = 0;
  ItemIndex col_begin = 0;
  ItemIndex col_end = 0;
  std::uint32_t depth = 0;  // splits applied from the root

  friend bool operator==(const Region&, const Region&) = default;
};

/// The root region for an n-item problem: all pairs 0 <= i < j < n.
Region root_region(ItemIndex n);

/// Number of (i, j) pairs with i < j inside the region. Closed form, O(1).
PairCount count_pairs(const Region& region);

bool is_empty(const Region& region);

/// Quadrant split. Returns the non-empty quadrants (up to 4), each with
/// depth = region.depth + 1. Splitting a region with <= 1 pair returns it
/// unchanged as its only element.
std::vector<Region> split(const Region& region);

/// Enumerate every pair in the region in row-major order.
template <typename Fn>
void for_each_pair(const Region& region, Fn&& fn) {
  for (ItemIndex i = region.row_begin; i < region.row_end; ++i) {
    const ItemIndex j_start = (i + 1 > region.col_begin) ? i + 1 : region.col_begin;
    for (ItemIndex j = j_start; j < region.col_end; ++j) {
      fn(Pair{i, j});
    }
  }
}

/// Collect the region's pairs into a vector (testing / small leaves).
std::vector<Pair> pairs_of(const Region& region);

/// Distinct items referenced by the region (its working set); this is what
/// bounds the cache footprint of a sub-tree and why divide-and-conquer
/// yields locality: deep regions touch few items.
std::uint64_t working_set_size(const Region& region);

/// Half-open range of item indices; `begin == end` means empty.
struct ItemRange {
  ItemIndex begin = 0;
  ItemIndex end = 0;

  bool empty() const { return begin >= end; }
  std::uint32_t size() const { return empty() ? 0 : end - begin; }
  friend bool operator==(const ItemRange&, const ItemRange&) = default;
};

/// Items that appear on the row (left) side of at least one pair in the
/// region: [row_begin, min(row_end, col_end - 1)).
ItemRange row_items(const Region& region);

/// Items that appear on the column (right) side of at least one pair in the
/// region: [max(col_begin, row_begin + 1), col_end).
ItemRange col_items(const Region& region);

/// Sorted distinct items of the region — the union of row_items and
/// col_items. This is the set a tile job pins before running its
/// compares; its size always equals working_set_size(region).
std::vector<ItemIndex> working_set_items(const Region& region);

/// Static node-level partition of the n-item pair space (the live mesh's
/// initial work distribution; imbalances are corrected at runtime by
/// cross-node stealing). Regions are split largest-first until at least
/// parts × granularity exist (or nothing splits further), then assigned
/// largest-first to the currently lightest part. Deterministic, and the
/// lists' union is exactly the root pair set; parts may be empty when the
/// problem is smaller than the cluster.
std::vector<std::vector<Region>> partition_root(ItemIndex n,
                                                std::uint32_t parts,
                                                std::uint32_t granularity = 4);

}  // namespace rocket::dnc

// Race avoidance for loops with indirect increments, the scheme of the
// paper's OpenMP and SYCL variants of the unstructured applications [23].
//
// An execution plan (OP2's op_plan) cuts the loop's set into contiguous
// blocks of kPlanBlock elements and colors the blocks greedily so that no
// two blocks of one color increment the same target. A Colored loop runs
// the colors in order, the blocks of one color concurrently and the
// elements of a block serially, so the order of the increments into each
// target depends on the plan only, never on the team size. Where the
// blocks would need more than 64 colors (a map whose source elements are
// scattered, like MG-CFD's fine-to-coarse map over permuted cells), the
// plan falls back to one-element blocks, i.e. a classic element coloring.
//
// op2::Runtime builds each plan once and caches it by the process-unique
// ids of the set and the increment maps (see PlanCache).
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "common/types.hpp"
#include "op2/set.hpp"

namespace bwlab::op2 {

/// Elements per plan block. Compile-time: a 64-4096 sweep on MG-CFD's
/// n=96 faces was flat within noise (EXPERIMENTS.md).
inline constexpr idx_t kPlanBlock = 256;

struct Plan {
  idx_t set_size = 0;
  idx_t block_size = 1;             ///< kPlanBlock, or 1 on the fallback
  std::vector<idx_t> blocks;        ///< block ids grouped by color, ascending
  std::vector<idx_t> color_start{0};  ///< num_colors() + 1 offsets into blocks

  int num_colors() const { return static_cast<int>(color_start.size()) - 1; }
  /// Elements [lo, hi) of block `b`.
  std::pair<idx_t, idx_t> block_range(idx_t b) const {
    const idx_t lo = b * block_size;
    return {lo, std::min(lo + block_size, set_size)};
  }

  /// Verifies the plan is race-free for increments through `maps`: the
  /// blocks cover the set exactly once and no two blocks of one color
  /// share a (non -1) target. Test helper.
  bool validate(const std::vector<const Map*>& maps) const;
};

/// Builds the plan for increments through `maps` (all from `from`): greedy
/// first-fit over blocks in order, with the one-element fallback above.
Plan build_plan(const Set& from, const std::vector<const Map*>& maps);

/// Plans of one op2::Runtime, keyed by (set id, sorted distinct map ids).
/// Not thread-safe: a runtime's loops are issued from one thread.
class PlanCache {
 public:
  /// The plan for `maps` over `set`, built (and counted in the
  /// `op2.plans_built` metric) on first use.
  const Plan& get(const Set& set, const std::vector<const Map*>& maps);
  std::size_t size() const { return plans_.size(); }

 private:
  std::map<std::vector<std::uint64_t>, Plan> plans_;
};

/// Per-element coloring: the one-element-block plan as color classes.
struct Coloring {
  int num_colors = 0;
  std::vector<int> color;                   ///< per element
  std::vector<std::vector<idx_t>> by_color; ///< element lists per color

  /// Verifies the coloring is race-free for increments through `maps`:
  /// no two same-colored elements share a (non -1) target. Test helper.
  bool validate(const std::vector<const Map*>& maps) const;
};

/// Colors the elements of `from` so that no two elements of the same color
/// share a target through any of `maps` (all maps must have the same from
/// set). Greedy first-fit in element order.
Coloring color_set(const Set& from, const std::vector<const Map*>& maps);

}  // namespace bwlab::op2

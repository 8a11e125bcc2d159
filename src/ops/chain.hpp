// Lazy loop-chain capture and cache-blocking tiled execution — the
// reproduction of the OPS run-time tiling algorithm (Reguly, Mudalige,
// Giles, TPDS 2017 [21]) evaluated in the paper's Figure 9.
//
// In lazy mode, par_loop enqueues loops instead of executing them. On
// execute_tiled(h):
//  * all dats read anywhere in the chain are halo-exchanged ONCE with deep
//    halos (this is the communication-frequency reduction the paper
//    mentions),
//  * every loop's local range is extended into the halo region by its
//    skew sigma_i, at least the suffix-sum of downstream read radii
//    (redundant computation along MPI boundaries — the paper's stated
//    cost; see execute_tiled for the full dependence rule),
//  * the outermost dimension is cut into tiles of height `h`; tiles are
//    executed in order, and within a tile the loops run in chain order
//    over skewed sub-ranges: loop i is shifted up by sigma_i so every
//    read of an earlier loop's output lands on already-computed rows. The union of a loop's sub-ranges across tiles is exactly its
//    range — no point is executed twice within a rank. Each tile is one
//    region of the rank's thread team: every member walks the tile's
//    loops in order, runs its contiguous slab of each loop's outer rows
//    (ThreadPool::chunk, the static split eager par_loop uses), and waits
//    at a team barrier before the next loop. Loop bodies are strictly
//    serial range executors, so the partition never changes results.
//  * after each producing loop inside each tile, the physical-boundary
//    ghosts mirrored from the rows it just wrote are refilled
//    (Dat::refresh_physical_bcs). Each member refills the ghost columns
//    of the rows it wrote, before the barrier. An outer face is refilled
//    only when the written rows reach the interior rows it mirrors, by
//    member 0 between two barriers. Boundary reads thus observe current
//    values exactly as in untiled execution, at a cost proportional to
//    the tile.
//
// The result is bitwise identical to untiled execution (tested), while
// the traffic of a chain of N loops over a tile that fits in cache is
// served from cache rather than DRAM. A chain needs halo depth
// sigma_0 + r_0 on every dat it reads (recorded as
// TilingRecord::needed_depth); apps size their tiled dats to exactly that.
#pragma once

#include <array>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "ops/access.hpp"
#include "ops/context.hpp"

namespace bwlab::ops {

class Block;

/// Type-erased record of how a chained loop uses one dat.
struct ChainDatUse {
  const void* id = nullptr;  ///< dat identity (address)
  std::string name;
  bool is_read = false;
  bool is_written = false;
  int read_radius = 0;  ///< max stencil radius of the read
  int halo_depth = 0;
  std::array<bool, 3> periodic{false, false, false};
  std::size_t elem_bytes = 0;  ///< sizeof the dat element
  /// Allocated extent (owned + halos) per dimension; the auto-tuner
  /// multiplies the non-tiled extents into a bytes-per-tile-row footprint.
  std::array<idx_t, 3> alloc_extent{1, 1, 1};
  /// Dat::exec_hi per dimension (where mirror BCs fold reads back).
  std::array<idx_t, 3> exec_hi{1, 1, 1};
  std::function<void()> exchange;    ///< Dat::exchange_halos
  std::function<void()> mark_dirty;  ///< Dat::mark_halos_dirty
  /// Dat::refresh_physical_bcs restricted to outer rows [lo, hi).
  std::function<void(idx_t, idx_t, BcFaces)> refresh_bcs;
  /// Dat::outer_bc_source_rows per side: a write to these outer rows
  /// leaves that outer face's ghost strip stale.
  std::array<std::pair<idx_t, idx_t>, 2> outer_bc_rows{};
};

/// One captured loop.
struct ChainLoop {
  std::string name;
  Block* block = nullptr;
  Range range;  ///< global range as supplied by the app
  int read_radius = 0;
  std::vector<ChainDatUse> uses;
  std::function<void(const Range&)> body;  ///< executes exactly the given range
};

class ChainQueue {
 public:
  explicit ChainQueue(Context& ctx) : ctx_(&ctx) {}

  void enqueue(ChainLoop loop);
  std::size_t size() const { return loops_.size(); }
  bool empty() const { return loops_.empty(); }
  void clear() { loops_.clear(); }

  /// Tiled execution (see file header). `tile_outer` is the tile height in
  /// the outermost dimension; pass 0 to auto-tune it: the height is sized
  /// so the chain's per-tile working set (unique dats x bytes per tile
  /// row) fits the context's tile cache budget, floored at the chain's
  /// total stencil extension. Each tile is one region of the context's
  /// thread team, every loop's sub-range split by outer rows; results
  /// stay bitwise identical to untiled execution for every tile height and
  /// team size.
  void execute_tiled(idx_t tile_outer);

 private:
  /// Local range of `loop` extended by `ext` into the halo (redundant
  /// compute). At non-periodic physical edges the extension is clamped to
  /// the loop's global range (boundary ghosts are handled by refresh_bcs);
  /// at periodic edges (wrap[d]) it extends into the ghost region, where
  /// the recomputed values are exactly the periodic images.
  Range extended_local_range(const ChainLoop& loop, int ext,
                             const std::array<bool, 3>& wrap) const;
  void exchange_chain_inputs();
  int min_halo_depth_read() const;
  /// Per-dimension periodicity of the chain (must be uniform over dats).
  std::array<bool, 3> chain_periodicity() const;

  Context* ctx_;
  std::vector<ChainLoop> loops_;
};

/// Called by par_loop in lazy mode.
void enqueue_lazy(Context& ctx, const LoopMeta& meta, Block& b,
                  const Range& range, std::function<void(const Range&)> body,
                  std::vector<ChainDatUse> uses);

/// Tile-height policy of execute_tiled(0): the largest height whose
/// working set (height x bytes_per_row) fits the cache budget, clamped to
/// [min_height, max_height]. min_height is the chain's total stencil
/// extension (a shorter tile would be all skew edge); pure arithmetic so
/// the choice is testable without a machine model.
idx_t auto_tile_height(double bytes_per_row, double cache_budget_bytes,
                       idx_t min_height, idx_t max_height);

}  // namespace bwlab::ops

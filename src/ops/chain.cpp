#include "ops/chain.hpp"

#include <algorithm>
#include <functional>
#include <optional>
#include <set>
#include <string>
#include <utility>

#include "common/metrics.hpp"
#include "common/timer.hpp"
#include "common/trace.hpp"
#include "ops/dat.hpp"

namespace bwlab::ops {

namespace {

// --- bwmem exact data-movement recording (chain executor) ------------------
// Chain bytes are counted ONCE per chain over the extended local ranges
// ext[i] — fixed by the skew analysis, independent of tile height and
// thread-pool size — so the accounting is bitwise deterministic. Reuse
// touches happen per executed (tile, loop, use) on the calling thread,
// with the touch's own moved bytes as its resident footprint, so tiling
// shortens stack distances exactly as it shortens real reuse distances.

/// Dependence radius of read `u` in a loop executing `local`: its stencil
/// radius, widened where the loop runs past the dat's exec range in the
/// outer dimension. That happens only at the physical high edge (a
/// node-range loop reading a cell-centred dat), where a mirror BC folds
/// ghost row exec_hi + m onto interior row exec_hi - 1 - m: the read at
/// row exec_hi + e - 1 then reaches 2e - 1 rows further down than its
/// radius.
int dep_radius(const ChainDatUse& u, const Range& local, int outer_dim) {
  const auto od = static_cast<std::size_t>(outer_dim);
  const idx_t e = local.hi[od] - u.exec_hi[od];
  return u.read_radius + (e > 0 ? static_cast<int>(2 * e - 1) : 0);
}

count_t use_read_bytes(const ChainDatUse& u, const Range& r, int ndims) {
  count_t pts = 1;
  for (int d = 0; d < 3; ++d) {
    idx_t e = r.extent(d);
    if (d < ndims) e += 2 * u.read_radius;
    pts *= static_cast<count_t>(e);
  }
  return pts * u.elem_bytes;
}

count_t use_write_bytes(const ChainDatUse& u, const Range& r) {
  return static_cast<count_t>(r.points()) * u.elem_bytes;
}

count_t use_alloc_bytes(const ChainDatUse& u) {
  count_t b = u.elem_bytes;
  for (int d = 0; d < 3; ++d)
    b *= static_cast<count_t>(u.alloc_extent[static_cast<std::size_t>(d)]);
  return b;
}

count_t use_moved_bytes(const ChainDatUse& u, const Range& r, int ndims) {
  return (u.is_read ? use_read_bytes(u, r, ndims) : 0) +
         (u.is_written ? use_write_bytes(u, r) : 0);
}

}  // namespace

idx_t auto_tile_height(double bytes_per_row, double cache_budget_bytes,
                       idx_t min_height, idx_t max_height) {
  if (max_height < min_height) max_height = min_height;
  idx_t h = max_height;
  if (bytes_per_row > 0 && cache_budget_bytes > 0)
    h = static_cast<idx_t>(cache_budget_bytes / bytes_per_row);
  return std::clamp(h, min_height, max_height);
}

void ChainQueue::enqueue(ChainLoop loop) {
  for (const ChainDatUse& u : loop.uses)
    loop.read_radius = std::max(loop.read_radius, u.read_radius);
  loops_.push_back(std::move(loop));
}

int ChainQueue::min_halo_depth_read() const {
  int depth = 1 << 30;
  for (const ChainLoop& l : loops_)
    for (const ChainDatUse& u : l.uses)
      if (u.is_read) depth = std::min(depth, u.halo_depth);
  return depth;
}

void ChainQueue::exchange_chain_inputs() {
  trace::TraceSpan span(trace::Cat::Halo, "chain.exchange");
  // One deep exchange per dat read anywhere in the chain; exchanging a
  // dat twice is a no-op because the dirty flag clears.
  std::set<const void*> done;
  for (const ChainLoop& l : loops_)
    for (const ChainDatUse& u : l.uses)
      if (u.is_read && done.insert(u.id).second) u.exchange();
}

std::array<bool, 3> ChainQueue::chain_periodicity() const {
  std::array<bool, 3> wrap{false, false, false};
  bool first = true;
  for (const ChainLoop& l : loops_)
    for (const ChainDatUse& u : l.uses) {
      if (first) {
        wrap = u.periodic;
        first = false;
        continue;
      }
      for (int d = 0; d < 3; ++d)
        BWLAB_REQUIRE(wrap[static_cast<std::size_t>(d)] ==
                          u.periodic[static_cast<std::size_t>(d)],
                      "tiled chains require uniform periodicity; dat '"
                          << u.name << "' differs in dim " << d);
    }
  return wrap;
}

Range ChainQueue::extended_local_range(
    const ChainLoop& loop, int ext, const std::array<bool, 3>& wrap) const {
  const Block& b = *loop.block;
  Range out = loop.range;
  for (int d = 0; d < b.ndims(); ++d) {
    const auto ds = static_cast<std::size_t>(d);
    const auto [lo, hi] = b.own_range(d);
    idx_t exec_hi = hi;
    if (b.is_high_edge(d))
      exec_hi = std::max(exec_hi, std::min(loop.range.hi[ds], b.size(d) + 1));
    out.lo[ds] = std::max(loop.range.lo[ds], lo - ext);
    out.hi[ds] = std::min(loop.range.hi[ds], exec_hi + ext);
    if (wrap[ds]) {
      // Periodic: redundant compute continues into the ghost region even
      // at the domain edge (the recomputation IS the wrap image).
      out.lo[ds] = lo - ext;
      out.hi[ds] = exec_hi + ext;
    } else {
      // Never extend past a non-periodic physical domain edge.
      if (b.is_low_edge(d))
        out.lo[ds] = std::max(out.lo[ds], loop.range.lo[ds]);
      if (b.is_high_edge(d))
        out.hi[ds] = std::min(out.hi[ds], loop.range.hi[ds]);
    }
  }
  return out;
}

void ChainQueue::execute_tiled(idx_t tile_outer) {
  BWLAB_REQUIRE(!ctx_->lazy(),
                "disable lazy mode before executing the captured chain");
  if (loops_.empty()) return;
  trace::TraceSpan chain_span(trace::Cat::Region, "chain.tiled");
  const int n = static_cast<int>(loops_.size());

  const std::array<bool, 3> wrap = chain_periodicity();
  int outer_dim = 0;
  for (const ChainLoop& l : loops_)
    outer_dim = std::max(outer_dim, l.block->ndims() - 1);

  // Dependence radius of every read (dep_radius), and per loop the
  // largest of them.
  std::vector<std::vector<int>> dep(static_cast<std::size_t>(n));
  std::vector<int> loop_dep(static_cast<std::size_t>(n), 0);
  for (int i = 0; i < n; ++i) {
    const auto is = static_cast<std::size_t>(i);
    const Range local = extended_local_range(loops_[is], 0, wrap);
    for (const ChainDatUse& u : loops_[is].uses) {
      dep[is].push_back(u.is_read ? dep_radius(u, local, outer_dim) : 0);
      loop_dep[is] = std::max(loop_dep[is], dep[is].back());
    }
  }

  // Skew offsets, built backwards from the last loop. Two dependence
  // families bound sigma_i from below (r: dependence radii):
  //   RAW  — loop j > i reads what i wrote with radius r_j: the chain sum
  //          sigma_i >= sigma_{i+1} + r_{i+1} telescopes to
  //          sigma_i - sigma_j >= r_j for every downstream reader.
  //   WAR  — loop j > i REwrites a dat loop i reads with radius r_i^D:
  //          tile T's pass of loop j must not clobber rows tile T+1's
  //          pass of loop i still reads, so sigma_i >= sigma_j + r_i^D.
  // Monotone non-increasing sigma (implied by the chain sum) also orders
  // same-dat writes correctly (WAW: the later loop's value wins per row).
  std::vector<int> sigma(static_cast<std::size_t>(n), 0);
  for (int i = n - 2; i >= 0; --i) {
    const auto is = static_cast<std::size_t>(i);
    int s = sigma[is + 1] + loop_dep[is + 1];
    for (int j = i + 1; j < n; ++j)
      for (const ChainDatUse& w : loops_[static_cast<std::size_t>(j)].uses) {
        if (!w.is_written) continue;
        for (std::size_t k = 0; k < loops_[is].uses.size(); ++k) {
          const ChainDatUse& r = loops_[is].uses[k];
          if (r.is_read && r.id == w.id)
            s = std::max(s, sigma[static_cast<std::size_t>(j)] + dep[is][k]);
        }
      }
    sigma[is] = s;
  }

  // Halo depth must cover the redundant-compute extension plus the reads
  // of the first loop.
  const int needed_depth =
      sigma[0] + loops_[0].read_radius;
  BWLAB_REQUIRE(min_halo_depth_read() >= needed_depth,
                "tiled chain needs halo depth >= " << needed_depth
                                                   << " on all read dats");

  exchange_chain_inputs();

  // Extended local ranges (redundant compute into halos; extension for
  // loop i must cover everything later loops re-read: ext_i = sigma_i).
  std::vector<Range> ext(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i)
    ext[static_cast<std::size_t>(i)] = extended_local_range(
        loops_[static_cast<std::size_t>(i)], sigma[static_cast<std::size_t>(i)],
        wrap);

  // Tile-boundary axis: spans every loop's extended outer range shifted
  // down by its skew.
  idx_t axis_lo = 1 << 30, axis_hi = -(1LL << 30);
  for (int i = 0; i < n; ++i) {
    const auto& r = ext[static_cast<std::size_t>(i)];
    const auto od = static_cast<std::size_t>(outer_dim);
    axis_lo = std::min(axis_lo, r.lo[od] - sigma[static_cast<std::size_t>(i)]);
    axis_hi = std::max(axis_hi, r.hi[od] - sigma[static_cast<std::size_t>(i)]);
  }
  // Auto-tune the tile height: size the tile so the chain's working set
  // (every unique dat's bytes per outer row, times the height) fits the
  // context's cache budget. The floor is the chain's total stencil
  // extension — a shorter tile would be all skew edge.
  const bool auto_tuned = tile_outer <= 0;
  double row_bytes = 0;
  if (auto_tuned) {
    std::set<const void*> seen;
    for (const ChainLoop& l : loops_)
      for (const ChainDatUse& u : l.uses) {
        if (!seen.insert(u.id).second) continue;
        double bytes = static_cast<double>(u.elem_bytes);
        for (int d = 0; d < outer_dim; ++d)
          bytes *= static_cast<double>(u.alloc_extent[static_cast<std::size_t>(d)]);
        row_bytes += bytes;
      }
    tile_outer = auto_tile_height(row_bytes, ctx_->tile_cache_bytes(),
                                  std::max<idx_t>(needed_depth, 1),
                                  std::max<idx_t>(axis_hi - axis_lo, 1));
  }

  TilingRecord& tiling = ctx_->instr().tiling();
  tiling.chains += 1;
  tiling.tile_height = tile_outer;
  tiling.needed_depth = std::max(tiling.needed_depth, needed_depth);
  tiling.auto_tuned = auto_tuned;
  if (auto_tuned) {
    tiling.row_bytes = row_bytes;
    tiling.cache_budget_bytes = ctx_->tile_cache_bytes();
  }

  // bwmem: count the whole chain's bytes over ext[i] up front (see the
  // recording comment above — this is what makes the accounting invariant
  // under tile height and pool size).
  const bool dm = datmove::enabled();
  if (dm) {
    Instrumentation& ins = ctx_->instr();
    ChainMoveRecord cm;
    cm.tiled = true;
    cm.tile_height = tile_outer;
    std::set<const void*> cm_seen;
    for (int i = 0; i < n; ++i) {
      const ChainLoop& l = loops_[static_cast<std::size_t>(i)];
      const Range& r = ext[static_cast<std::size_t>(i)];
      if (r.empty()) continue;
      const int nd = l.block->ndims();
      ++cm.loops;
      for (const ChainDatUse& u : l.uses) {
        const count_t rb = u.is_read ? use_read_bytes(u, r, nd) : 0;
        const count_t wb = u.is_written ? use_write_bytes(u, r) : 0;
        ins.datmove_add(l.name, u.name, rb, wb);
        ins.datmove_dat(u.name, use_alloc_bytes(u), rb + wb);
        cm.counted_bytes += rb + wb;
        if (cm_seen.insert(u.id).second)
          cm.working_set_bytes += use_alloc_bytes(u);
      }
    }
    ins.datmove_chain(cm);
  }

  // Each tile is one team region. Inside it every member walks the
  // tile's loops in chain order: it runs its slab of the loop's outer rows
  // (ThreadPool::chunk, the eager split; bodies are strictly serial range
  // executors, so any split is bitwise identical to a serial sweep),
  // refills the non-outer-face ghosts of the rows it just wrote, and waits
  // at a team barrier. Where a pass writes rows an outer face mirrors,
  // member 0 then refills that face between two barriers. Bookkeeping
  // (reuse touches, kernel spans, loop times) stays on member 0, in the
  // serial order.
  par::ThreadPool* pool = ctx_->pool();
  const auto od = static_cast<std::size_t>(outer_dim);
  std::vector<LoopRecord*> recs;
  for (const ChainLoop& l : loops_)
    recs.push_back(&ctx_->instr().loop(l.name));
  std::vector<Range> pass(static_cast<std::size_t>(n));
  std::vector<char> outer_stale(static_cast<std::size_t>(n));
  const std::function<void(int)> run_tile = [&](int tid) {
    for (int i = 0; i < n; ++i) {
      const auto is = static_cast<std::size_t>(i);
      const Range& r = pass[is];
      if (r.empty()) continue;
      const ChainLoop& l = loops_[is];
      std::optional<Timer> t;
      std::optional<trace::TraceSpan> span;
      if (tid == 0) {
        if (dm) {
          // Per-tile reuse touches: the footprint between two touches of
          // the same dat is the sum of the tile-sized slices in between.
          const int nd = l.block->ndims();
          for (const ChainDatUse& u : l.uses) {
            const count_t mb = use_moved_bytes(u, r, nd);
            ctx_->instr().datmove_touch(u.id, mb, mb);
          }
        }
        t.emplace();
        span.emplace(trace::Cat::Kernel, l.name);
      }
      const auto [lo, hi] =
          pool != nullptr ? pool->chunk(r.lo[od], r.hi[od], tid)
                          : std::pair{r.lo[od], r.hi[od]};
      if (lo < hi) {
        Range sub = r;
        sub.lo[od] = lo;
        sub.hi[od] = hi;
        l.body(sub);
        // A row's non-outer ghosts mirror that row alone.
        for (const ChainDatUse& u : l.uses)
          if (u.is_written) u.refresh_bcs(lo, hi, BcFaces::NonOuter);
      }
      if (pool != nullptr) pool->barrier();
      if (outer_stale[is]) {
        if (tid == 0)
          for (const ChainDatUse& u : l.uses)
            if (u.is_written)
              u.refresh_bcs(r.lo[od], r.hi[od], BcFaces::Outer);
        if (pool != nullptr) pool->barrier();
      }
      if (tid == 0) {
        span.reset();
        recs[is]->host_seconds += t->elapsed();
      }
    }
  };

  static Counter& tiles =
      MetricsRegistry::global().counter("ops.tiles_executed");
  idx_t tile_idx = 0;
  for (idx_t b0 = axis_lo; b0 < axis_hi; b0 += tile_outer, ++tile_idx) {
    const idx_t b1 = std::min(axis_hi, b0 + tile_outer);
    trace::TraceSpan tile_span(trace::Cat::Tile, "tile",
                               std::to_string(tile_idx));
    trace::counter("tile.start_row", static_cast<double>(b0));
    tiles.inc();
    tiling.tiles += 1;
    for (int i = 0; i < n; ++i) {
      const auto is = static_cast<std::size_t>(i);
      Range& r = pass[is];
      r = ext[is];
      r.lo[od] = std::max(r.lo[od], b0 + sigma[is]);
      r.hi[od] = std::min(r.hi[od], b1 + sigma[is]);
      // Physical-boundary ghosts of freshly written dats must track the
      // interior inside the chain: an outer face is refilled after a pass
      // that writes rows it mirrors (only edge tiles do).
      outer_stale[is] = 0;
      if (r.empty()) continue;
      for (const ChainDatUse& u : loops_[is].uses) {
        if (!u.is_written) continue;
        for (const auto& [src_lo, src_hi] : u.outer_bc_rows)
          if (r.lo[od] < src_hi && r.hi[od] > src_lo) outer_stale[is] = 1;
      }
    }
    if (pool != nullptr)
      pool->run(run_tile);
    else
      run_tile(0);
  }

  for (const ChainLoop& l : loops_)
    for (const ChainDatUse& u : l.uses)
      if (u.is_written) u.mark_dirty();
  if (dm) ctx_->instr().datmove_emit_counter();
  loops_.clear();
}

void enqueue_lazy(Context& ctx, const LoopMeta& meta, Block& b,
                  const Range& range, std::function<void(const Range&)> body,
                  std::vector<ChainDatUse> uses) {
  ChainLoop loop;
  loop.name = meta.name;
  loop.block = &b;
  loop.range = range;
  loop.body = std::move(body);
  loop.uses = std::move(uses);
  ctx.chain().enqueue(std::move(loop));
}

}  // namespace bwlab::ops

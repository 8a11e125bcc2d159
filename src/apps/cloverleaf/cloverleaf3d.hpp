// CloverLeaf 3D reproduction (paper §3(2)): the same staggered-grid
// compressible hydrodynamics as cloverleaf2d extended to three dimensions
// — node-centered velocities (u, v, w), three directional advection
// sweeps, and face loops on all six faces. The 3-D access patterns are
// what the paper calls out as "more complicated" than 2-D (Figure 8's
// >65% vs 75% of peak).
#pragma once

#include "apps/app_common.hpp"

namespace bwlab::apps::clover3d {

/// Halo depth of every field in tiled mode: exactly the step chain's
/// TilingRecord::needed_depth (eager mode uses 2).
constexpr int kTiledHaloDepth = 16;

Result run(const Options& opt);

}  // namespace bwlab::apps::clover3d

// Access descriptors of the mini-OPS structured-mesh DSL: stencils,
// iteration ranges, and loop metadata. Mirrors the role of ops_arg_dat /
// ops_stencil in OPS [22]: the runtime uses these descriptors to trigger
// halo exchanges, compute useful-bytes (Figure 8) and classify loops for
// the performance model.
#pragma once

#include <algorithm>
#include <array>
#include <string>

#include "common/error.hpp"
#include "common/pattern.hpp"
#include "common/types.hpp"

namespace bwlab::ops {

/// Relative-offset footprint of one argument. Only the per-dimension
/// radius matters for halo depth and dependency analysis; the point count
/// is kept for documentation.
struct Stencil {
  std::array<int, 3> radius{0, 0, 0};
  int points = 1;

  /// The 1-point stencil (the point itself).
  static Stencil point() { return {}; }

  /// Star stencil of radius r in `ndims` dimensions (2*ndims*r+1 points).
  static Stencil star(int ndims, int r) {
    Stencil s;
    for (int d = 0; d < ndims; ++d) s.radius[static_cast<std::size_t>(d)] = r;
    s.points = 2 * ndims * r + 1;
    return s;
  }

  /// Box stencil of radius r in `ndims` dimensions ((2r+1)^ndims points).
  static Stencil box(int ndims, int r) {
    Stencil s;
    int pts = 1;
    for (int d = 0; d < ndims; ++d) {
      s.radius[static_cast<std::size_t>(d)] = r;
      pts *= 2 * r + 1;
    }
    s.points = pts;
    return s;
  }

  /// Anisotropic stencil with per-dimension radii.
  static Stencil radii(std::array<int, 3> r, int pts) {
    Stencil s;
    s.radius = r;
    s.points = pts;
    return s;
  }

  int max_radius() const {
    return std::max(radius[0], std::max(radius[1], radius[2]));
  }
};

/// Half-open global iteration range [lo, hi) per dimension. Unused
/// dimensions are [0, 1).
struct Range {
  std::array<idx_t, 3> lo{0, 0, 0};
  std::array<idx_t, 3> hi{1, 1, 1};

  static Range make2d(idx_t x0, idx_t x1, idx_t y0, idx_t y1) {
    return {{x0, y0, 0}, {x1, y1, 1}};
  }
  static Range make3d(idx_t x0, idx_t x1, idx_t y0, idx_t y1, idx_t z0,
                      idx_t z1) {
    return {{x0, y0, z0}, {x1, y1, z1}};
  }

  idx_t extent(int d) const {
    return hi[static_cast<std::size_t>(d)] - lo[static_cast<std::size_t>(d)];
  }
  idx_t points() const { return extent(0) * extent(1) * extent(2); }
  bool empty() const {
    return extent(0) <= 0 || extent(1) <= 0 || extent(2) <= 0;
  }
};

/// Per-loop metadata the app author annotates: a stable name (profile
/// key) and the flop count per grid point (used for roofline placement;
/// transcendentals counted by their polynomial cost).
struct LoopMeta {
  std::string name;
  double flops_per_point = 0.0;
  /// Optional explicit pattern; if unset the runtime infers one from the
  /// argument stencils and the range shape.
  bool has_pattern = false;
  Pattern pattern = Pattern::Streaming;

  LoopMeta(std::string n, double flops)  // NOLINT(google-explicit-constructor)
      : name(std::move(n)), flops_per_point(flops) {}
  LoopMeta(std::string n, double flops, Pattern p)
      : name(std::move(n)), flops_per_point(flops), has_pattern(true),
        pattern(p) {}
};

/// Physical boundary condition applied to ghost cells on faces with no
/// neighbor rank.
enum class Bc {
  None,         ///< leave ghosts untouched
  Periodic,     ///< wrap around the global domain
  CopyNearest,  ///< zero-gradient: copy the nearest interior value
  Reflect,      ///< mirror interior values (scalar reflection)
  ReflectNeg,   ///< mirror with sign flip (normal velocity components)
};

/// Which physical-boundary faces Dat::refresh_physical_bcs refills: both
/// kinds, only the faces normal to the outermost dimension, or only the
/// others (whose ghosts of a row mirror that row alone).
enum class BcFaces { All, Outer, NonOuter };

}  // namespace bwlab::ops

// OpenSBLI SA / SN reproduction [7] (paper §3(4)): 3-D compressible
// Navier-Stokes (Euler fluxes + Laplacian viscosity) on the Taylor-Green
// vortex, 4th-order central differences, SSP-RK3, periodic domain,
// double precision — in the two code-generation variants the paper
// contrasts:
//
//  * SA ("Store All"): every RK stage first evaluates and STORES the 15
//    flux arrays and 4 primitive arrays, then a light divergence kernel
//    consumes them — bandwidth-heavy, flop-light.
//  * SN ("Store None"): one fused kernel re-evaluates fluxes at all 13
//    stencil points on the fly — flop-heavy, bandwidth-light.
//
// Both compute the same residual, so SA == SN field-for-field (to
// round-off) is the core validation, alongside TGV kinetic-energy decay
// and exact mass conservation of the periodic central-difference scheme.
#pragma once

#include "apps/app_common.hpp"

namespace bwlab::apps::opensbli {

enum class Variant { StoreAll, StoreNone };

/// Halo depth of every field in tiled mode: exactly the RK-stage chain's
/// TilingRecord::needed_depth, which differs per variant (SA's stored
/// fluxes add a chain level that SN's fused kernel does not; eager mode
/// uses 2).
constexpr int tiled_halo_depth(Variant v) {
  return v == Variant::StoreAll ? 11 : 4;
}

Result run(const Options& opt, Variant variant);

}  // namespace bwlab::apps::opensbli

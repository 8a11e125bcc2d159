#include "probes.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/timer.hpp"
#include "microbench/babelstream.hpp"
#include "op2/color.hpp"
#include "op2/meshgen.hpp"
#include "op2/par_loop.hpp"
#include "ops/dat.hpp"
#include "ops/par_loop.hpp"
#include "par/simmpi.hpp"
#include "par/thread_pool.hpp"

namespace bwlab::hostbench {

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

namespace {

ProbeStat summarize(const std::vector<double>& samples) {
  return {quantile(samples, 0.5), quantile(samples, 0.99), samples.size()};
}

/// Times `f` `samples` times after `warmup` untimed calls, stopping early
/// once `budget_s` is spent; returns the samples scaled by `unit`.
template <class F>
std::vector<double> time_calls(F&& f, int warmup, int samples,
                               double budget_s, double unit) {
  for (int i = 0; i < warmup; ++i) f();
  std::vector<double> out;
  out.reserve(static_cast<std::size_t>(samples));
  Timer budget;
  for (int i = 0; i < samples && budget.elapsed() < budget_s; ++i) {
    Timer t;
    f();
    out.push_back(t.elapsed() * unit);
  }
  return out;
}

/// BabelStream triad bandwidth on arrays of `n` doubles (GB/s per call).
std::vector<double> triad(std::size_t n, int threads) {
  par::ThreadPool pool(threads);
  micro::BabelStream bs(static_cast<idx_t>(n), pool);
  const double bytes = 3.0 * sizeof(double) * static_cast<double>(n);
  std::vector<double> secs = time_calls([&] { bs.triad(); }, 1, 7, 5.0, 1.0);
  for (double& s : secs) s = bytes / s / 1e9;
  return secs;
}

/// ops::par_loop over an 8x8 range: dispatch cost, the body is a copy.
std::vector<double> ops_small_loop() {
  ops::Context ctx(1);
  ops::Block b(ctx, "probe", 2, {8, 8, 1});
  ops::Dat<double> u(b, "u", 1), v(b, "v", 1);
  u.fill(1.0);
  return time_calls(
      [&] {
        ops::par_loop({"probe_small", 0.0}, b, ops::Range::make2d(0, 8, 0, 8),
                      [](ops::Acc<const double> a, ops::Acc<double> o) {
                        o(0, 0) = a(0, 0);
                      },
                      ops::read(u), ops::write(v));
      },
      200, 4000, 1.0, 1e6);
}

/// Dat::exchange_halos of one depth-2 field on a 4-rank decomposition,
/// timed on rank 0 after a barrier so every sample starts aligned.
std::vector<double> ops_exchange(idx_t n) {
  constexpr int kWarmup = 20, kSamples = 1000;
  std::vector<double> out;
  par::run_ranks(4, [&](par::Comm& comm) {
    ops::Context ctx(comm, 1);
    ops::Block b(ctx, "probe", 2, {n, n, 1});
    ops::Dat<double> u(b, "u", 2);
    u.fill(1.0);
    for (int i = 0; i < kWarmup + kSamples; ++i) {
      comm.barrier();
      u.mark_halos_dirty();
      Timer t;
      u.exchange_halos();
      if (comm.rank() == 0 && i >= kWarmup) out.push_back(t.elapsed() * 1e6);
    }
  });
  return out;
}

/// Dat::refresh_physical_bcs on one field at the tiled executor's halo
/// depth (clover2d's 16).
std::vector<double> ops_refresh_bcs(idx_t n) {
  ops::Context ctx(1);
  ops::Block b(ctx, "probe", 2, {n, n, 1});
  ops::Dat<double> u(b, "u", 16);
  u.fill(1.0);
  return time_calls([&] { u.refresh_physical_bcs(); }, 5, 1000, 1.0, 1e6);
}

/// 2-rank Comm::send/recv round trip of `bytes`, timed on rank 0.
std::vector<double> pingpong(std::size_t bytes) {
  constexpr int kWarmup = 100, kSamples = 2000;
  std::vector<double> out;
  par::run_ranks(2, [&](par::Comm& comm) {
    std::vector<char> buf(bytes, 1);
    for (int i = 0; i < kWarmup + kSamples; ++i) {
      if (comm.rank() == 0) {
        Timer t;
        comm.send(1, 7, buf.data(), bytes);
        comm.recv(1, 7, buf.data(), bytes);
        if (i >= kWarmup) out.push_back(t.elapsed() * 1e6);
      } else {
        comm.recv(0, 7, buf.data(), bytes);
        comm.send(0, 7, buf.data(), bytes);
      }
    }
  });
  return out;
}

/// 4-rank allreduce_sum of one double, timed on rank 0.
std::vector<double> allreduce() {
  constexpr int kWarmup = 100, kSamples = 2000;
  std::vector<double> out;
  par::run_ranks(4, [&](par::Comm& comm) {
    double acc = 0;
    for (int i = 0; i < kWarmup + kSamples; ++i) {
      Timer t;
      acc += comm.allreduce_sum(1.0);
      if (comm.rank() == 0 && i >= kWarmup) out.push_back(t.elapsed() * 1e6);
    }
    if (acc != 4.0 * (kWarmup + kSamples))
      throw Error("allreduce probe: wrong sum");
  });
  return out;
}

/// Empty ThreadPool::parallel_for over one iteration per member.
std::vector<double> forkjoin(int threads) {
  par::ThreadPool pool(threads);
  return time_calls([&] { pool.parallel_for(0, threads, [](idx_t) {}); },
                    200, 5000, 1.0, 1e6);
}

}  // namespace

std::vector<std::pair<std::string, ProbeStat>> run_probes(
    const ProbeSizes& s) {
  std::vector<std::pair<std::string, ProbeStat>> out;
  const auto add = [&](const char* name, const std::vector<double>& v) {
    out.emplace_back(name, summarize(v));
  };
  add("microbench.triad_gbs", triad(s.triad_n, s.threads));
  add("ops.par_loop_small_us", ops_small_loop());
  add("ops.exchange_halos_us", ops_exchange(s.grid_n));
  add("ops.refresh_bcs_us", ops_refresh_bcs(s.grid_n));
  add("par.pingpong_8b_us", pingpong(8));
  add("par.pingpong_32k_us", pingpong(32 * 1024));
  add("par.allreduce_us", allreduce());
  add("par.forkjoin_us", forkjoin(s.threads));

  // op2: mgcfd's fine-mesh shape (n x n x n/2).
  const idx_t ni = s.mesh_n, nk = std::max<idx_t>(s.mesh_n / 2, 2);
  op2::HexMesh mesh;
  add("op2.meshgen_s",
      time_calls([&] { mesh = op2::make_hex_mesh(ni, ni, nk, s.seed); }, 0, 3,
                 5.0, 1.0));
  {
    op2::Set cells("cells", mesh.ncells), faces("faces", mesh.nfaces);
    op2::Map face_cells("face_cells", faces, cells, 2, mesh.face_cells);
    add("op2.color_set_ms",
        time_calls([&] { (void)op2::color_set(faces, {&face_cells}); }, 1, 5,
                   5.0, 1e3));
  }
  {
    // A Colored loop with indirect increments on a small set: recoloring
    // plus one team region per color, the per-call cost Colored pays.
    const op2::HexMesh small = op2::make_hex_mesh(8, 8, 4, s.seed);
    op2::Set cells("cells", small.ncells), faces("faces", small.nfaces);
    op2::Map face_cells("face_cells", faces, cells, 2, small.face_cells);
    op2::Dat<double> w(faces, "w", 1, 1.0), acc(cells, "acc", 1, 0.0);
    op2::Runtime rt(s.threads);
    add("op2.par_loop_small_us",
        time_calls(
            [&] {
              op2::par_loop(
                  rt, {"probe_small", 2.0}, faces, op2::Mode::Colored,
                  [](const double* f, double* a, double* b) {
                    a[0] += f[0];
                    b[0] -= f[0];
                  },
                  op2::read(w), op2::inc_via(acc, face_cells, 0),
                  op2::inc_via(acc, face_cells, 1));
            },
            50, 2000, 1.0, 1e6));
  }
  return out;
}

}  // namespace bwlab::hostbench

// The mini-OP2 parallel loop over an unstructured set, with three
// execution modes mirroring the paper's unstructured lanes:
//
//  * Serial  — elements in order, increments applied directly ("pure MPI"
//              per-process execution),
//  * Vec     — elements in chunks of kVecLanes with explicit gather /
//              local-increment / scatter buffers, the functional analogue
//              of OP2's auto-vectorizing code generation ("MPI vec"): the
//              packed inner loops are unit-stride and vectorizable,
//  * Colored — thread-parallel execution ("MPI+OpenMP"; does not
//              vectorize, as in the paper). A loop with indirect
//              increments runs from the runtime's cached execution plan
//              for its (set, increment maps) (op2/color.hpp): one team
//              region per block color, each member taking a static chunk
//              of that color's blocks. A loop without increments is one
//              static team region over the set.
//
// Kernels receive one pointer per argument (the element's dim-vector),
// `const T*` for reads, `T*` for writes/increments, and `T&` for global
// reductions — the OP2 user-kernel convention.
#pragma once

#include <array>
#include <cmath>
#include <tuple>
#include <vector>

#include "common/fault.hpp"
#include "common/instrument.hpp"
#include "common/live.hpp"
#include "common/metrics.hpp"
#include "common/timer.hpp"
#include "common/trace.hpp"
#include "op2/color.hpp"
#include "op2/set.hpp"
#include "par/thread_pool.hpp"

namespace bwlab::op2 {

/// Vector width of the Vec mode's gather/scatter chunks (doubles per
/// AVX-512 register; the pack/unpack cost the paper discusses scales with
/// this).
inline constexpr idx_t kVecLanes = 8;

/// Max dat dimension supported by the scratch buffers.
inline constexpr int kMaxDim = 16;

enum class Mode { Serial, Vec, Colored };

const char* to_string(Mode m);

/// Per-loop execution environment: thread team, Colored-mode execution
/// plans and instrumentation.
class Runtime {
 public:
  explicit Runtime(int threads = 1) {
    if (threads > 1) pool_ = std::make_unique<par::ThreadPool>(threads);
  }
  par::ThreadPool* pool() { return pool_.get(); }
  int threads() const { return pool_ ? pool_->size() : 1; }
  /// Colored loops look their plans up here; apps may warm them in setup.
  PlanCache& plans() { return plans_; }
  Instrumentation& instr() { return instr_; }
  const Instrumentation& instr() const { return instr_; }

 private:
  std::unique_ptr<par::ThreadPool> pool_;
  PlanCache plans_;
  Instrumentation instr_;
};

/// Loop metadata (name + flops per set element).
struct LoopMeta {
  std::string name;
  double flops_per_elem = 0;
};

// --- Argument descriptors ---------------------------------------------------

template <class T>
struct ArgDRead {
  Dat<T>* d;
};
template <class T>
struct ArgDWrite {
  Dat<T>* d;
};
template <class T>
struct ArgDRW {
  Dat<T>* d;
};
template <class T>
struct ArgIRead {
  Dat<T>* d;
  const Map* m;
  int slot;
};
template <class T>
struct ArgIInc {
  Dat<T>* d;
  const Map* m;
  int slot;
};
template <class T>
struct ArgRedSum {
  T* v;
};
template <class T>
struct ArgRedMax {
  T* v;
};
template <class T>
struct ArgRedMin {
  T* v;
};

template <class T>
ArgDRead<T> read(Dat<T>& d) {
  return {&d};
}
template <class T>
ArgDWrite<T> write(Dat<T>& d) {
  return {&d};
}
template <class T>
ArgDRW<T> read_write(Dat<T>& d) {
  return {&d};
}
template <class T>
ArgIRead<T> read_via(Dat<T>& d, const Map& m, int slot) {
  return {&d, &m, slot};
}
template <class T>
ArgIInc<T> inc_via(Dat<T>& d, const Map& m, int slot) {
  return {&d, &m, slot};
}
template <class T>
ArgRedSum<T> reduce_sum(T& v) {
  return {&v};
}
template <class T>
ArgRedMax<T> reduce_max(T& v) {
  return {&v};
}
template <class T>
ArgRedMin<T> reduce_min(T& v) {
  return {&v};
}

namespace detail {

template <class T>
const T* zero_vec() {
  static const std::array<T, kMaxDim> z{};
  return z.data();
}

// Bound argument states. Each supports:
//   at(e)              — pointer handed to the kernel (Serial/Colored path)
//   begin_chunk(e0, n) — Vec path: gather / zero local buffers
//   at_chunk(e)        — Vec path: pointer into the chunk buffers
//   end_chunk()        — Vec path: scatter increments
//   merge()            — fold thread-local reductions

template <class T, bool Mutable>
struct BoundDirect {
  using elem_t = std::conditional_t<Mutable, T, const T>;
  elem_t* base;
  int dim;
  elem_t* at(idx_t e) const { return base + e * dim; }
  void begin_chunk(idx_t, idx_t) {}
  elem_t* at_chunk(idx_t e) const { return at(e); }
  void end_chunk() {}
  void merge() {}
};

template <class T>
struct BoundIndRead {
  const T* base;
  const Map* map;
  int slot;
  int dim;
  std::vector<T> gathered;  // kVecLanes * dim
  idx_t chunk_e0 = 0;

  const T* at(idx_t e) const {
    const idx_t t = (*map)(e, slot);
    return t >= 0 ? base + t * dim : zero_vec<T>();
  }
  void begin_chunk(idx_t e0, idx_t n) {
    chunk_e0 = e0;
    gathered.resize(static_cast<std::size_t>(kVecLanes * dim));
    for (idx_t l = 0; l < n; ++l) {
      const T* src = at(e0 + l);
      std::copy(src, src + dim, gathered.data() + l * dim);
    }
  }
  const T* at_chunk(idx_t e) const {
    return gathered.data() + (e - chunk_e0) * dim;
  }
  void end_chunk() {}
  void merge() {}
};

template <class T>
struct BoundIndInc {
  T* base;
  const Map* map;
  int slot;
  int dim;
  std::vector<T> local;  // kVecLanes * dim
  idx_t chunk_e0 = 0, chunk_n = 0;
  std::array<T, kMaxDim> discard{};

  T* at(idx_t e) {
    const idx_t t = (*map)(e, slot);
    if (t < 0) {
      discard.fill(T{});
      return discard.data();
    }
    return base + t * dim;
  }
  void begin_chunk(idx_t e0, idx_t n) {
    chunk_e0 = e0;
    chunk_n = n;
    local.assign(static_cast<std::size_t>(kVecLanes * dim), T{});
  }
  T* at_chunk(idx_t e) { return local.data() + (e - chunk_e0) * dim; }
  void end_chunk() {
    for (idx_t l = 0; l < chunk_n; ++l) {
      const idx_t t = (*map)(chunk_e0 + l, slot);
      if (t < 0) continue;
      T* dst = base + t * dim;
      const T* src = local.data() + l * dim;
      for (int c = 0; c < dim; ++c) dst[c] += src[c];
    }
  }
  void merge() {}
};

enum class RedKind { Sum, Max, Min };

template <class T, RedKind K>
struct BoundRed {
  T* target;
  T local;
  T& at(idx_t) { return local; }
  void begin_chunk(idx_t, idx_t) {}
  T& at_chunk(idx_t) { return local; }
  void end_chunk() {}
  void merge() {
    if constexpr (K == RedKind::Sum) *target += local;
    if constexpr (K == RedKind::Max) *target = std::max(*target, local);
    if constexpr (K == RedKind::Min) *target = std::min(*target, local);
  }
};

template <class T>
BoundDirect<T, false> bind(const ArgDRead<T>& a) {
  return {a.d->data(), a.d->dim()};
}
template <class T>
BoundDirect<T, true> bind(const ArgDWrite<T>& a) {
  return {a.d->data(), a.d->dim()};
}
template <class T>
BoundDirect<T, true> bind(const ArgDRW<T>& a) {
  return {a.d->data(), a.d->dim()};
}
template <class T>
BoundIndRead<T> bind(const ArgIRead<T>& a) {
  BWLAB_REQUIRE(a.d->dim() <= kMaxDim, "dat dim exceeds kMaxDim");
  return {a.d->data(), a.m, a.slot, a.d->dim(), {}, 0};
}
template <class T>
BoundIndInc<T> bind(const ArgIInc<T>& a) {
  BWLAB_REQUIRE(a.d->dim() <= kMaxDim, "dat dim exceeds kMaxDim");
  return {a.d->data(), a.m, a.slot, a.d->dim(), {}, 0, 0, {}};
}
template <class T>
BoundRed<T, RedKind::Sum> bind(const ArgRedSum<T>& a) {
  return {a.v, T{}};
}
template <class T>
BoundRed<T, RedKind::Max> bind(const ArgRedMax<T>& a) {
  return {a.v, *a.v};
}
template <class T>
BoundRed<T, RedKind::Min> bind(const ArgRedMin<T>& a) {
  return {a.v, *a.v};
}

// Accounting helpers.
template <class T>
count_t arg_bytes(const ArgDRead<T>& a) {
  return sizeof(T) * static_cast<count_t>(a.d->dim());
}
template <class T>
count_t arg_bytes(const ArgDWrite<T>& a) {
  return sizeof(T) * static_cast<count_t>(a.d->dim());
}
template <class T>
count_t arg_bytes(const ArgDRW<T>& a) {
  return 2 * sizeof(T) * static_cast<count_t>(a.d->dim());
}
template <class T>
count_t arg_bytes(const ArgIRead<T>& a) {
  return sizeof(T) * static_cast<count_t>(a.d->dim()) + sizeof(idx_t);
}
template <class T>
count_t arg_bytes(const ArgIInc<T>& a) {
  // read+write of the target plus the map entry
  return 2 * sizeof(T) * static_cast<count_t>(a.d->dim()) + sizeof(idx_t);
}
template <class A>
count_t arg_bytes(const A&) {
  return 0;
}

template <class T>
const Map* inc_map(const ArgIInc<T>& a) {
  return a.m;
}
template <class A>
const Map* inc_map(const A&) {
  return nullptr;
}

template <class A>
constexpr bool is_indirect(const A&) {
  return false;
}
template <class T>
constexpr bool is_indirect(const ArgIRead<T>&) {
  return true;
}
template <class T>
constexpr bool is_indirect(const ArgIInc<T>&) {
  return true;
}

template <class A>
constexpr bool is_inc(const A&) {
  return false;
}
template <class T>
constexpr bool is_inc(const ArgIInc<T>&) {
  return true;
}

// bwmem exact data-movement recording: unstructured loops touch every
// element once, so counted bytes are descriptor × set-size products.
// Indirect map-index bytes are attributed to the target dat's record so
// counted totals match arg_bytes exactly (zero drift by construction).
template <class T>
void datmove_acc(Instrumentation& ins, const std::string& loop, Dat<T>& d,
                 count_t read_b, count_t write_b) {
  ins.datmove_add(loop, d.name(), read_b, write_b);
  ins.datmove_dat(d.name(),
                  static_cast<count_t>(d.size_flat()) * sizeof(T),
                  read_b + write_b);
  ins.datmove_touch(&d, read_b + write_b, read_b + write_b);
}

template <class T>
void datmove_record(Instrumentation& ins, const std::string& loop, idx_t n,
                    const ArgDRead<T>& a) {
  const count_t b =
      sizeof(T) * static_cast<count_t>(a.d->dim()) * static_cast<count_t>(n);
  datmove_acc(ins, loop, *a.d, b, 0);
}
template <class T>
void datmove_record(Instrumentation& ins, const std::string& loop, idx_t n,
                    const ArgDWrite<T>& a) {
  const count_t b =
      sizeof(T) * static_cast<count_t>(a.d->dim()) * static_cast<count_t>(n);
  datmove_acc(ins, loop, *a.d, 0, b);
}
template <class T>
void datmove_record(Instrumentation& ins, const std::string& loop, idx_t n,
                    const ArgDRW<T>& a) {
  const count_t b =
      sizeof(T) * static_cast<count_t>(a.d->dim()) * static_cast<count_t>(n);
  datmove_acc(ins, loop, *a.d, b, b);
}
template <class T>
void datmove_record(Instrumentation& ins, const std::string& loop, idx_t n,
                    const ArgIRead<T>& a) {
  const count_t b =
      sizeof(T) * static_cast<count_t>(a.d->dim()) * static_cast<count_t>(n);
  const count_t map_b = sizeof(idx_t) * static_cast<count_t>(n);
  datmove_acc(ins, loop, *a.d, b + map_b, 0);
}
template <class T>
void datmove_record(Instrumentation& ins, const std::string& loop, idx_t n,
                    const ArgIInc<T>& a) {
  const count_t b =
      sizeof(T) * static_cast<count_t>(a.d->dim()) * static_cast<count_t>(n);
  const count_t map_b = sizeof(idx_t) * static_cast<count_t>(n);
  datmove_acc(ins, loop, *a.d, b + map_b, b);
}
template <class A>
void datmove_record(Instrumentation&, const std::string&, idx_t, const A&) {}

// NaN/Inf field guard (bwfault): scans dats a loop wrote or incremented.
template <class T>
void guard_scan(const std::string& loop, const Dat<T>& d) {
  if constexpr (std::is_floating_point_v<T>) {
    const T* p = d.data();
    const idx_t n = d.size_flat();
    long long first = -1, bad = 0;
    for (idx_t x = 0; x < n; ++x)
      if (!std::isfinite(p[static_cast<std::size_t>(x)])) {
        if (first < 0) first = x;
        ++bad;
      }
    if (bad > 0) fault::report_nonfinite(loop, d.name(), first, bad);
  }
}
template <class T>
void guard_check(const std::string& loop, const ArgDWrite<T>& a) {
  guard_scan(loop, *a.d);
}
template <class T>
void guard_check(const std::string& loop, const ArgDRW<T>& a) {
  guard_scan(loop, *a.d);
}
template <class T>
void guard_check(const std::string& loop, const ArgIInc<T>& a) {
  guard_scan(loop, *a.d);
}
template <class A>
void guard_check(const std::string&, const A&) {}

/// Colored mode (see file header). Bound argument states are made once per
/// call, one per team member, and merged after the last color.
template <class Kernel, class... Args>
void run_colored(Runtime& rt, const Set& set, Kernel& kernel,
                 const Args&... args) {
  std::vector<const Map*> maps;
  (
      [&] {
        if (const Map* m = inc_map(args)) maps.push_back(m);
      }(),
      ...);
  par::ThreadPool* pool = rt.pool();
  using BoundTuple = decltype(std::make_tuple(bind(args)...));
  std::vector<BoundTuple> bound(static_cast<std::size_t>(rt.threads()),
                                std::make_tuple(bind(args)...));
  const auto run_elements = [&](BoundTuple& b, idx_t lo, idx_t hi) {
    for (idx_t e = lo; e < hi; ++e)
      std::apply([&](auto&... bs) { kernel(bs.at(e)...); }, b);
  };
  if (maps.empty()) {
    const idx_t n = set.size();
    if (pool == nullptr || n < 2) {
      run_elements(bound[0], 0, n);
    } else {
      pool->run([&](int tid) {
        const auto [lo, hi] = pool->chunk(0, n, tid);
        run_elements(bound[static_cast<std::size_t>(tid)], lo, hi);
      });
    }
  } else {
    const Plan& plan = rt.plans().get(set, maps);
    const auto run_blocks = [&](BoundTuple& b, idx_t x0, idx_t x1) {
      for (idx_t x = x0; x < x1; ++x) {
        const auto [lo, hi] =
            plan.block_range(plan.blocks[static_cast<std::size_t>(x)]);
        run_elements(b, lo, hi);
      }
    };
    for (int c = 0; c < plan.num_colors(); ++c) {
      const idx_t x0 = plan.color_start[static_cast<std::size_t>(c)];
      const idx_t x1 = plan.color_start[static_cast<std::size_t>(c) + 1];
      if (pool == nullptr || x1 - x0 < 2) {
        run_blocks(bound[0], x0, x1);
        continue;
      }
      pool->run([&](int tid) {
        const auto [lo, hi] = pool->chunk(x0, x1, tid);
        run_blocks(bound[static_cast<std::size_t>(tid)], lo, hi);
      });
    }
  }
  for (auto& b : bound)
    std::apply([](auto&... bs) { (bs.merge(), ...); }, b);
}

}  // namespace detail

/// Executes `kernel` once per element of `set`. See file header for modes.
/// The loop's time and trace span cover the whole call, including a
/// Colored loop's first-use plan build.
template <class Kernel, class... Args>
void par_loop(Runtime& rt, const LoopMeta& meta, const Set& set, Mode mode,
              Kernel&& kernel, Args... args) {
  Timer t;
  trace::TraceSpan span(trace::Cat::Kernel, meta.name);
  if (mode == Mode::Colored) {
    detail::run_colored(rt, set, kernel, args...);
    record(rt, meta, set, t.elapsed(), args...);
    return;
  }
  auto bound = std::make_tuple(detail::bind(args)...);
  const idx_t n = set.size();
  if (mode == Mode::Serial) {
    for (idx_t e = 0; e < n; ++e)
      std::apply([&](auto&... bs) { kernel(bs.at(e)...); }, bound);
  } else {  // Vec
    for (idx_t e0 = 0; e0 < n; e0 += kVecLanes) {
      const idx_t len = std::min(kVecLanes, n - e0);
      std::apply([&](auto&... bs) { (bs.begin_chunk(e0, len), ...); }, bound);
      for (idx_t e = e0; e < e0 + len; ++e)
        std::apply([&](auto&... bs) { kernel(bs.at_chunk(e)...); }, bound);
      std::apply([&](auto&... bs) { (bs.end_chunk(), ...); }, bound);
    }
  }
  std::apply([](auto&... bs) { (bs.merge(), ...); }, bound);
  record(rt, meta, set, t.elapsed(), args...);
}

/// Per-call instrumentation of par_loop.
template <class... Args>
void record(Runtime& rt, const LoopMeta& meta, const Set& set,
            seconds_t elapsed, const Args&... args) {
  LoopRecord& rec = rt.instr().loop(meta.name);
  ++rec.calls;
  rec.points += static_cast<count_t>(set.size());
  count_t bytes_pp = 0;
  ((bytes_pp += detail::arg_bytes(args)), ...);
  rec.bytes += bytes_pp * static_cast<count_t>(set.size());
  live::on_loop_bytes(bytes_pp * static_cast<count_t>(set.size()));
  rec.flops += meta.flops_per_elem * static_cast<double>(set.size());
  rec.host_seconds += elapsed;
  rec.ndims = 1;
  const bool any_inc = (detail::is_inc(args) || ...);
  const bool any_ind = (detail::is_indirect(args) || ...);
  rec.pattern = any_inc ? Pattern::GatherScatter
                        : (any_ind ? Pattern::Indirect : Pattern::Streaming);
  if (datmove::enabled() && set.size() > 0) {
    (detail::datmove_record(rt.instr(), meta.name, set.size(), args), ...);
    rt.instr().datmove_emit_counter();
  }
  static Counter& invocations =
      MetricsRegistry::global().counter("op2.loop_invocations");
  static Histogram& seconds =
      MetricsRegistry::global().histogram("op2.kernel_seconds");
  invocations.inc();
  seconds.observe(elapsed);
  if (fault::nan_policy() != fault::NanPolicy::Off)
    (detail::guard_check(meta.name, args), ...);
}

}  // namespace bwlab::op2

// hostbench: the bwlab host benchmark. One process runs one workload:
//
//   hostbench --workload clover2d-mpi4 --seed 1 --seconds 10 --trace 0
//
// --trace 0 measures the end-to-end metrics from untraced app calls;
// --trace 1 measures the per-layer metrics (app counters, layer probes
// and a separate traced run). Both check every app call against a
// serial eager reference of the same problem. The last stdout line is
// one JSON object {correct, attempted, failed, metrics}. Workloads,
// metrics and the layer -> end-to-end map: hostbench/README.md.
//
// Self-test knobs: --tiny (small problems), --corrupt-reference (every
// checksum comparison must fail), --trace-buffer N (events per thread).
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/timer.hpp"
#include "common/trace.hpp"
#include "core/datmove.hpp"
#include "par/thread_pool.hpp"
#include "probes.hpp"
#include "workload.hpp"

using namespace bwlab;
using namespace bwlab::hostbench;

namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 10;
  int trace = 0;
  bool tiny = false;
  bool corrupt_reference = false;
  std::size_t trace_buffer = std::size_t{1} << 21;
  std::string out_dir = ".bench_build/hostbench/out";
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "hostbench: " << why << "\n"
            << "usage: hostbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--tiny] [--corrupt-reference] "
               "[--trace-buffer EVENTS] [--out-dir DIR]\n  workloads:";
  for (const std::string& n : workload_names()) std::cerr << " " << n;
  std::cerr << "\n";
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value for " + k);
      return argv[++i];
    };
    try {
      if (k == "--workload") {
        a.workload = value();
        have_workload = true;
      } else if (k == "--seed") {
        a.seed = std::stoull(value());
      } else if (k == "--seconds") {
        a.seconds = std::stoi(value());
      } else if (k == "--trace") {
        a.trace = std::stoi(value());
      } else if (k == "--trace-buffer") {
        a.trace_buffer = std::stoull(value());
      } else if (k == "--out-dir") {
        a.out_dir = value();
      } else if (k == "--tiny") {
        a.tiny = true;
      } else if (k == "--corrupt-reference") {
        a.corrupt_reference = true;
      } else {
        usage("unknown argument " + k);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + k);
    }
  }
  if (!have_workload) usage("--workload is required");
  bool known = false;
  for (const std::string& n : workload_names()) known |= n == a.workload;
  if (!known) usage("unknown workload '" + a.workload + "'");
  if (a.seconds < 1 || a.seconds > 600) usage("--seconds must be 1..600");
  if (a.trace != 0 && a.trace != 1) usage("--trace must be 0 or 1");
  return a;
}

// --- Per-call counters -------------------------------------------------------

/// What one app call reports about its layers (apps::Result plus the
/// process-wide pool census delta). Rank-0 records unless noted.
struct Counters {
  double loop_calls = 0;
  double loop_bytes = 0;  ///< OPS/OP2-convention bytes
  double loop_s = 0;      ///< sum of LoopRecord::host_seconds
  double halo_exchanges = 0;
  double halo_bytes = 0;
  double msgs = 0;       ///< all ranks
  double msg_bytes = 0;  ///< all ranks
  double comm_s = 0;     ///< blocked seconds, all ranks
  double tiles = 0;
  double tile_height = 0;
  double pool_regions = 0;  ///< parallel regions, process-wide
};

Counters counters_of(const apps::Result& r, long long regions) {
  Counters c;
  for (const LoopRecord* l : r.instr.loops_in_order()) {
    c.loop_calls += static_cast<double>(l->calls);
    c.loop_bytes += static_cast<double>(l->bytes);
    c.loop_s += l->host_seconds;
  }
  for (const ExchangeRecord* e : r.instr.exchanges()) {
    c.halo_exchanges += static_cast<double>(e->exchanges);
    c.halo_bytes += static_cast<double>(e->bytes);
  }
  for (const par::RankStats& s : r.rank_stats) {
    c.msgs += static_cast<double>(s.messages_sent);
    c.msg_bytes += static_cast<double>(s.payload_bytes_sent);
    c.comm_s += s.comm_seconds;
  }
  c.tiles = static_cast<double>(r.instr.tiling().tiles);
  c.tile_height = static_cast<double>(r.instr.tiling().tile_height);
  c.pool_regions = static_cast<double>(regions);
  return c;
}

// --- Traced-call aggregates --------------------------------------------------

constexpr std::array<trace::Cat, 5> kSelfCats = {
    trace::Cat::Kernel, trace::Cat::Halo, trace::Cat::Comm, trace::Cat::Tile,
    trace::Cat::Region};
constexpr std::array<const char*, 5> kCpBuckets = {
    "kernel", "halo_pack", "comm_wait", "imbalance", "other"};

struct TraceStats {
  std::array<double, 5> self_s{};  ///< rank-0 main-track self time, kSelfCats
  double events = 0;
  double late_sender_s = 0;
  double collective_s = 0;
  std::array<double, 5> cp_frac{};  ///< critical-path shares, kCpBuckets
  bool shares_sum_to_one = true;
};

TraceStats trace_stats(const std::vector<trace::TrackView>& tracks,
                       const core::causal::Report& causal) {
  TraceStats s;
  for (const trace::TrackView& t : tracks) {
    s.events += static_cast<double>(t.events.size());
    if (t.rank != 0 || t.tid != 0) continue;
    // Self time = span duration minus the time its child spans cover.
    struct Open {
      trace::Cat cat;
      std::uint64_t begin;
      std::uint64_t child_ns;
    };
    std::vector<Open> stack;
    for (const trace::EventView& e : t.events) {
      if (e.ph == 'B') {
        stack.push_back({e.cat, e.ts_ns, 0});
      } else if (e.ph == 'E' && !stack.empty()) {
        const Open o = stack.back();
        stack.pop_back();
        const std::uint64_t dur = e.ts_ns - o.begin;
        for (std::size_t i = 0; i < kSelfCats.size(); ++i)
          if (kSelfCats[i] == o.cat)
            s.self_s[i] += static_cast<double>(dur - o.child_ns) * 1e-9;
        if (!stack.empty()) stack.back().child_ns += dur;
      }
    }
  }
  for (const core::causal::RankWaits& w : causal.rank_waits) {
    s.late_sender_s += w.late_sender_s;
    s.collective_s += w.collective_s;
  }
  const core::causal::CriticalPath& cp = causal.path;
  if (cp.length_s > 0) {
    double sum = 0;
    for (const auto& [bucket, secs] : cp.bucket_s) sum += secs;
    s.shares_sum_to_one = std::abs(sum / cp.length_s - 1.0) < 1e-9;
    for (std::size_t i = 0; i < kCpBuckets.size(); ++i) {
      const auto it = cp.bucket_s.find(kCpBuckets[i]);
      if (it != cp.bucket_s.end()) s.cp_frac[i] = it->second / cp.length_s;
    }
  }
  return s;
}

// --- One sample: setup call, full call, post-run -----------------------------

struct Sample {
  bool completed = false;  ///< no call threw
  bool ok = false;         ///< completed, checksum matched, nothing dropped
  double setup_s = 0;      ///< outside wall of the zero-step call
  double call_s = 0;       ///< outside wall of the full call
  double step_s = 0;       ///< the app's own step-phase timer
  Counters setup, full;
  PostRun post;
  TraceStats setup_trace, full_trace;
};

struct Ctx {
  const Args& args;
  const Workload& w;
  double reference = 0;
  std::string trace_path;
  long long attempted = 0;
  long long failed = 0;
};

/// One timed app call under `a`; true when no trace event was dropped.
bool timed_call(const Workload& w, const apps::Options& opt, Arming a,
                std::size_t trace_buffer, apps::Result& r, double& wall,
                long long& regions) {
  arm(a, trace_buffer);
  const long long r0 = par::pool_census().regions;
  Timer t;
  r = run_app(w, opt);
  wall = t.elapsed();
  regions = par::pool_census().regions - r0;
  return a == Arming::Off || trace::dropped_events() == 0;
}

void disarm() {
  trace::disable();
  core::DataMoveProfiler::disable();
}

Sample run_sample(Ctx& c, Arming a, bool want_trace) {
  Sample s;
  ++c.attempted;
  try {
    apps::Options zero = c.w.opt;
    zero.iterations = 0;
    apps::Result r0;
    long long reg0 = 0;
    bool clean = timed_call(c.w, zero, a, c.args.trace_buffer, r0, s.setup_s,
                            reg0);
    disarm();
    s.setup = counters_of(r0, reg0);
    if (want_trace && a != Arming::Off)
      s.setup_trace =
          trace_stats(trace::snapshot(), core::causal::analyze_live());

    apps::Result r;
    long long reg = 0;
    clean &= timed_call(c.w, c.w.opt, a, c.args.trace_buffer, r, s.call_s,
                        reg);
    s.post = post_run(c.w, r, a, c.trace_path);
    s.step_s = r.elapsed;
    s.full = counters_of(r, reg);
    if (want_trace && a != Arming::Off) {
      s.full_trace = trace_stats(trace::snapshot(), s.post.causal);
      clean &= s.full_trace.shares_sum_to_one;
    }
    s.completed = true;
    s.ok = clean && checksum_matches(c.w, r.checksum, c.reference);
  } catch (const std::exception& e) {
    disarm();
    std::cerr << "app call failed: " << e.what() << "\n";
  }
  if (!s.ok) ++c.failed;
  return s;
}

/// Samples under `a` until `seconds` have passed (at least `min_samples`).
std::vector<Sample> sample_for(Ctx& c, Arming a, bool want_trace,
                               double seconds, int min_samples) {
  std::vector<Sample> out;
  Timer window;
  while (static_cast<int>(out.size()) < min_samples ||
         window.elapsed() < seconds)
    out.push_back(run_sample(c, a, want_trace));
  return out;
}

// --- Peak RSS of one user-visible run, in a child process --------------------

struct ChildResult {
  double checksum = 0;
  int clean = 0;  ///< completed without dropping trace events
};

/// Forks a child that makes one full app call plus its post-run and
/// returns the child's peak resident set (MiB). Must run before this
/// process starts any thread.
double rss_of_one_run(Ctx& c, Arming a, ChildResult& res) {
  std::cout.flush();
  std::cerr.flush();
  int fds[2];
  if (pipe(fds) != 0) throw Error("pipe failed");
  const pid_t pid = fork();
  if (pid < 0) throw Error("fork failed");
  if (pid == 0) {
    close(fds[0]);
    ChildResult out;
    try {
      apps::Result r;
      double wall = 0;
      long long reg = 0;
      const bool clean =
          timed_call(c.w, c.w.opt, a, c.args.trace_buffer, r, wall, reg);
      post_run(c.w, r, a, c.trace_path);
      out.checksum = r.checksum;
      out.clean = clean ? 1 : 0;
    } catch (...) {
      out.clean = 0;
    }
    const ssize_t n = write(fds[1], &out, sizeof out);
    _exit(n == static_cast<ssize_t>(sizeof out) ? 0 : 1);
  }
  close(fds[1]);
  res = ChildResult{};
  ssize_t got = 0;
  do {
    got = read(fds[0], &res, sizeof res);
  } while (got < 0 && errno == EINTR);
  close(fds[0]);
  if (got != static_cast<ssize_t>(sizeof res)) res.clean = 0;
  int status = 0;
  struct rusage ru {};
  while (wait4(pid, &status, 0, &ru) < 0 && errno == EINTR) {
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) res.clean = 0;
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB -> MiB
}

// --- Output ------------------------------------------------------------------

struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
  std::string note;  ///< sample count / spread, human-readable only
};

double med(const std::vector<double>& v) { return quantile(v, 0.5); }

/// "median of n=.." plus the highest tail percentile with at least ten
/// samples beyond it, when the sample count allows one.
std::string timing_note(const std::vector<double>& v) {
  std::ostringstream os;
  os << "median of n=" << v.size();
  const double n = static_cast<double>(v.size());
  for (const double p : {0.999, 0.99, 0.95, 0.90}) {
    if (n * (1.0 - p) >= 10.0) {
      os << ", p" << p * 100 << "=" << quantile(v, p);
      return os.str();
    }
  }
  os << "; no tail percentile (needs n >= 100)";
  return os.str();
}

void print_result(const std::vector<Metric>& metrics, long long attempted,
                  long long failed, bool correct) {
  std::cout << std::setprecision(6);
  for (const Metric& m : metrics)
    std::cout << "metric " << m.name << " = " << m.value << " " << m.unit
              << (m.note.empty() ? "" : "  (" + m.note + ")") << "\n";
  const double fail_frac =
      attempted > 0 ? static_cast<double>(failed) / attempted : 1.0;
  std::cout << "fail_frac = " << fail_frac << " (" << failed << " of "
            << attempted << " app calls failed)\n";
  std::cout << std::setprecision(17) << "{\"correct\": "
            << (correct ? "true" : "false") << ", \"attempted\": "
            << attempted << ", \"failed\": " << failed
            << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0;
    std::cout << (i ? ", " : "") << "\"" << metrics[i].name
              << "\": {\"value\": " << v << ", \"unit\": \""
              << metrics[i].unit << "\"}";
  }
  std::cout << "}}" << std::endl;
}

template <class F>
std::vector<double> collect(const std::vector<Sample>& ss, F&& f) {
  std::vector<double> v;
  for (const Sample& s : ss)
    if (s.completed) v.push_back(f(s));
  return v;
}

std::vector<Metric> end_to_end(const Ctx& c, const std::vector<Sample>& ss,
                               double rss_mb) {
  const double steps = c.w.opt.iterations;
  const auto setup = collect(ss, [](const Sample& s) { return s.setup_s; });
  const double setup_med = med(setup);
  const auto wall =
      collect(ss, [](const Sample& s) { return s.call_s + s.post.total_s; });
  // Over the step phase as the app times it (Result::elapsed): the
  // outside wall of a multi-rank call is rounded up to par::run_ranks's
  // 100 ms watchdog poll, so "call wall - setup_s" would read the poll.
  const auto mcups = collect(ss, [&](const Sample& s) {
    return c.w.cells * steps / std::max(s.step_s, 1e-9) / 1e6;
  });
  const auto post = collect(ss, [](const Sample& s) { return s.post.total_s; });
  return {
      {"wall_s", "s", med(wall), timing_note(wall)},
      {"mcups", "Mcell/s", med(mcups), timing_note(mcups)},
      {"setup_s", "s", setup_med, timing_note(setup)},
      {"post_s", "s", med(post), timing_note(post)},
      {"peak_rss_mb", "MiB", rss_mb, "one run in a child process"},
  };
}

std::vector<Metric> per_layer(
    const Ctx& c, const std::vector<Sample>& untraced,
    const std::vector<Sample>& traced,
    const std::vector<std::pair<std::string, ProbeStat>>& probes,
    double serial_mcups) {
  const Workload& w = c.w;
  const double steps = w.opt.iterations;
  const double ranks = w.opt.ranks;
  const bool op2 = w.app == "mgcfd";
  // Exact counts repeat call to call; take them from the first sample.
  Counters d;  // per-step deltas: full call minus setup call
  Counters full;
  for (const Sample& s : untraced) {
    if (!s.completed) continue;
    full = s.full;
    d.loop_calls = (s.full.loop_calls - s.setup.loop_calls) / steps;
    d.loop_bytes = (s.full.loop_bytes - s.setup.loop_bytes) * ranks / steps;
    d.halo_exchanges = (s.full.halo_exchanges - s.setup.halo_exchanges) / steps;
    d.halo_bytes = (s.full.halo_bytes - s.setup.halo_bytes) / steps;
    d.msgs = (s.full.msgs - s.setup.msgs) / steps;
    d.msg_bytes = (s.full.msg_bytes - s.setup.msg_bytes) / steps;
    d.tiles = (s.full.tiles - s.setup.tiles) / steps;
    d.pool_regions = (s.full.pool_regions - s.setup.pool_regions) / steps;
    break;
  }
  const auto eff = collect(untraced, [&](const Sample& s) {
    return d.loop_bytes * steps /
           std::max(s.full.loop_s - s.setup.loop_s, 1e-12) / 1e9;
  });
  const auto loop_frac = collect(untraced, [](const Sample& s) {
    return (s.full.loop_s - s.setup.loop_s) / std::max(s.step_s, 1e-12);
  });
  const auto blocked = collect(untraced, [&](const Sample& s) {
    return (s.full.comm_s - s.setup.comm_s) /
           (ranks * std::max(s.step_s, 1e-12));
  });
  double triad = 0;
  for (const auto& [name, st] : probes)
    if (name == "microbench.triad_gbs") triad = st.p50;

  std::vector<Metric> m;
  const auto add = [&](std::string name, std::string unit, double v,
                       std::string note = {}) {
    m.push_back({std::move(name), std::move(unit), v, std::move(note)});
  };
  add("microbench.triad_gbs", "GB/s", triad);
  add("serial.mcups", "Mcell/s", serial_mcups,
      "single-rank single-thread eager reference");
  add("kernel.bytes_per_step", "bytes", d.loop_bytes,
      "computed, rank 0 x ranks");
  add("kernel.eff_gbs", "GB/s", med(eff), timing_note(eff));
  add("kernel.roof_frac", "fraction", triad > 0 ? med(eff) / triad : 0);
  add("kernel.loop_s_frac", "fraction", med(loop_frac));
  add("ops.loop_calls_per_step", "count", op2 ? 0 : d.loop_calls);
  add("ops.halo_exchanges_per_step", "count", d.halo_exchanges);
  add("ops.halo_bytes_per_step", "bytes", d.halo_bytes);
  add("ops.chain.tiles_per_step", "count", d.tiles);
  add("ops.chain.tile_height", "rows", full.tile_height);
  add("par.blocked_frac", "fraction", med(blocked));
  add("par.msgs_per_step", "count", d.msgs);
  add("par.bytes_per_step", "bytes", d.msg_bytes);
  add("par.pool_regions_per_step", "count", d.pool_regions);
  add("op2.loop_calls_per_step", "count", op2 ? d.loop_calls : 0);
  for (const auto& [name, st] : probes) {
    if (name == "microbench.triad_gbs") continue;
    const std::string unit = name.substr(name.rfind('_') + 1);
    const std::string n = " of n=" + std::to_string(st.n);
    add(name, unit, st.p50, "p50" + n);
    add(name + ".p99", unit, st.p99, "p99" + n);
  }

  const auto per_step = [&](auto f) {
    return med(collect(traced, [&](const Sample& s) {
      return (f(s.full_trace) - f(s.setup_trace)) / steps;
    }));
  };
  for (std::size_t i = 0; i < kSelfCats.size(); ++i)
    add(std::string("trace.") + trace::to_string(kSelfCats[i]) + "_self_s",
        "s", per_step([&](const TraceStats& t) { return t.self_s[i]; }),
        "rank-0 main track, per step");
  for (std::size_t i = 0; i < kCpBuckets.size(); ++i)
    add(std::string("causal.cp.") + kCpBuckets[i] + "_frac", "fraction",
        med(collect(traced,
                    [&](const Sample& s) { return s.full_trace.cp_frac[i]; })));
  add("causal.late_sender_s", "s",
      per_step([](const TraceStats& t) { return t.late_sender_s; }));
  add("causal.collective_s", "s",
      per_step([](const TraceStats& t) { return t.collective_s; }));
  add("trace.events_per_step", "count",
      per_step([](const TraceStats& t) { return t.events; }));
  const auto step = [](const Sample& s) { return s.step_s; };
  add("trace.overhead_frac", "fraction",
      med(collect(traced, step)) / med(collect(untraced, step)) - 1.0,
      "traced / untraced step wall - 1");
  const auto post_med = [&](auto f) { return med(collect(traced, f)); };
  add("common.trace_write_s", "s",
      post_med([](const Sample& s) { return s.post.trace_write_s; }));
  add("core.causal_s", "s",
      post_med([](const Sample& s) { return s.post.causal_s; }));
  add("core.datmove_s", "s",
      post_med([](const Sample& s) { return s.post.datmove_s; }));
  const auto report = collect(w.observed ? traced : untraced,
                              [](const Sample& s) { return s.post.report_s; });
  add("core.report_s", "s", med(report), timing_note(report));
  return m;
}

}  // namespace

int run(const Args& args) {
  const Workload w = make_workload(args.workload, args.seed, args.tiny);
  std::filesystem::create_directories(args.out_dir);
  Ctx c{args, w, 0, args.out_dir + "/" + w.name + ".trace.json", 0, 0};
  const Arming e2e_arming = w.observed ? Arming::Observed : Arming::Off;

  std::cout << "hostbench workload=" << w.name << " seed=" << args.seed
            << " seed_dependent=" << (w.seed_dependent ? "yes" : "no")
            << " app=" << w.app << " n=" << w.opt.n
            << " steps=" << w.opt.iterations << " ranks=" << w.opt.ranks
            << " threads=" << w.opt.threads
            << " tiled=" << (w.opt.tiled ? "auto" : "no")
            << " exec_mode=" << w.opt.exec_mode
            << " observed=" << (w.observed ? "yes" : "no") << "\n";

  Timer phase;
  // Peak memory first: the child must fork before any thread exists.
  ChildResult child;
  double rss_mb = 0;
  if (args.trace == 0) rss_mb = rss_of_one_run(c, e2e_arming, child);

  // The correctness reference, outside all timing. Its throughput is the
  // plain single-threaded baseline.
  double serial_mcups = 0;
  {
    const apps::Result r = run_app(w, reference_options(w));
    c.reference = r.checksum;
    serial_mcups =
        w.cells * w.opt.iterations / std::max(r.elapsed, 1e-9) / 1e6;
    if (args.corrupt_reference) c.reference = c.reference * (1 + 1e-6) + 1;
    std::cout << "reference: serial eager checksum=" << std::setprecision(17)
              << r.checksum << std::setprecision(6) << ", tolerance "
              << w.rel_tol << " relative\n";
  }
  if (args.trace == 0) {
    ++c.attempted;
    if (!child.clean || !checksum_matches(w, child.checksum, c.reference))
      ++c.failed;
  }

  std::cerr << "rss child + reference: " << phase.elapsed() << " s\n";
  phase.reset();

  std::vector<Metric> metrics;
  if (args.trace == 0) {
    // One untimed warm-up call pair: the allocator and page tables settle
    // before timing starts. Cold-process cost is what the child runs saw.
    (void)run_sample(c, e2e_arming, false);
    const auto samples =
        sample_for(c, e2e_arming, false, args.seconds, 3);
    metrics = end_to_end(c, samples, rss_mb);
  } else {
    ProbeSizes sizes;
    sizes.grid_n = args.tiny ? 64 : 2048;
    sizes.mesh_n = args.tiny ? 12 : 96;
    // BabelStream arrays of at least 4x the last-level cache, so the
    // triad streams from memory (105 MiB L3 on the reference host).
    long llc = sysconf(_SC_LEVEL3_CACHE_SIZE);
    if (llc <= 0) llc = 105L << 20;
    sizes.triad_n = args.tiny ? std::size_t{1} << 20
                              : 4 * static_cast<std::size_t>(llc) / 8;
    sizes.threads = w.cores();
    sizes.seed = w.opt.seed;
    std::cout << "probes: LLC " << (llc >> 20) << " MiB, triad arrays "
              << (sizes.triad_n * 8 >> 20) << " MiB each, "
              << sizes.threads << " threads\n";
    const auto probes = run_probes(sizes);
    std::cerr << "probes: " << phase.elapsed() << " s\n";
    phase.reset();
    const auto untraced =
        sample_for(c, Arming::Off, false, args.seconds / 2.0, 2);
    const auto traced =
        sample_for(c, w.observed ? Arming::Observed : Arming::Traced, true,
                   args.seconds / 2.0, 2);
    metrics = per_layer(c, untraced, traced, probes, serial_mcups);
  }
  std::cerr << "samples: " << phase.elapsed() << " s\n";
  const bool correct = c.failed == 0 && c.attempted > 0;
  print_result(metrics, c.attempted, c.failed, correct);
  return correct ? 0 : 1;
}

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  try {
    return run(args);
  } catch (const std::exception& e) {
    // A failure outside the counted app calls (the reference run, a
    // probe): no result is printed.
    std::cerr << "hostbench: " << e.what() << "\n";
    return 1;
  }
}

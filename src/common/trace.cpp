#include "common/trace.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <istream>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/json.hpp"

namespace bwlab::trace {

namespace {

constexpr std::size_t kNameCap = 48;  // truncation bound, keeps events POD

struct Event {
  std::uint64_t ts_ns = 0;
  double value = 0;        // counters only
  std::uint64_t flow = 0;  // flow events only
  long long seq = -1;      // CommArgs
  unsigned long long bytes = 0;
  int peer = -1;
  int tag = -1;
  char ph = 'B';  // Chrome phase letter, as in EventView
  Cat cat = Cat::Kernel;
  bool has_args = false;
  char name[kNameCap] = {};
};

/// One thread's event log plus its track identity. Buffers are owned by
/// the global registry and outlive their threads, so serialization after
/// run_ranks joins still sees every rank's events.
struct ThreadBuffer {
  int rank = 0;
  int tid = 0;
  std::string label;
  std::vector<Event> events;
  std::uint64_t dropped = 0;
};

struct Registry {
  std::mutex mu;
  std::vector<std::unique_ptr<ThreadBuffer>> buffers;
  std::atomic<std::size_t> capacity{std::size_t{1} << 20};
  std::atomic<std::uint64_t> epoch_ns{0};
};

Registry& reg() {
  static Registry* r = new Registry;  // leaked: threads may outlive main
  return *r;
}

thread_local ThreadBuffer* tls_buf = nullptr;
thread_local int tls_rank = 0;
thread_local int tls_tid = 0;

/// Relaxed mirror of the per-buffer drop counts, readable mid-run
/// without the registry mutex (dropped_events_now).
std::atomic<std::uint64_t> g_dropped_total{0};

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void copy_name(Event& e, std::string_view a, std::string_view b) {
  std::size_t n = std::min(a.size(), kNameCap - 1);
  std::copy_n(a.data(), n, e.name);
  const std::size_t m = std::min(b.size(), kNameCap - 1 - n);
  std::copy_n(b.data(), m, e.name + n);
  e.name[n + m] = '\0';
}

ThreadBuffer& buf() {
  if (tls_buf != nullptr) return *tls_buf;
  auto b = std::make_unique<ThreadBuffer>();
  b->rank = tls_rank;
  b->tid = tls_tid;
  b->label = "rank " + std::to_string(tls_rank) +
             (tls_tid == 0 ? std::string(" main")
                           : " worker " + std::to_string(tls_tid));
  Registry& r = reg();
  std::lock_guard<std::mutex> lock(r.mu);
  tls_buf = b.get();
  r.buffers.push_back(std::move(b));
  return *tls_buf;
}

/// Stamps and buffers `e` (name from a+b), counting a drop at capacity.
void push(Event e, std::string_view a, std::string_view b) {
  ThreadBuffer& tb = buf();
  if (tb.events.size() >= reg().capacity.load(std::memory_order_relaxed)) {
    ++tb.dropped;
    g_dropped_total.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  copy_name(e, a, b);
  e.ts_ns = now_ns();
  tb.events.push_back(e);
}

void push(char ph, Cat cat, std::string_view a, std::string_view b,
          double value) {
  Event e;
  e.ph = ph;
  e.cat = cat;
  e.value = value;
  push(e, a, b);
}

/// Where one track lands in the written trace: its Chrome pid/tid, the
/// process name ("<process>rank <rank>"), the thread name with its drop
/// count, and the flow-id space (id & flow_mask | flow_tag) its flow
/// events are written in.
struct TrackOut {
  int pid = 0;
  int tid = 0;
  std::string_view process;
  int rank = 0;
  std::string_view label;
  std::uint64_t dropped = 0;
  std::uint64_t flow_mask = ~std::uint64_t{0};
  std::uint64_t flow_tag = 0;
};

/// In a several-run trace, run i's flow ids carry i in their top byte,
/// so two runs never share an id and no flow arrow joins them.
constexpr int kRunFlowShift = 56;

constexpr const char* kTraceHead =
    "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
constexpr const char* kTraceTail = "\n]}\n";

/// One event line. `Ev` is the live buffer's Event or a decoded
/// EventView: both carry the same fields, so the live path streams from
/// its buffers without building a view per event.
template <class Ev>
void write_event_line(std::ostream& os, const TrackOut& t, const Ev& e,
                      std::uint64_t ts_ns) {
  char ts[48];
  std::snprintf(ts, sizeof ts, "%.3f", static_cast<double>(ts_ns) / 1000.0);
  // "bp":"e" binds a flow finish to the enclosing slice rather than the
  // next one, so Perfetto draws the arrow into the recv/wait span.
  os << ",\n{\"ph\":\"" << e.ph
     << (e.ph == 'f' ? R"(","bp":"e","pid":)" : R"(","pid":)") << t.pid
     << R"(,"tid":)" << t.tid << R"(,"ts":)" << ts;
  if (e.ph == 'B') {
    os << R"(,"cat":")" << to_string(e.cat) << R"(","name":")";
    json::write_string(os, e.name);
    os << '"';
    if (e.has_args)
      os << R"(,"args":{"peer":)" << e.peer << R"(,"tag":)" << e.tag
         << R"(,"seq":)" << e.seq << R"(,"bytes":)" << e.bytes << "}";
  } else if (e.ph == 'C') {
    os << R"(,"name":")";
    json::write_string(os, e.name);
    os << R"(","args":{"value":)" << e.value << "}";
  } else if (e.ph == 's' || e.ph == 'f') {
    char id[32];
    std::snprintf(id, sizeof id, "%llx",
                  static_cast<unsigned long long>((e.flow & t.flow_mask) |
                                                  t.flow_tag));
    os << R"(,"cat":"comm","name":"msg","id":"0x)" << id << '"';
  }
  os << '}';
}

/// One track: its two metadata lines, then its events (timestamps
/// relative to `epoch`), with unmatched ends dropped and unmatched
/// begins (buffer overflow, still-open spans) closed at the track's last
/// timestamp, so the emitted B/E pairs always balance.
template <class Ev>
void write_track(std::ostream& os, const TrackOut& t,
                 const std::vector<Ev>& events, std::uint64_t epoch,
                 bool& first) {
  if (!first) os << ",\n";
  first = false;
  os << R"({"ph":"M","pid":)" << t.pid << R"(,"tid":)" << t.tid
     << R"(,"name":"process_name","args":{"name":")" << t.process << "rank "
     << t.rank << R"("}})"
     << ",\n"
     << R"({"ph":"M","pid":)" << t.pid << R"(,"tid":)" << t.tid
     << R"(,"name":"thread_name","args":{"name":")";
  json::write_string(os, t.label);
  os << " (dropped " << t.dropped << ")\"}}";
  int depth = 0;
  std::uint64_t last_ts = epoch;
  for (const Ev& e : events) {
    if (e.ph == 'E') {
      if (depth == 0) continue;
      --depth;
    } else if (e.ph == 'B') {
      ++depth;
    }
    last_ts = std::max(last_ts, e.ts_ns);
    write_event_line(os, t, e, e.ts_ns - std::min(epoch, e.ts_ns));
  }
  Ev closer;
  closer.ph = 'E';
  for (; depth > 0; --depth)
    write_event_line(os, t, closer, last_ts - std::min(epoch, last_ts));
}

/// Inverse of to_string(Cat) (Fault is the last category); an unknown
/// or absent "cat" reads as App.
Cat cat_from_string(const std::string& s) {
  for (int c = 0; c <= static_cast<int>(Cat::Fault); ++c)
    if (s == to_string(static_cast<Cat>(c))) return static_cast<Cat>(c);
  return Cat::App;
}

}  // namespace

const char* to_string(Cat c) {
  switch (c) {
    case Cat::Kernel: return "kernel";
    case Cat::Halo: return "halo";
    case Cat::Comm: return "comm";
    case Cat::Tile: return "tile";
    case Cat::Region: return "region";
    case Cat::App: return "app";
    case Cat::Fault: return "fault";
  }
  return "?";
}

namespace detail {

void begin_span(Cat c, std::string_view name, std::string_view suffix) {
  push('B', c, name, suffix, 0.0);
}

void begin_span_args(Cat c, std::string_view name, std::string_view suffix,
                     const CommArgs& args) {
  Event e;
  e.ph = 'B';
  e.cat = c;
  e.has_args = true;
  e.peer = args.peer;
  e.tag = args.tag;
  e.seq = args.seq;
  e.bytes = args.bytes;
  push(e, name, suffix);
}

void end_span() { push('E', Cat::Kernel, {}, {}, 0.0); }

void flow_event(bool start, std::uint64_t id) {
  Event e;
  e.ph = start ? 's' : 'f';
  e.cat = Cat::Comm;
  e.flow = id;
  push(e, {}, {});
}

}  // namespace detail

std::uint64_t flow_id(int src, int dest, int tag, long long seq) {
  // splitmix64-style mix of the four coordinates: equality is all the
  // Chrome flow binding and the analyzer need, and 64 mixed bits make
  // accidental collisions between distinct (src, dest, tag, seq) tuples
  // negligible at any realistic message count.
  std::uint64_t x = static_cast<std::uint64_t>(static_cast<std::uint32_t>(src));
  x = x * 0x9e3779b97f4a7c15ULL + static_cast<std::uint32_t>(dest);
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL + static_cast<std::uint32_t>(tag);
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL +
      static_cast<std::uint64_t>(seq);
  return x ^ (x >> 31);
}

void enable(std::size_t max_events_per_thread) {
  Registry& r = reg();
  r.capacity.store(std::max<std::size_t>(max_events_per_thread, 16),
                   std::memory_order_relaxed);
  std::uint64_t expected = 0;
  r.epoch_ns.compare_exchange_strong(expected, now_ns());
  detail::g_on.enable();
}

void disable() { detail::g_on.disable(); }

void reset() {
  Registry& r = reg();
  std::lock_guard<std::mutex> lock(r.mu);
  for (auto& b : r.buffers) {
    b->events.clear();
    b->dropped = 0;
  }
  g_dropped_total.store(0, std::memory_order_relaxed);
  r.epoch_ns.store(now_ns(), std::memory_order_relaxed);
}

void set_thread_track(int rank, int tid, std::string label) {
  tls_rank = rank;
  tls_tid = tid;
  if (tls_buf != nullptr) {
    tls_buf->rank = rank;
    tls_buf->tid = tid;
    tls_buf->label = std::move(label);
    return;
  }
  // Buffer not created yet: materialize it now so the label sticks.
  ThreadBuffer& tb = buf();
  tb.label = std::move(label);
}

int current_rank() { return tls_rank; }

void counter(std::string_view name, double value) {
  if (!enabled()) return;
  push('C', Cat::App, name, {}, value);
}

std::uint64_t dropped_events_now() {
  return g_dropped_total.load(std::memory_order_relaxed);
}

std::uint64_t dropped_events() {
  Registry& r = reg();
  std::lock_guard<std::mutex> lock(r.mu);
  std::uint64_t n = 0;
  for (const auto& b : r.buffers) n += b->dropped;
  return n;
}

std::vector<ThreadDrops> dropped_by_thread() {
  Registry& r = reg();
  std::lock_guard<std::mutex> lock(r.mu);
  std::vector<ThreadDrops> out;
  out.reserve(r.buffers.size());
  for (const auto& b : r.buffers) {
    if (b->events.empty() && b->dropped == 0) continue;  // untouched track
    out.push_back(ThreadDrops{b->rank, b->tid, b->label, b->dropped});
  }
  return out;
}

std::vector<TrackView> snapshot() {
  Registry& r = reg();
  std::lock_guard<std::mutex> lock(r.mu);
  const std::uint64_t epoch = r.epoch_ns.load(std::memory_order_relaxed);
  std::vector<TrackView> out;
  out.reserve(r.buffers.size());
  for (const auto& b : r.buffers) {
    if (b->events.empty()) continue;
    TrackView t;
    t.rank = b->rank;
    t.tid = b->tid;
    t.label = b->label;
    t.dropped = b->dropped;
    t.events.reserve(b->events.size());
    for (const Event& e : b->events) {
      EventView v;
      v.ts_ns = e.ts_ns - std::min(epoch, e.ts_ns);
      v.ph = e.ph;
      v.value = e.value;
      v.flow = e.flow;
      v.cat = e.cat;
      v.has_args = e.has_args;
      v.peer = e.peer;
      v.tag = e.tag;
      v.seq = e.seq;
      v.bytes = e.bytes;
      v.name = e.name;
      t.events.push_back(std::move(v));
    }
    out.push_back(std::move(t));
  }
  return out;
}

void write_chrome_json(std::ostream& os) {
  Registry& r = reg();
  std::lock_guard<std::mutex> lock(r.mu);
  const std::uint64_t epoch = r.epoch_ns.load(std::memory_order_relaxed);
  os << kTraceHead;
  bool first = true;
  for (const auto& b : r.buffers) {
    if (b->events.empty()) continue;  // dead or untouched track
    write_track(os, {b->rank, b->tid, "", b->rank, b->label, b->dropped},
                b->events, epoch, first);
  }
  os << kTraceTail;
}

void write_chrome_json(std::ostream& os,
                       const std::vector<std::vector<TrackView>>& runs) {
  const int n = static_cast<int>(runs.size());
  os << kTraceHead;
  bool first = true;
  for (int i = 0; i < n; ++i) {
    const std::string process =
        n > 1 ? std::string(1, static_cast<char>('A' + i)) + " " : "";
    for (const TrackView& t : runs[static_cast<std::size_t>(i)]) {
      if (t.events.empty()) continue;
      TrackOut out{n * t.rank + i, t.tid, process, t.rank, t.label, t.dropped};
      if (n > 1) {
        out.flow_mask = (std::uint64_t{1} << kRunFlowShift) - 1;
        out.flow_tag = static_cast<std::uint64_t>(i) << kRunFlowShift;
      }
      write_track(os, out, t.events, 0, first);
    }
  }
  os << kTraceTail;
}

void write_chrome_json_file(const std::string& path) {
  std::ofstream os(path);
  BWLAB_REQUIRE(os.good(), "cannot open trace output file '" << path << "'");
  write_chrome_json(os);
  BWLAB_REQUIRE(os.good(), "failed writing trace to '" << path << "'");
}

std::vector<TrackView> parse_chrome_json(std::istream& is) {
  std::vector<TrackView> out;
  std::map<std::pair<int, int>, std::size_t> index;
  std::string line;
  while (std::getline(is, line)) {
    // One event object per line, each but the last followed by a comma;
    // the envelope lines are not objects.
    while (!line.empty() && line.back() == ',')
      line.pop_back();
    if (line.size() < 2 || line.front() != '{' || line.back() != '}')
      continue;
    const json::Value v = json::parse(line);
    const std::string ph = json::str_field(v, "ph");
    if (ph.empty()) continue;
    const std::pair<int, int> key{
        static_cast<int>(json::num_field(v, "pid")),
        static_cast<int>(json::num_field(v, "tid"))};
    const auto [it, added] = index.emplace(key, out.size());
    if (added) {
      out.emplace_back();
      out.back().rank = key.first;
      out.back().tid = key.second;
    }
    TrackView& t = out[it->second];
    const json::Value& args = json::obj_field(v, "args");
    if (ph[0] == 'M') {
      // The thread name carries the label and the drop count:
      // "rank 0 main (dropped N)".
      if (json::str_field(v, "name") != "thread_name") continue;
      const std::string name = json::str_field(args, "name");
      const std::size_t at = name.rfind(" (dropped ");
      t.label = name.substr(0, at);
      if (at != std::string::npos)
        t.dropped = std::strtoull(name.c_str() + at + 10, nullptr, 10);
      continue;
    }
    EventView e;
    e.ph = ph[0];
    e.ts_ns = static_cast<std::uint64_t>(
        std::llround(json::num_field(v, "ts") * 1000.0));
    e.cat = cat_from_string(json::str_field(v, "cat"));
    e.name = json::str_field(v, "name");
    if (e.ph == 's' || e.ph == 'f') {
      e.flow = std::strtoull(json::str_field(v, "id").c_str(), nullptr, 16);
    } else if (e.ph == 'C') {
      e.value = json::num_field(args, "value");
    } else if (e.ph == 'B' && args.find("peer") != nullptr) {
      e.has_args = true;
      e.peer = static_cast<int>(json::num_field(args, "peer"));
      e.tag = static_cast<int>(json::num_field(args, "tag"));
      e.seq = static_cast<long long>(json::num_field(args, "seq"));
      e.bytes = static_cast<unsigned long long>(json::num_field(args, "bytes"));
    }
    t.events.push_back(std::move(e));
  }
  return out;
}

}  // namespace bwlab::trace

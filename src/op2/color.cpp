#include "op2/color.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/metrics.hpp"

namespace bwlab::op2 {

namespace {

void require_maps(const Set& from, const std::vector<const Map*>& maps) {
  BWLAB_REQUIRE(!maps.empty(), "coloring needs at least one map");
  for (const Map* m : maps)
    BWLAB_REQUIRE(&m->from() == &from, "coloring maps must share the from-set");
}

/// Greedy first-fit coloring of the blocks of `block` elements of `from`,
/// in block order: a block takes the lowest color none of its targets has
/// seen. Returns false when a block would need more than 64 colors.
bool color_blocks(const Set& from, const std::vector<const Map*>& maps,
                  idx_t block, std::vector<int>& color, int& num_colors) {
  const idx_t n = from.size();
  const idx_t nblocks = ceil_div(n, block);
  // Per target entity, a bitmask of the colors of the blocks touching it.
  // Targets of different to-sets share a slot: conservative, and no mesh
  // here comes near the 64-color limit on its element coloring.
  idx_t max_target = 0;
  for (const Map* m : maps) max_target = std::max(max_target, m->to().size());
  std::vector<std::uint64_t> used(static_cast<std::size_t>(max_target), 0);
  color.assign(static_cast<std::size_t>(nblocks), -1);
  num_colors = 0;
  for (idx_t b = 0; b < nblocks; ++b) {
    const idx_t lo = b * block, hi = std::min(lo + block, n);
    const auto for_targets = [&](auto&& f) {
      for (idx_t e = lo; e < hi; ++e)
        for (const Map* m : maps)
          for (int s = 0; s < m->arity(); ++s) {
            const idx_t t = (*m)(e, s);
            if (t >= 0) f(used[static_cast<std::size_t>(t)]);
          }
    };
    std::uint64_t forbidden = 0;
    for_targets([&](std::uint64_t u) { forbidden |= u; });
    int c = 0;
    while (c < 64 && (forbidden >> c) & 1ULL) ++c;
    if (c == 64) return false;
    color[static_cast<std::size_t>(b)] = c;
    num_colors = std::max(num_colors, c + 1);
    const std::uint64_t bit = 1ULL << c;
    for_targets([&](std::uint64_t& u) { u |= bit; });
  }
  return true;
}

}  // namespace

Plan build_plan(const Set& from, const std::vector<const Map*>& maps) {
  require_maps(from, maps);
  Plan p;
  p.set_size = from.size();
  p.block_size = kPlanBlock;
  std::vector<int> color;
  int num_colors = 0;
  if (!color_blocks(from, maps, p.block_size, color, num_colors)) {
    p.block_size = 1;
    BWLAB_REQUIRE(color_blocks(from, maps, 1, color, num_colors),
                  "coloring exceeded 64 colors; mesh degenerate?");
  }
  // Counting sort by color; blocks stay ascending within a color.
  p.color_start.assign(static_cast<std::size_t>(num_colors) + 1, 0);
  for (int c : color) ++p.color_start[static_cast<std::size_t>(c) + 1];
  for (int c = 0; c < num_colors; ++c)
    p.color_start[static_cast<std::size_t>(c) + 1] +=
        p.color_start[static_cast<std::size_t>(c)];
  std::vector<idx_t> next(p.color_start.begin(), p.color_start.end() - 1);
  p.blocks.resize(color.size());
  for (std::size_t b = 0; b < color.size(); ++b)
    p.blocks[static_cast<std::size_t>(
        next[static_cast<std::size_t>(color[b])]++)] = static_cast<idx_t>(b);
  return p;
}

bool Plan::validate(const std::vector<const Map*>& maps) const {
  if (block_size < 1 || color_start.empty() || color_start.front() != 0 ||
      color_start.back() != static_cast<idx_t>(blocks.size()))
    return false;
  const idx_t nblocks = ceil_div(set_size, block_size);
  if (static_cast<idx_t>(blocks.size()) != nblocks) return false;
  std::vector<char> covered(static_cast<std::size_t>(nblocks), 0);
  for (idx_t b : blocks) {
    if (b < 0 || b >= nblocks || covered[static_cast<std::size_t>(b)])
      return false;
    covered[static_cast<std::size_t>(b)] = 1;
  }
  for (const Map* m : maps)
    if (m->from().size() != set_size) return false;
  for (int c = 0; c < num_colors(); ++c) {
    const idx_t x0 = color_start[static_cast<std::size_t>(c)];
    const idx_t x1 = color_start[static_cast<std::size_t>(c) + 1];
    if (x1 < x0) return false;
    // Conflicts are per target *entity*: two maps into the same to-set
    // hitting the same index race just as one map does. A block may touch
    // a target many times; it runs serially.
    std::map<std::pair<const Set*, idx_t>, idx_t> owner;
    for (idx_t x = x0; x < x1; ++x) {
      const idx_t b = blocks[static_cast<std::size_t>(x)];
      const auto [lo, hi] = block_range(b);
      for (idx_t e = lo; e < hi; ++e)
        for (const Map* m : maps)
          for (int s = 0; s < m->arity(); ++s) {
            const idx_t t = (*m)(e, s);
            if (t < 0) continue;
            const auto [it, fresh] = owner.emplace(std::pair{&m->to(), t}, b);
            if (!fresh && it->second != b) return false;
          }
    }
  }
  return true;
}

const Plan& PlanCache::get(const Set& set,
                           const std::vector<const Map*>& maps) {
  std::vector<const Map*> distinct = maps;
  std::sort(distinct.begin(), distinct.end(),
            [](const Map* a, const Map* b) { return a->id() < b->id(); });
  distinct.erase(std::unique(distinct.begin(), distinct.end()),
                 distinct.end());
  std::vector<std::uint64_t> key{set.id()};
  for (const Map* m : distinct) key.push_back(m->id());
  const auto it = plans_.find(key);
  if (it != plans_.end()) return it->second;
  static Counter& built = MetricsRegistry::global().counter("op2.plans_built");
  built.inc();
  return plans_.emplace(std::move(key), build_plan(set, distinct))
      .first->second;
}

Coloring color_set(const Set& from, const std::vector<const Map*>& maps) {
  require_maps(from, maps);
  Coloring out;
  BWLAB_REQUIRE(color_blocks(from, maps, 1, out.color, out.num_colors),
                "coloring exceeded 64 colors; mesh degenerate?");
  out.by_color.resize(static_cast<std::size_t>(out.num_colors));
  for (idx_t e = 0; e < from.size(); ++e)
    out.by_color[static_cast<std::size_t>(out.color[static_cast<std::size_t>(e)])]
        .push_back(e);
  return out;
}

bool Coloring::validate(const std::vector<const Map*>& maps) const {
  // The same check as a plan of one-element blocks.
  Plan p;
  for (const auto& elements : by_color) {
    p.blocks.insert(p.blocks.end(), elements.begin(), elements.end());
    p.color_start.push_back(static_cast<idx_t>(p.blocks.size()));
  }
  p.set_size = static_cast<idx_t>(p.blocks.size());
  return p.validate(maps);
}

}  // namespace bwlab::op2

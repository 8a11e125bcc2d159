// Core containers of the mini-OP2 unstructured-mesh DSL [17]: sets
// (cells, edges, nodes), maps (edge -> cells, cell -> nodes, fine -> coarse)
// and dats (per-element data of small fixed dimension).
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "common/aligned.hpp"
#include "common/error.hpp"
#include "common/memtier.hpp"
#include "common/types.hpp"

namespace bwlab::op2 {

/// Process-unique identity of a Set or Map, the key of the execution-plan
/// cache. Every construction, copy and assignment draws a fresh value (a
/// move renews the source's too), so an id never names two different
/// contents, not even for an object reusing a freed object's address.
class UniqueId {
 public:
  UniqueId() : v_(next()) {}
  UniqueId(const UniqueId&) : v_(next()) {}
  UniqueId(UniqueId&& o) noexcept : v_(next()) { o.v_ = next(); }
  UniqueId& operator=(const UniqueId&) {
    v_ = next();
    return *this;
  }
  UniqueId& operator=(UniqueId&& o) noexcept {
    v_ = next();
    o.v_ = next();
    return *this;
  }
  std::uint64_t value() const { return v_; }

 private:
  static std::uint64_t next() {
    static std::atomic<std::uint64_t> counter{0};
    return counter.fetch_add(1, std::memory_order_relaxed) + 1;
  }
  std::uint64_t v_;
};

/// A set of mesh entities.
class Set {
 public:
  Set(std::string name, idx_t size) : name_(std::move(name)), size_(size) {
    BWLAB_REQUIRE(size >= 0, "set size must be non-negative");
  }
  const std::string& name() const { return name_; }
  idx_t size() const { return size_; }
  std::uint64_t id() const { return id_.value(); }

 private:
  std::string name_;
  idx_t size_;
  UniqueId id_;
};

/// A mapping from each element of `from` to `arity` elements of `to`.
/// Entries of -1 denote "no target" (e.g. the outside of a boundary edge);
/// loops skip accesses through them.
class Map {
 public:
  Map(std::string name, const Set& from, const Set& to, int arity,
      std::vector<idx_t> data)
      : name_(std::move(name)), from_(&from), to_(&to), arity_(arity),
        data_(std::move(data)) {
    BWLAB_REQUIRE(static_cast<idx_t>(data_.size()) == from.size() * arity,
                  "map '" << name_ << "' has wrong size");
    for (idx_t v : data_)
      BWLAB_REQUIRE(v >= -1 && v < to.size(),
                    "map '" << name_ << "' entry " << v << " out of range");
  }

  const std::string& name() const { return name_; }
  const Set& from() const { return *from_; }
  const Set& to() const { return *to_; }
  int arity() const { return arity_; }
  idx_t operator()(idx_t element, int slot) const {
    return data_[static_cast<std::size_t>(element * arity_ + slot)];
  }
  const std::vector<idx_t>& raw() const { return data_; }
  std::uint64_t id() const { return id_.value(); }

 private:
  std::string name_;
  const Set* from_;
  const Set* to_;
  int arity_;
  std::vector<idx_t> data_;
  UniqueId id_;
};

/// Per-element data: `dim` values of type T per element of `set`.
template <class T>
class Dat {
 public:
  Dat(const Set& set, std::string name, int dim, T init = T{})
      : set_(&set), name_(std::move(name)), dim_(dim),
        data_(static_cast<std::size_t>(set.size() * dim), init) {
    memtier::on_alloc(name_, data_.size() * sizeof(T));
  }

  const Set& set() const { return *set_; }
  const std::string& name() const { return name_; }
  int dim() const { return dim_; }
  static constexpr std::size_t elem_bytes() { return sizeof(T); }

  T* ptr(idx_t element) { return data_.data() + element * dim_; }
  const T* ptr(idx_t element) const { return data_.data() + element * dim_; }
  T& at(idx_t element, int component = 0) {
    return data_[static_cast<std::size_t>(element * dim_ + component)];
  }
  const T& at(idx_t element, int component = 0) const {
    return data_[static_cast<std::size_t>(element * dim_ + component)];
  }
  T* data() { return data_.data(); }
  const T* data() const { return data_.data(); }
  idx_t size_flat() const { return static_cast<idx_t>(data_.size()); }

  template <class F>
  void fill_indexed(F&& f) {
    for (idx_t e = 0; e < set_->size(); ++e)
      for (int c = 0; c < dim_; ++c) at(e, c) = f(e, c);
  }
  void fill(T v) { std::fill(data_.begin(), data_.end(), v); }

 private:
  const Set* set_;
  std::string name_;
  int dim_;
  aligned_vector<T> data_;
};

}  // namespace bwlab::op2

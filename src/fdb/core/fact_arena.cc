#include "fdb/core/fact_arena.h"

#include <algorithm>
#include <cstring>
#include <new>
#include <unordered_set>

#include "fdb/exec/cancel.h"

namespace fdb {

namespace {
const FactNode kEmptyNode{};
}  // namespace

FactPtr FactArena::EmptyNode() { return &kEmptyNode; }

const std::shared_ptr<FactArena>& FactArena::Scratch() {
  static const std::shared_ptr<FactArena>* arena =
      new std::shared_ptr<FactArena>(std::make_shared<FactArena>());
  return *arena;
}

void* FactArena::Allocate(size_t bytes) {
  bytes = (bytes + 7) & ~size_t{7};
  // Arena allocation is the single choke point for factorisation memory:
  // charge it against the serving layer's per-query budget when one is
  // armed on this thread (one thread-local load when not).
  if (exec::CancelToken* t = exec::CurrentCancelToken()) {
    t->ChargeMemory(static_cast<int64_t>(bytes));
  }
  if (used_ + bytes > cap_) {
    size_t want = chunks_.empty()
                      ? kFirstChunk
                      : std::min(cap_ * 2, kMaxChunk);
    want = std::max(want, bytes);
    chunks_.push_back(std::make_unique<std::byte[]>(want));
    chunk_sizes_.push_back(want);
    cap_ = want;
    used_ = 0;
  }
  void* p = chunks_.back().get() + used_;
  used_ += bytes;
  bytes_ += static_cast<int64_t>(bytes);
  return p;
}

FactPtr FactArena::NewNode(const ValueRef* vals, size_t nv, const FactPtr* kids,
                           size_t nk) {
  if (nv == 0 && nk == 0) return EmptyNode();
  size_t bytes = sizeof(FactNode) + nv * sizeof(ValueRef) +
                 nk * sizeof(FactPtr);
  std::byte* block = static_cast<std::byte*>(Allocate(bytes));
  auto* node = new (block) FactNode();
  auto* v = reinterpret_cast<ValueRef*>(block + sizeof(FactNode));
  if (nv > 0) std::memcpy(v, vals, nv * sizeof(ValueRef));
  auto* k = reinterpret_cast<FactPtr*>(block + sizeof(FactNode) +
                                       nv * sizeof(ValueRef));
  if (nk > 0) std::memcpy(k, kids, nk * sizeof(FactPtr));
  node->values = {v, static_cast<uint32_t>(nv)};
  node->children = {k, static_cast<uint32_t>(nk)};
  ++nodes_;
  return node;
}

bool FactArena::OwnsNodeMemory(const FactNode* node) const {
  const std::byte* p = reinterpret_cast<const std::byte*>(node);
  for (size_t i = 0; i < chunks_.size(); ++i) {
    const std::byte* lo = chunks_[i].get();
    if (p >= lo && p + sizeof(FactNode) <= lo + chunk_sizes_[i]) return true;
  }
  return false;
}

bool FactArena::ChainOwnsNode(FactPtr node) const {
  if (node == EmptyNode()) return true;
  if (OwnsNodeMemory(node)) return true;
  for (const auto& p : parents_) {
    // Parents are flattened to depth one, but a parent may itself be a
    // MappedArena whose override must run — hence the virtual probe.
    if (p->OwnsNodeMemory(node)) return true;
  }
  return false;
}

void FactArena::Adopt(const std::shared_ptr<const FactArena>& other) {
  if (other == nullptr || other.get() == this) return;
  // Flatten: adopt other's parents directly so chains stay depth one.
  // Parent lists hold no duplicates, so a fresh arena (one per commit on a
  // published view) takes other's list without membership tests; else one
  // set over the current list keeps the merge linear.
  const bool fresh = parents_.empty();
  std::unordered_set<const FactArena*> have;
  for (const auto& p : parents_) have.insert(p.get());
  if (fresh) parents_.reserve(other->parents_.size() + 1);
  auto add = [&](const std::shared_ptr<const FactArena>& a) {
    if (a.get() == this || !(fresh || have.insert(a.get()).second)) return;
    parents_.push_back(a);
    adopted_bytes_ += a->bytes_used();
  };
  for (const auto& p : other->parents_) add(p);
  add(other);
}

}  // namespace fdb

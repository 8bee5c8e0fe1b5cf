#include "fdb/core/factorisation.h"

#include <algorithm>
#include <sstream>
#include <unordered_map>

namespace fdb {
namespace {

FactPtr BuildIn(FactArena& arena, const std::vector<Value>& values,
                const std::vector<FactPtr>& children) {
  ValueDict& dict = ValueDict::Default();
  std::vector<ValueRef> refs;
  refs.reserve(values.size());
  for (const Value& v : values) refs.push_back(dict.Encode(v));
  return arena.NewNode(refs.data(), refs.size(), children.data(),
                       children.size());
}

}  // namespace

FactPtr MakeLeaf(const std::vector<Value>& values) {
  return BuildIn(*FactArena::Scratch(), values, {});
}

FactPtr MakeNode(const std::vector<Value>& values,
                 const std::vector<FactPtr>& children) {
  return BuildIn(*FactArena::Scratch(), values, children);
}

FactPtr MakeLeafIn(FactArena& arena, const std::vector<Value>& values) {
  return BuildIn(arena, values, {});
}

FactArena& Factorisation::ArenaForWrite() {
  if (arena_ != nullptr && arena_.use_count() == 1) return *arena_;
  auto fresh = std::make_shared<FactArena>();
  if (arena_ != nullptr) fresh->Adopt(arena_);
  arena_ = std::move(fresh);
  return *arena_;
}

namespace {

// Recursion depth is the f-tree height, not the data size.
FactPtr CopyInto(FactPtr n, FactArena& arena,
                 std::unordered_map<FactPtr, FactPtr>* copied) {
  if (n->values.empty() && n->children.empty()) {
    return FactArena::EmptyNode();
  }
  auto it = copied->find(n);
  if (it != copied->end()) return it->second;
  std::vector<FactPtr> kids;
  kids.reserve(n->children.size());
  for (FactPtr c : n->children) kids.push_back(CopyInto(c, arena, copied));
  FactPtr out = arena.NewNode(n->values.ptr, n->values.len, kids.data(),
                              kids.size());
  copied->emplace(n, out);
  return out;
}

// Below this much garbage a compaction copy costs more than it frees.
constexpr int64_t kCompactSlackBytes = 64 << 10;

}  // namespace

void Factorisation::Compact() {
  auto fresh = std::make_shared<FactArena>();
  std::unordered_map<FactPtr, FactPtr> copied;
  for (FactPtr& r : roots_) {
    if (r != nullptr) r = CopyInto(r, *fresh, &copied);
  }
  compacted_bytes_ = fresh->chain_bytes();
  arena_ = std::move(fresh);
}

bool Factorisation::MaybeCompact() {
  if (arena_ == nullptr) return false;
  int64_t used = arena_->chain_bytes();
  if (compacted_bytes_ < 0) {
    compacted_bytes_ = used;
    return false;
  }
  if (used <= 4 * compacted_bytes_ + kCompactSlackBytes &&
      arena_->num_adopted() <= kMaxChainArenas) {
    return false;
  }
  Compact();
  return true;
}

bool Factorisation::empty() const {
  for (const FactPtr& r : roots_) {
    if (r == nullptr || r->values.empty()) return true;
  }
  return false;
}

namespace {

int64_t CountSingletonsRec(const FactNode& n) {
  int64_t total = static_cast<int64_t>(n.values.size());
  for (const FactPtr& c : n.children) total += CountSingletonsRec(*c);
  return total;
}

int64_t CountTuplesRec(const FTree& t, int node, const FactNode& n) {
  int k = static_cast<int>(t.children(node).size());
  int64_t total = 0;
  for (int i = 0; i < n.size(); ++i) {
    int64_t prod = 1;
    for (int c = 0; c < k; ++c) {
      prod *= CountTuplesRec(t, t.children(node)[c], *n.child(i, k, c));
    }
    total += prod;
  }
  return total;
}

// Appends all tuples (over the subtree's columns, topo order) to *out as the
// cross product with the prefix rows in [begin, out->size()).
void FlattenRec(const FTree& t, int node, const FactNode& n,
                std::vector<Tuple>* out) {
  int k = static_cast<int>(t.children(node).size());
  int ncols_here = t.node(node).is_aggregate()
                       ? 1
                       : static_cast<int>(t.node(node).attrs.size());
  std::vector<Tuple> result;
  for (int i = 0; i < n.size(); ++i) {
    std::vector<Tuple> partial;
    partial.emplace_back(ncols_here, n.values[i].ToValue());
    for (int c = 0; c < k; ++c) {
      std::vector<Tuple> sub;
      FlattenRec(t, t.children(node)[c], *n.child(i, k, c), &sub);
      std::vector<Tuple> next;
      next.reserve(partial.size() * sub.size());
      for (const Tuple& p : partial) {
        for (const Tuple& s : sub) {
          Tuple row = p;
          row.insert(row.end(), s.begin(), s.end());
          next.push_back(std::move(row));
        }
      }
      partial = std::move(next);
    }
    for (Tuple& p : partial) result.push_back(std::move(p));
  }
  *out = std::move(result);
}

}  // namespace

int64_t Factorisation::CountSingletons() const {
  int64_t total = 0;
  for (const FactPtr& r : roots_) {
    if (r) total += CountSingletonsRec(*r);
  }
  return total;
}

int64_t Factorisation::CountTuples() const {
  if (empty()) return 0;
  int64_t prod = 1;
  for (size_t i = 0; i < roots_.size(); ++i) {
    prod *= CountTuplesRec(tree_, tree_.roots()[i], *roots_[i]);
  }
  return prod;
}

RelSchema Factorisation::OutputSchema() const {
  std::vector<AttrId> attrs;
  for (int n : tree_.TopologicalOrder()) {
    auto ids = tree_.node(n).is_aggregate()
                   ? std::vector<AttrId>{tree_.node(n).agg->id}
                   : tree_.node(n).attrs;
    attrs.insert(attrs.end(), ids.begin(), ids.end());
  }
  return RelSchema(std::move(attrs));
}

Relation Factorisation::Flatten() const {
  Relation out(OutputSchema());
  if (empty()) return out;
  std::vector<Tuple> acc = {Tuple{}};
  for (size_t r = 0; r < roots_.size(); ++r) {
    std::vector<Tuple> sub;
    FlattenRec(tree_, tree_.roots()[r], *roots_[r], &sub);
    std::vector<Tuple> next;
    next.reserve(acc.size() * sub.size());
    for (const Tuple& p : acc) {
      for (const Tuple& s : sub) {
        Tuple row = p;
        row.insert(row.end(), s.begin(), s.end());
        next.push_back(std::move(row));
      }
    }
    acc = std::move(next);
  }
  for (Tuple& t : acc) out.Add(std::move(t));
  return out;
}

namespace {

bool ValidateRec(const FTree& t, int node, const FactNode& n, bool is_root,
                 std::string* why) {
  size_t k = t.children(node).size();
  if (n.children.size() != n.values.size() * k) {
    if (why) *why = "child matrix size mismatch at node " + std::to_string(node);
    return false;
  }
  for (size_t i = 1; i < n.values.size(); ++i) {
    if (!(n.values[i - 1] < n.values[i])) {
      if (why) *why = "union not strictly sorted at node " + std::to_string(node);
      return false;
    }
  }
  if (!is_root && n.values.empty()) {
    if (why) *why = "empty non-root union at node " + std::to_string(node);
    return false;
  }
  for (size_t i = 0; i < n.values.size(); ++i) {
    for (size_t c = 0; c < k; ++c) {
      FactPtr ch = n.children[i * k + c];
      if (ch == nullptr) {
        if (why) *why = "null child at node " + std::to_string(node);
        return false;
      }
      if (ch->values.empty()) {
        if (why) *why = "unpruned empty child at node " + std::to_string(node);
        return false;
      }
      if (!ValidateRec(t, t.children(node)[c], *ch, false, why)) return false;
    }
  }
  return true;
}

void PrintRec(const FTree& t, const AttributeRegistry& reg, int node,
              const FactNode& n, std::ostringstream* os) {
  int k = static_cast<int>(t.children(node).size());
  if (n.size() > 1) *os << "(";
  for (int i = 0; i < n.size(); ++i) {
    if (i) *os << " u ";
    *os << "<" << n.values[i] << ">";
    for (int c = 0; c < k; ++c) {
      *os << "x";
      PrintRec(t, reg, t.children(node)[c], *n.child(i, k, c), os);
    }
  }
  if (n.size() > 1) *os << ")";
}

}  // namespace

bool Factorisation::Validate(std::string* why) const {
  if (roots_.size() != tree_.roots().size()) {
    if (why) *why = "root count mismatch";
    return false;
  }
  for (size_t r = 0; r < roots_.size(); ++r) {
    if (roots_[r] == nullptr) {
      if (why) *why = "null root";
      return false;
    }
    if (!ValidateRec(tree_, tree_.roots()[r], *roots_[r], true, why)) {
      return false;
    }
  }
  return true;
}

std::string Factorisation::ToString(const AttributeRegistry& reg) const {
  std::ostringstream os;
  for (size_t r = 0; r < roots_.size(); ++r) {
    if (r) os << " x ";
    PrintRec(tree_, reg, tree_.roots()[r], *roots_[r], &os);
  }
  return os.str();
}

}  // namespace fdb

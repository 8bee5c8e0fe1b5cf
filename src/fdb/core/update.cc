#include "fdb/core/update.h"

#include <algorithm>
#include <map>
#include <optional>
#include <stdexcept>

#include "fdb/obs/metrics.h"

namespace fdb {
namespace {

// Unions rebuilt (copied or freshly built) by the current ApplyBatch merge
// pass. Thread-local so concurrent batches on different views don't need
// to thread a counter through the recursion.
thread_local int64_t g_unions_rebuilt = 0;

// Updates are persistent: each batch copies the root-to-leaf path unions
// it touches into the factorisation's write arena and the previous
// versions become unreachable garbage. Generational compaction keeps that garbage
// bounded: after every mutation, Factorisation::MaybeCompact copies the
// live roots into a fresh generation once the arena chain has grown past
// 4x the live size or too many arenas long, so sustained update chains —
// including one commit per arena on a published view — run in O(live)
// memory and per-commit cost stays flat.
void AfterMutation(Factorisation* f) {
  static obs::Counter& compactions = obs::Registry::Instance().GetCounter(
      "update.compactions", "compactions",
      "whole-chain compactions fired by the update path");
  if (f->MaybeCompact()) compactions.Inc();
}

// Validates the path shape and returns the node chain root → leaf.
std::vector<int> PathChain(const FTree& tree, size_t arity) {
  if (tree.roots().size() != 1) {
    throw std::invalid_argument("update: view must have a single root");
  }
  std::vector<int> chain;
  int n = tree.roots()[0];
  while (true) {
    const FTreeNode& nd = tree.node(n);
    if (nd.is_aggregate() || nd.attrs.size() != 1) {
      throw std::invalid_argument(
          "update: view must consist of single-attribute atomic nodes");
    }
    chain.push_back(n);
    if (tree.children(n).empty()) break;
    if (tree.children(n).size() != 1) {
      throw std::invalid_argument("update: view f-tree must be a path");
    }
    n = tree.children(n)[0];
  }
  if (chain.size() != arity) {
    throw std::invalid_argument("update: tuple arity does not match view");
  }
  return chain;
}

// Position of `v` in the (sorted) union, or -1.
int FindValue(const FactNode& n, ValueRef v) {
  auto it = std::lower_bound(n.values.begin(), n.values.end(), v);
  if (it == n.values.end() || !(*it == v)) return -1;
  return static_cast<int>(it - n.values.begin());
}

// Encodes a tuple without inserting into the dictionary; nullopt if some
// value cannot appear in any stored singleton (unseen string / big int).
std::optional<std::vector<ValueRef>> TryEncodeTuple(const ValueDict& dict,
                                                    const Tuple& tuple) {
  std::vector<ValueRef> key;
  key.reserve(tuple.size());
  for (const Value& v : tuple) {
    std::optional<ValueRef> r = dict.TryEncode(v);
    if (!r.has_value()) return std::nullopt;
    key.push_back(*r);
  }
  return key;
}

// --- batch apply ----------------------------------------------------------
//
// A batch is reduced to its final membership first: ordered application of
// idempotent inserts and deletes means only the last op per key matters.
// The survivors, sorted by encoded key (ValueRef order — the same order
// the trie unions use), are then merged against the existing trie in one
// recursive pass, so a union crossed by k keys is copied once instead of
// k times. Subtrees no batch key reaches are returned by pointer,
// preserving node identity (shared with the previous version).

// One resolved batch key: final membership `insert` for `*key`.
struct BatchEntry {
  const std::vector<ValueRef>* key;
  bool insert;
};

// Builds a fresh subtree from the inserts in [lo, hi) (all sharing the
// key prefix above `depth`); nullptr when the range holds only deletes.
FactPtr BuildRec(const BatchEntry* lo, const BatchEntry* hi, size_t depth,
                 size_t arity, FactArena& arena) {
  bool leaf = depth + 1 == arity;
  FactBuilder out;
  for (const BatchEntry* e = lo; e < hi;) {
    ValueRef v = (*e->key)[depth];
    const BatchEntry* ge = e;
    while (ge < hi && (*ge->key)[depth] == v) ++ge;
    if (leaf) {
      if (e->insert) out.values.push_back(v);  // keys unique: ge == e + 1
    } else {
      FactPtr child = BuildRec(e, ge, depth + 1, arity, arena);
      if (child != nullptr) {
        out.values.push_back(v);
        out.children.push_back(child);
      }
    }
    e = ge;
  }
  if (out.values.empty()) return nullptr;
  ++g_unions_rebuilt;
  return out.Finish(arena);
}

// Merges the sorted entries [lo, hi) into `n`'s union. Returns `n` itself
// when nothing below changed, nullptr when the union emptied.
FactPtr MergeRec(const FactNode* n, const BatchEntry* lo,
                 const BatchEntry* hi, size_t depth, size_t arity,
                 FactArena& arena) {
  bool leaf = depth + 1 == arity;
  bool changed = false;
  FactBuilder out;
  size_t i = 0;
  const BatchEntry* e = lo;
  while (i < n->values.size() || e < hi) {
    if (e == hi ||
        (i < n->values.size() && n->values[i] < (*e->key)[depth])) {
      out.values.push_back(n->values[i]);
      if (!leaf) out.children.push_back(n->children[i]);
      ++i;
      continue;
    }
    ValueRef v = (*e->key)[depth];
    const BatchEntry* ge = e;
    while (ge < hi && (*ge->key)[depth] == v) ++ge;
    bool present = i < n->values.size() && n->values[i] == v;
    if (leaf) {
      if (present) {
        if (e->insert) {
          out.values.push_back(v);  // already a member: no-op
        } else {
          changed = true;  // deleted
        }
        ++i;
      } else if (e->insert) {
        out.values.push_back(v);
        changed = true;
      }
    } else if (present) {
      FactPtr updated = MergeRec(n->children[i], e, ge, depth + 1, arity,
                                 arena);
      if (updated == nullptr) {
        changed = true;  // branch emptied: drop this entry too
      } else {
        out.values.push_back(v);
        out.children.push_back(updated);
        if (updated != n->children[i]) changed = true;
      }
      ++i;
    } else {
      FactPtr built = BuildRec(e, ge, depth + 1, arity, arena);
      if (built != nullptr) {
        out.values.push_back(v);
        out.children.push_back(built);
        changed = true;
      }
    }
    e = ge;
  }
  if (!changed) return n;
  if (out.values.empty()) return nullptr;
  ++g_unions_rebuilt;
  return out.Finish(arena);
}

}  // namespace

void ApplyBatch(Factorisation* f, const std::vector<BatchOp>& ops) {
  if (ops.empty()) return;
  std::vector<int> chain = PathChain(f->tree(), ops.front().tuple.size());
  size_t arity = chain.size();
  ValueDict& dict = ValueDict::Default();
  // Resolve final membership per key, processing in order: a delete of a
  // value only interned by an earlier insert in the same batch must see
  // that encoding (sequential semantics).
  std::map<std::vector<ValueRef>, bool> final_op;
  for (const BatchOp& op : ops) {
    if (op.tuple.size() != arity) {
      throw std::invalid_argument("update: tuple arity does not match view");
    }
    if (op.insert) {
      std::vector<ValueRef> key;
      key.reserve(arity);
      for (const Value& v : op.tuple) key.push_back(dict.Encode(v));
      final_op[std::move(key)] = true;
    } else {
      std::optional<std::vector<ValueRef>> key =
          TryEncodeTuple(dict, op.tuple);
      if (!key.has_value()) continue;  // value never stored: delete no-ops
      final_op[*std::move(key)] = false;
    }
  }
  if (final_op.empty()) return;
  static obs::Counter& batches = obs::Registry::Instance().GetCounter(
      "update.batches", "batches", "ApplyBatch invocations with work");
  static obs::Counter& batch_ops = obs::Registry::Instance().GetCounter(
      "update.batch_ops", "ops", "operations submitted to ApplyBatch");
  static obs::Counter& ops_deduped = obs::Registry::Instance().GetCounter(
      "update.ops_deduped", "ops",
      "batch ops collapsed by last-op-wins dedup before the merge");
  static obs::Counter& unions_merged = obs::Registry::Instance().GetCounter(
      "update.unions_merged", "unions",
      "unions rebuilt by batch merges (shared paths copied once per batch)");
  batches.Inc();
  batch_ops.Inc(ops.size());
  ops_deduped.Inc(ops.size() - final_op.size());
  std::vector<BatchEntry> entries;
  entries.reserve(final_op.size());
  for (const auto& [key, insert] : final_op) {
    entries.push_back(BatchEntry{&key, insert});
  }
  const FactNode* root =
      f->empty() ? nullptr : f->roots().empty() ? nullptr : f->roots()[0];
  g_unions_rebuilt = 0;
  FactPtr updated =
      root == nullptr
          ? BuildRec(entries.data(), entries.data() + entries.size(), 0,
                     arity, f->ArenaForWrite())
          : MergeRec(root, entries.data(), entries.data() + entries.size(),
                     0, arity, f->ArenaForWrite());
  unions_merged.Inc(static_cast<uint64_t>(g_unions_rebuilt));
  f->mutable_roots()[0] =
      updated == nullptr ? FactArena::EmptyNode() : updated;
  AfterMutation(f);
}

bool ContainsTuple(const Factorisation& f, const Tuple& tuple) {
  PathChain(f.tree(), tuple.size());
  if (f.empty()) return false;
  std::optional<std::vector<ValueRef>> key =
      TryEncodeTuple(ValueDict::Default(), tuple);
  if (!key.has_value()) return false;
  const FactNode* n = f.roots()[0];
  for (size_t depth = 0; depth < key->size(); ++depth) {
    int pos = FindValue(*n, (*key)[depth]);
    if (pos < 0) return false;
    if (depth + 1 < key->size()) n = n->children[pos];
  }
  return true;
}

}  // namespace fdb

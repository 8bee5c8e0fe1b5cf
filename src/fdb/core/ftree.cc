#include "fdb/core/ftree.h"

#include <algorithm>
#include <cassert>
#include <set>
#include <sstream>
#include <stdexcept>
#include <unordered_set>

namespace fdb {

std::vector<AttrId> FTreeNode::AllAttrIds() const {
  if (agg.has_value()) return {agg->id};
  return attrs;
}

void FTree::AddEdge(Hyperedge edge) {
  std::sort(edge.attrs.begin(), edge.attrs.end());
  edge.attrs.erase(std::unique(edge.attrs.begin(), edge.attrs.end()),
                   edge.attrs.end());
  edges_.push_back(std::move(edge));
}

int FTree::AddNode(std::vector<AttrId> attrs, int parent) {
  if (attrs.empty()) {
    throw std::invalid_argument("FTree::AddNode: empty attribute class");
  }
  std::sort(attrs.begin(), attrs.end());
  FTreeNode n;
  n.attrs = std::move(attrs);
  n.parent = parent;
  int id = static_cast<int>(nodes_.size());
  nodes_.push_back(std::move(n));
  if (parent < 0) {
    roots_.push_back(id);
  } else {
    nodes_[parent].children.push_back(id);
  }
  return id;
}

int FTree::AddAggregateNode(AggregateLabel label, int parent) {
  FTreeNode n;
  n.agg = std::move(label);
  n.parent = parent;
  int id = static_cast<int>(nodes_.size());
  nodes_.push_back(std::move(n));
  if (parent < 0) {
    roots_.push_back(id);
  } else {
    nodes_[parent].children.push_back(id);
  }
  return id;
}

std::vector<int> FTree::TopologicalOrder() const {
  std::vector<int> order;
  for (int r : roots_) CollectSubtree(r, &order);
  return order;
}

std::vector<int> FTree::SubtreeNodes(int u) const {
  std::vector<int> out;
  CollectSubtree(u, &out);
  return out;
}

void FTree::CollectSubtree(int u, std::vector<int>* out) const {
  out->push_back(u);
  for (int c : nodes_[u].children) CollectSubtree(c, out);
}

std::vector<AttrId> FTree::SubtreeAttrIds(int u) const {
  std::vector<AttrId> out;
  for (int n : SubtreeNodes(u)) {
    auto ids = nodes_[n].AllAttrIds();
    out.insert(out.end(), ids.begin(), ids.end());
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<AttrId> FTree::SubtreeOriginalAttrs(int u) const {
  std::vector<AttrId> out;
  for (int n : SubtreeNodes(u)) {
    const FTreeNode& nd = nodes_[n];
    if (nd.is_aggregate()) {
      out.insert(out.end(), nd.agg->over.begin(), nd.agg->over.end());
    } else {
      out.insert(out.end(), nd.attrs.begin(), nd.attrs.end());
    }
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

int FTree::NodeOfAttr(AttrId a) const {
  for (int i = 0; i < static_cast<int>(nodes_.size()); ++i) {
    const FTreeNode& n = nodes_[i];
    if (!n.alive) continue;
    if (n.is_aggregate()) {
      if (n.agg->id == a) return i;
    } else if (std::binary_search(n.attrs.begin(), n.attrs.end(), a)) {
      return i;
    }
  }
  return -1;
}

bool FTree::IsAncestor(int anc, int desc) const {
  for (int p = nodes_[desc].parent; p >= 0; p = nodes_[p].parent) {
    if (p == anc) return true;
  }
  return false;
}

int FTree::RootOf(int u) const {
  while (nodes_[u].parent >= 0) u = nodes_[u].parent;
  return u;
}

int FTree::SlotOf(int child) const {
  const std::vector<int>& sibs =
      nodes_[child].parent < 0 ? roots_ : nodes_[nodes_[child].parent].children;
  for (size_t i = 0; i < sibs.size(); ++i) {
    if (sibs[i] == child) return static_cast<int>(i);
  }
  throw std::logic_error("FTree::SlotOf: node not found among siblings");
}

namespace {
bool Intersects(const std::vector<AttrId>& sorted_edge,
                const std::vector<AttrId>& ids) {
  for (AttrId a : ids) {
    if (std::binary_search(sorted_edge.begin(), sorted_edge.end(), a)) {
      return true;
    }
  }
  return false;
}
}  // namespace

bool FTree::NodesDependent(int x, int y) const {
  auto xs = nodes_[x].AllAttrIds();
  auto ys = nodes_[y].AllAttrIds();
  for (const Hyperedge& e : edges_) {
    if (Intersects(e.attrs, xs) && Intersects(e.attrs, ys)) return true;
  }
  return false;
}

bool FTree::SubtreeDependsOn(int u, int y) const {
  for (int n : SubtreeNodes(u)) {
    if (NodesDependent(n, y)) return true;
  }
  return false;
}

bool FTree::SatisfiesPathConstraint() const {
  std::vector<int> live;
  for (int i = 0; i < num_nodes(); ++i) {
    if (nodes_[i].alive) live.push_back(i);
  }
  for (size_t i = 0; i < live.size(); ++i) {
    for (size_t j = i + 1; j < live.size(); ++j) {
      int x = live[i], y = live[j];
      if (!NodesDependent(x, y)) continue;
      if (!IsAncestor(x, y) && !IsAncestor(y, x)) return false;
    }
  }
  return true;
}

std::vector<int> FTree::SwapUp(int b) {
  int a = nodes_[b].parent;
  if (a < 0) throw std::invalid_argument("FTree::SwapUp: node is a root");
  int grand = nodes_[a].parent;

  // Partition b's children into those whose subtree depends on a (they move
  // under a, preserving the path constraint) and the rest (stay under b).
  std::vector<int> moved_slots;
  std::vector<int> stay, move;
  const std::vector<int> b_children = nodes_[b].children;
  for (size_t i = 0; i < b_children.size(); ++i) {
    if (SubtreeDependsOn(b_children[i], a)) {
      move.push_back(b_children[i]);
      moved_slots.push_back(static_cast<int>(i));
    } else {
      stay.push_back(b_children[i]);
    }
  }

  // Detach b from a's children.
  auto& ac = nodes_[a].children;
  ac.erase(std::remove(ac.begin(), ac.end(), b), ac.end());
  // a gains the dependent children of b, appended after its own.
  for (int m : move) {
    nodes_[m].parent = a;
    ac.push_back(m);
  }
  // b takes a's place.
  nodes_[b].parent = grand;
  if (grand < 0) {
    std::replace(roots_.begin(), roots_.end(), a, b);
  } else {
    std::replace(nodes_[grand].children.begin(), nodes_[grand].children.end(),
                 a, b);
  }
  // b keeps the independent children, then gains a as its last child.
  nodes_[b].children = stay;
  nodes_[b].children.push_back(a);
  nodes_[a].parent = b;
  return moved_slots;
}

void FTree::MergeSiblings(int a, int b) {
  FTreeNode& na = nodes_[a];
  FTreeNode& nb = nodes_[b];
  if (na.parent != nb.parent) {
    throw std::invalid_argument("FTree::MergeSiblings: not siblings");
  }
  if (na.is_aggregate() || nb.is_aggregate()) {
    throw std::invalid_argument(
        "FTree::MergeSiblings: cannot merge aggregate nodes");
  }
  na.attrs.insert(na.attrs.end(), nb.attrs.begin(), nb.attrs.end());
  std::sort(na.attrs.begin(), na.attrs.end());
  for (int c : nb.children) {
    nodes_[c].parent = a;
    na.children.push_back(c);
  }
  nb.children.clear();
  nb.alive = false;
  if (nb.parent < 0) {
    roots_.erase(std::remove(roots_.begin(), roots_.end(), b), roots_.end());
  } else {
    auto& pc = nodes_[nb.parent].children;
    pc.erase(std::remove(pc.begin(), pc.end(), b), pc.end());
  }
}

void FTree::AbsorbDescendant(int a, int b) {
  if (!IsAncestor(a, b)) {
    throw std::invalid_argument("FTree::AbsorbDescendant: not a descendant");
  }
  FTreeNode& na = nodes_[a];
  FTreeNode& nb = nodes_[b];
  if (na.is_aggregate() || nb.is_aggregate()) {
    throw std::invalid_argument(
        "FTree::AbsorbDescendant: cannot absorb aggregate nodes");
  }
  na.attrs.insert(na.attrs.end(), nb.attrs.begin(), nb.attrs.end());
  std::sort(na.attrs.begin(), na.attrs.end());
  int p = nb.parent;
  auto& pc = nodes_[p].children;
  // b's children take b's place, appended at the end of the parent's list
  // (the matching data transformation mirrors this slot edit).
  pc.erase(std::remove(pc.begin(), pc.end(), b), pc.end());
  for (int c : nb.children) {
    nodes_[c].parent = p;
    pc.push_back(c);
  }
  nb.children.clear();
  nb.alive = false;
}

std::vector<int> FTree::ReplaceSubtreeWithAggregates(
    int u, std::vector<AggregateLabel> labels) {
  if (labels.empty()) {
    throw std::invalid_argument("ReplaceSubtreeWithAggregates: no labels");
  }
  int p = nodes_[u].parent;
  std::vector<AttrId> gone = SubtreeAttrIds(u);

  // Merge all hyperedges touching the removed attributes (projecting away U
  // makes the attributes they connect to mutually dependent, §3), and attach
  // a copy per new aggregate attribute so each depends on everything U
  // depended on while remaining independent of its sibling aggregates.
  Hyperedge merged;
  merged.weight = 1.0;
  std::vector<Hyperedge> kept;
  bool any = false;
  for (Hyperedge& e : edges_) {
    if (Intersects(e.attrs, gone)) {
      any = true;
      for (AttrId a : e.attrs) {
        if (!std::binary_search(gone.begin(), gone.end(), a)) {
          merged.attrs.push_back(a);
        }
      }
      merged.weight *= e.weight;
      if (!merged.name.empty()) merged.name += "*";
      merged.name += e.name;
    } else {
      kept.push_back(std::move(e));
    }
  }
  std::sort(merged.attrs.begin(), merged.attrs.end());
  merged.attrs.erase(std::unique(merged.attrs.begin(), merged.attrs.end()),
                     merged.attrs.end());
  edges_ = std::move(kept);

  // Tombstone the subtree.
  for (int n : SubtreeNodes(u)) {
    nodes_[n].alive = false;
    nodes_[n].children.clear();
  }

  // New aggregate leaves: first takes u's slot, the rest appended.
  // Note: re-resolve the sibling list on every use — pushing into nodes_
  // can reallocate it.
  size_t slot;
  {
    const std::vector<int>& sibs = p < 0 ? roots_ : nodes_[p].children;
    auto it = std::find(sibs.begin(), sibs.end(), u);
    assert(it != sibs.end());
    slot = static_cast<size_t>(it - sibs.begin());
  }

  std::vector<int> new_ids;
  for (size_t i = 0; i < labels.size(); ++i) {
    FTreeNode n;
    n.agg = labels[i];
    n.parent = p;
    int id = static_cast<int>(nodes_.size());
    nodes_.push_back(std::move(n));
    new_ids.push_back(id);
    std::vector<int>& sibs = p < 0 ? roots_ : nodes_[p].children;
    if (i == 0) {
      sibs[slot] = id;
    } else {
      sibs.push_back(id);
    }
    if (any) {
      Hyperedge e = merged;
      e.attrs.push_back(labels[i].id);
      std::sort(e.attrs.begin(), e.attrs.end());
      edges_.push_back(std::move(e));
    }
  }
  return new_ids;
}

void FTree::RemoveLeaf(int u) {
  FTreeNode& n = nodes_[u];
  if (!n.children.empty()) {
    throw std::invalid_argument("FTree::RemoveLeaf: node has children");
  }
  n.alive = false;
  if (n.parent < 0) {
    roots_.erase(std::remove(roots_.begin(), roots_.end(), u), roots_.end());
  } else {
    auto& pc = nodes_[n.parent].children;
    pc.erase(std::remove(pc.begin(), pc.end(), u), pc.end());
  }
  // Remove the attributes from the dependency hypergraph.
  std::vector<AttrId> gone = n.AllAttrIds();
  std::sort(gone.begin(), gone.end());
  for (Hyperedge& e : edges_) {
    std::erase_if(e.attrs, [&gone](AttrId a) {
      return std::binary_search(gone.begin(), gone.end(), a);
    });
  }
}

FTree FTree::Restore(std::vector<RestoredNode> nodes, std::vector<int> roots,
                     AttributeRegistry* reg) {
  FTree tree;
  for (RestoredNode& n : nodes) {
    if (n.agg.has_value()) {
      std::sort(n.agg->over.begin(), n.agg->over.end());
      tree.AddAggregateNode(std::move(*n.agg), -1);
    } else if (n.attrs.empty()) {
      // Only tombstoned nodes may have lost their class; a live one would
      // leak the placeholder into schemas.
      if (n.alive) {
        throw std::invalid_argument(
            "FTree::Restore: live atomic node without attributes");
      }
      tree.AddNode({reg->Intern("__tombstone")}, -1);
    } else {
      tree.AddNode(std::move(n.attrs), -1);
    }
  }
  // Wiring is restored wholesale, then validated as untrusted input.
  for (size_t i = 0; i < nodes.size(); ++i) {
    tree.nodes_[i].alive = nodes[i].alive;
    tree.nodes_[i].parent = nodes[i].parent;
    tree.nodes_[i].children = std::move(nodes[i].children);
  }
  tree.roots_ = std::move(roots);
  std::string why;
  if (!tree.ValidateWiring(&why)) {
    throw std::invalid_argument("FTree::Restore: inconsistent wiring: " + why);
  }
  return tree;
}

bool FTree::ValidateWiring(std::string* why) const {
  auto fail = [why](const std::string& what) {
    if (why) *why = what;
    return false;
  };
  int n = num_nodes();
  std::vector<bool> seen(nodes_.size(), false);
  // Iterative DFS: corrupt input may chain thousands of nodes in a line.
  std::vector<int> stack;
  for (int r : roots_) {
    if (r < 0 || r >= n) return fail("root id out of range");
    if (nodes_[r].parent != -1) return fail("root with a parent");
    if (seen[r]) return fail("duplicate root");
    seen[r] = true;
    stack.push_back(r);
  }
  while (!stack.empty()) {
    int u = stack.back();
    stack.pop_back();
    if (!nodes_[u].alive) return fail("dead node reachable from a root");
    for (int c : nodes_[u].children) {
      if (c < 0 || c >= n) return fail("child id out of range");
      if (nodes_[c].parent != u) return fail("child/parent mismatch");
      if (seen[c]) return fail("node reached twice (shared or cyclic)");
      seen[c] = true;
      stack.push_back(c);
    }
  }
  for (int i = 0; i < n; ++i) {
    if (nodes_[i].alive && !seen[i]) {
      return fail("live node unreachable from the roots");
    }
    if (!nodes_[i].alive && !nodes_[i].children.empty()) {
      return fail("tombstoned node with children");
    }
  }
  return true;
}

void FTree::RenameAggregate(int u, AttrId new_id) {
  FTreeNode& n = nodes_[u];
  if (!n.is_aggregate()) {
    throw std::invalid_argument("FTree::RenameAggregate: not an aggregate");
  }
  AttrId old = n.agg->id;
  n.agg->id = new_id;
  for (Hyperedge& e : edges_) {
    for (AttrId& a : e.attrs) {
      if (a == old) a = new_id;
    }
    std::sort(e.attrs.begin(), e.attrs.end());
  }
}

namespace {
void PrintNode(const FTree& t, const AttributeRegistry& reg, int u, int depth,
               std::ostringstream* os) {
  for (int i = 0; i < depth; ++i) *os << "  ";
  const FTreeNode& n = t.node(u);
  if (n.is_aggregate()) {
    *os << reg.Name(n.agg->id);
  } else {
    for (size_t i = 0; i < n.attrs.size(); ++i) {
      if (i) *os << "=";
      *os << reg.Name(n.attrs[i]);
    }
  }
  *os << "\n";
  for (int c : n.children) PrintNode(t, reg, c, depth + 1, os);
}
}  // namespace

std::string FTree::ToString(const AttributeRegistry& reg) const {
  std::ostringstream os;
  for (int r : roots_) PrintNode(*this, reg, r, 0, &os);
  return os.str();
}

}  // namespace fdb

#include "fdb/core/stats.h"

#include <algorithm>
#include <iomanip>
#include <sstream>
#include <unordered_map>
#include <unordered_set>

namespace fdb {
namespace {

void Walk(const FTree& tree, int node, const FactNode& n,
          std::unordered_map<int, FactNodeStats>* acc) {
  FactNodeStats& s = (*acc)[node];
  s.node = node;
  s.unions += 1;
  s.singletons += n.size();
  s.max_union = std::max<int64_t>(s.max_union, n.size());
  int k = static_cast<int>(tree.children(node).size());
  for (int i = 0; i < n.size(); ++i) {
    for (int c = 0; c < k; ++c) {
      Walk(tree, tree.children(node)[c], *n.child(i, k, c), acc);
    }
  }
}

void WalkDistinct(const FTree& tree, int node, const FactNode& n,
                  std::unordered_set<const FactNode*>* seen,
                  FactFootprint* fp) {
  if (!seen->insert(&n).second) return;
  fp->unions += 1;
  fp->singletons += n.size();
  int k = static_cast<int>(tree.children(node).size());
  for (int i = 0; i < n.size(); ++i) {
    for (int c = 0; c < k; ++c) {
      WalkDistinct(tree, tree.children(node)[c], *n.child(i, k, c), seen, fp);
    }
  }
}

}  // namespace

std::vector<FactNodeStats> ComputeFactStats(const Factorisation& f) {
  std::unordered_map<int, FactNodeStats> acc;
  for (size_t r = 0; r < f.roots().size(); ++r) {
    if (f.roots()[r] != nullptr) {
      Walk(f.tree(), f.tree().roots()[r], *f.roots()[r], &acc);
    }
  }
  std::vector<FactNodeStats> out;
  for (int n : f.tree().TopologicalOrder()) {
    FactNodeStats s = acc.count(n) ? acc[n] : FactNodeStats{n, 0, 0, 0, 0};
    if (s.unions > 0) {
      s.avg_union = static_cast<double>(s.singletons) /
                    static_cast<double>(s.unions);
    }
    out.push_back(s);
  }
  return out;
}

FactFootprint ComputeFootprint(const Factorisation& f) {
  FactFootprint fp;
  std::unordered_set<const FactNode*> seen;
  for (size_t r = 0; r < f.roots().size(); ++r) {
    if (f.roots()[r] != nullptr) {
      WalkDistinct(f.tree(), f.tree().roots()[r], *f.roots()[r], &seen, &fp);
    }
  }
  fp.tuples = f.CountTuples();
  fp.flat_values =
      fp.tuples * static_cast<int64_t>(f.OutputSchema().attrs().size());
  if (f.arena() != nullptr) {
    fp.arena_bytes = f.arena()->chain_bytes();
  }
  return fp;
}

std::string FactStatsToString(const Factorisation& f,
                              const AttributeRegistry& reg) {
  std::ostringstream os;
  os << std::left << std::setw(28) << "node" << std::right << std::setw(10)
     << "unions" << std::setw(12) << "singletons" << std::setw(8) << "max"
     << std::setw(8) << "avg" << "\n";
  for (const FactNodeStats& s : ComputeFactStats(f)) {
    const FTreeNode& nd = f.tree().node(s.node);
    std::string label;
    if (nd.is_aggregate()) {
      label = reg.Name(nd.agg->id);
    } else {
      for (size_t i = 0; i < nd.attrs.size(); ++i) {
        if (i) label += "=";
        label += reg.Name(nd.attrs[i]);
      }
    }
    os << std::left << std::setw(28) << label << std::right << std::setw(10)
       << s.unions << std::setw(12) << s.singletons << std::setw(8)
       << s.max_union << std::setw(8) << std::fixed << std::setprecision(1)
       << s.avg_union << "\n";
  }
  return os.str();
}

}  // namespace fdb

// The central correctness invariant of the reproduction: on random
// databases and a spread of query shapes, FDB (factorised evaluation, both
// planners) and RDB (flat evaluation, both grouping algorithms, naive and
// eager plans) must return identical results. Each template runs over the
// base relations and over a view of their join, and FDB runs it twice:
// the second run over the view resumes from the f-plan prefix cache.

#include <gtest/gtest.h>

#include <functional>
#include <random>

#include "fdb/core/build.h"
#include "fdb/engine/fdb_engine.h"
#include "fdb/engine/rdb_engine.h"
#include "fdb/query/parser.h"
#include "fdb/workload/random_db.h"
#include "test_util.h"

namespace fdb {
namespace {

using testing::SameBag;

struct Instance {
  std::unique_ptr<Database> db;
  RandomDb rdb;
  std::string view;  ///< the natural join of rdb's relations
  int seed = 0;
};

// Publishes the join of the instance's relations as a view.
void AddJoinView(Instance* inst, const std::string& name) {
  std::vector<const Relation*> rels;
  for (const std::string& r : inst->rdb.relation_names) {
    rels.push_back(inst->db->relation(r));
  }
  inst->db->AddView(name, FactoriseJoin(ChooseFTree(rels), rels));
  inst->view = name;
}

Instance MakeInstance(int seed, const std::string& prefix) {
  Instance inst;
  inst.seed = seed;
  inst.db = std::make_unique<Database>();
  RandomDbSpec spec;
  spec.seed = static_cast<uint64_t>(seed);
  spec.num_relations = 2 + seed % 2;
  spec.arity = 2 + seed % 2;
  spec.rows = 20 + seed % 23;
  spec.domain = 3 + seed % 4;
  inst.rdb = GenerateChainDb(inst.db.get(), prefix + std::to_string(seed),
                             spec);
  AddJoinView(&inst, prefix + std::to_string(seed) + "_view");
  return inst;
}

std::string FromList(const Instance& inst) {
  std::string s;
  for (size_t i = 0; i < inst.rdb.relation_names.size(); ++i) {
    if (i) s += ", ";
    s += inst.rdb.relation_names[i];
  }
  return s;
}

// Checks FDB against the sort, hash and eager relational engines on the
// template `sql(from)`, over the base relations and over their join view.
// FDB's greedy planner runs each statement twice; over the view the
// second run resumes from the f-plan prefix cache. The exhaustive planner
// runs once, over the view: the view is the relations' join over the same
// f-tree, so it plans the same ops for both. On every even seed (two chain
// or three star relations) its search must finish within the state cap,
// so that a weaker search fails here instead of falling back to greedy.
void ExpectAllEnginesAgree(
    const Instance& inst,
    const std::function<std::string(const std::string&)>& sql,
    bool fdb_order_check = false) {
  Database* db = inst.db.get();
  FdbEngine fdb(db);
  RdbEngine rdb(db);
  for (const std::string& from : {FromList(inst), inst.view}) {
    std::string text = sql(from);
    BoundQuery q = Bind(ParseSql(text), db);

    std::vector<std::pair<const char*, Relation>> relational;
    relational.emplace_back("sort", rdb.Execute(q).flat);
    RdbOptions hash;
    hash.grouping = RdbOptions::Grouping::kHash;
    relational.emplace_back("hash", rdb.Execute(q, hash).flat);
    if (q.has_aggregates() && q.eq_selections.empty()) {
      RdbOptions eager;
      eager.eager = true;
      relational.emplace_back("eager", rdb.Execute(q, eager).flat);
    }

    std::vector<std::pair<const char*, FdbResult>> runs;
    runs.emplace_back("FDB run 1", fdb.Execute(q));
    runs.emplace_back("FDB run 2", fdb.Execute(q));
    if (from == inst.view) {
      FdbOptions ex;
      ex.planner = FdbOptions::Planner::kExhaustive;
      ex.exhaustive_max_states = 3000;
      runs.emplace_back("FDB exhaustive", fdb.Execute(q, ex));
      if (inst.seed % 2 == 0) {
        EXPECT_TRUE(runs.back().second.used_exhaustive) << text;
      }
    }
    for (const auto& [run, fr] : runs) {
      for (const auto& [engine, flat] : relational) {
        EXPECT_TRUE(SameBag(fr.flat, flat, db->registry()))
            << run << " vs " << engine << ": " << text;
      }
      if (fdb_order_check && !q.order_by.empty()) {
        EXPECT_TRUE(fr.flat.IsSortedBy(q.order_by)) << run << ": " << text;
      }
    }
  }
}

class DifferentialProperty : public ::testing::TestWithParam<int> {};

TEST_P(DifferentialProperty, GroupBySumPerFirstAttr) {
  Instance inst = MakeInstance(GetParam(), "pa");
  const std::string& g = inst.rdb.attr_names.front();
  const std::string& s = inst.rdb.attr_names.back();
  ExpectAllEnginesAgree(inst, [&](const std::string& from) {
    return "SELECT " + g + ", sum(" + s + ") FROM " + from + " GROUP BY " + g;
  });
}

TEST_P(DifferentialProperty, GroupByMiddleAttrAllAggregates) {
  Instance inst = MakeInstance(GetParam(), "pb");
  const std::string& g =
      inst.rdb.attr_names[inst.rdb.attr_names.size() / 2];
  const std::string& s = inst.rdb.attr_names.front();
  ExpectAllEnginesAgree(inst, [&](const std::string& from) {
    return "SELECT " + g + ", count(*), sum(" + s + "), min(" + s +
           "), max(" + s + "), avg(" + s + ") FROM " + from + " GROUP BY " +
           g;
  });
}

TEST_P(DifferentialProperty, TwoGroupAttributesWithOrder) {
  Instance inst = MakeInstance(GetParam(), "pc");
  const std::string& g1 = inst.rdb.attr_names.front();
  const std::string& g2 = inst.rdb.attr_names.back();
  const std::string& s = inst.rdb.attr_names[1];
  ExpectAllEnginesAgree(inst, [&](const std::string& from) {
    return "SELECT " + g2 + ", " + g1 + ", sum(" + s + ") FROM " + from +
           " GROUP BY " + g2 + ", " + g1 + " ORDER BY " + g2 + " DESC, " +
           g1;
  }, /*fdb_order_check=*/true);
}

TEST_P(DifferentialProperty, GlobalAggregates) {
  Instance inst = MakeInstance(GetParam(), "pd");
  const std::string& s = inst.rdb.attr_names.back();
  ExpectAllEnginesAgree(inst, [&](const std::string& from) {
    return "SELECT count(*), sum(" + s + "), min(" + s + ") FROM " + from;
  });
}

TEST_P(DifferentialProperty, ConstantSelections) {
  Instance inst = MakeInstance(GetParam(), "pe");
  const std::string& g = inst.rdb.attr_names.front();
  const std::string& s = inst.rdb.attr_names.back();
  const std::string& w = inst.rdb.attr_names[1];
  ExpectAllEnginesAgree(inst, [&](const std::string& from) {
    return "SELECT " + g + ", count(*) FROM " + from + " WHERE " + w +
           " >= 1 AND " + s + " < 3 GROUP BY " + g;
  });
}

TEST_P(DifferentialProperty, EqualitySelection) {
  Instance inst = MakeInstance(GetParam(), "pf");
  const std::string& a = inst.rdb.attr_names.front();
  const std::string& b = inst.rdb.attr_names.back();
  ExpectAllEnginesAgree(inst, [&](const std::string& from) {
    return "SELECT count(*) FROM " + from + " WHERE " + a + " = " + b;
  });
}

TEST_P(DifferentialProperty, DistinctProjection) {
  Instance inst = MakeInstance(GetParam(), "pg");
  const std::string& a = inst.rdb.attr_names.front();
  const std::string& b = inst.rdb.attr_names[inst.rdb.attr_names.size() / 2];
  ExpectAllEnginesAgree(inst, [&](const std::string& from) {
    return "SELECT DISTINCT " + b + ", " + a + " FROM " + from;
  });
}

TEST_P(DifferentialProperty, OrderByAggregateWithHavingAndLimit) {
  Instance inst = MakeInstance(GetParam(), "ph");
  const std::string& g = inst.rdb.attr_names.front();
  const std::string& s = inst.rdb.attr_names.back();
  ExpectAllEnginesAgree(inst, [&](const std::string& from) {
    return "SELECT " + g + ", sum(" + s + ") AS s_out FROM " + from +
           " GROUP BY " + g + " HAVING count(*) > 1 ORDER BY s_out DESC, " +
           g + " LIMIT 5";
  }, /*fdb_order_check=*/true);
}

TEST_P(DifferentialProperty, SelectStarOrdered) {
  Instance inst = MakeInstance(GetParam(), "pi");
  const std::string& a = inst.rdb.attr_names[1];
  ExpectAllEnginesAgree(inst, [&](const std::string& from) {
    return "SELECT * FROM " + from + " ORDER BY " + a + " DESC";
  }, /*fdb_order_check=*/false);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DifferentialProperty,
                         ::testing::Range(0, 14));

// Order check for SELECT * with the order attribute leading.
class OrderedStarProperty : public ::testing::TestWithParam<int> {};

TEST_P(OrderedStarProperty, FdbOutputIsSorted) {
  Instance inst = MakeInstance(GetParam(), "pj");
  const std::string& a = inst.rdb.attr_names[1];
  const std::string& b = inst.rdb.attr_names.front();
  std::string sql = "SELECT * FROM " + FromList(inst) + " ORDER BY " + a +
                    ", " + b + " DESC";
  FdbEngine fdb(inst.db.get());
  FdbResult r = fdb.ExecuteSql(sql);
  EXPECT_TRUE(
      r.flat.IsSortedBy({{*inst.db->registry().Find(a), SortDir::kAsc},
                         {*inst.db->registry().Find(b), SortDir::kDesc}}))
      << sql;
}

INSTANTIATE_TEST_SUITE_P(Seeds, OrderedStarProperty, ::testing::Range(0, 8));

// Star-schema joins produce *branching* f-trees (satellites independent
// given the hub) — the shape where factorisation pays off most. The same
// differential invariants must hold there.
Instance MakeStarInstance(int seed, const std::string& prefix) {
  Instance inst;
  inst.seed = seed;
  inst.db = std::make_unique<Database>();
  RandomDbSpec spec;
  spec.seed = static_cast<uint64_t>(seed);
  spec.num_relations = 3 + seed % 2;
  spec.arity = 2 + seed % 2;
  spec.rows = 15 + seed % 20;
  spec.domain = 3 + seed % 3;
  inst.rdb = GenerateStarDb(inst.db.get(), prefix + std::to_string(seed),
                            spec);
  AddJoinView(&inst, prefix + std::to_string(seed) + "_view");
  return inst;
}

class StarDifferential : public ::testing::TestWithParam<int> {};

TEST_P(StarDifferential, AggregatesAgree) {
  Instance inst = MakeStarInstance(GetParam(), "st");
  const std::string& g = inst.rdb.attr_names[0];  // a spoke attribute
  const std::string& s = inst.rdb.attr_names.back();
  ExpectAllEnginesAgree(inst, [&](const std::string& from) {
    return "SELECT " + g + ", count(*), sum(" + s + "), min(" + s +
           ") FROM " + from + " GROUP BY " + g;
  });
  ExpectAllEnginesAgree(inst, [&](const std::string& from) {
    return "SELECT count(*), sum(" + s + ") FROM " + from;
  });
}

TEST_P(StarDifferential, BranchingTreeIsChosen) {
  Instance inst = MakeStarInstance(GetParam(), "sb");
  std::vector<const Relation*> rels;
  for (const std::string& name : inst.rdb.relation_names) {
    rels.push_back(inst.db->relation(name));
  }
  FTree tree = ChooseFTree(rels);
  EXPECT_TRUE(tree.SatisfiesPathConstraint());
  // At least one node has two or more children (satellites branch off).
  bool branching = false;
  for (int n : tree.TopologicalOrder()) {
    if (tree.children(n).size() >= 2) branching = true;
  }
  EXPECT_TRUE(branching) << "star schema should yield a branching f-tree";
}

TEST_P(StarDifferential, DistinctProjectionAndOrderAgree) {
  Instance inst = MakeStarInstance(GetParam(), "sc");
  const std::string& a = inst.rdb.attr_names[0];
  const std::string& b = inst.rdb.attr_names.back();
  ExpectAllEnginesAgree(inst, [&](const std::string& from) {
    return "SELECT DISTINCT " + a + ", " + b + " FROM " + from +
           " ORDER BY " + a + " DESC, " + b;
  }, /*fdb_order_check=*/true);
}

INSTANTIATE_TEST_SUITE_P(Seeds, StarDifferential, ::testing::Range(0, 10));

}  // namespace
}  // namespace fdb

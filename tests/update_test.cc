#include "fdb/core/update.h"

#include <gtest/gtest.h>

#include <random>
#include <set>

#include "fdb/core/build.h"
#include "test_util.h"

namespace fdb {
namespace {

using testing::DeleteOne;
using testing::InsertOne;
using testing::Row;
using testing::SameSet;

// The flat oracle the trie updates are checked against: the view's tuples
// as a std::set, updated op by op.
using Model = std::set<Tuple>;

void ApplyToModel(Model* m, const std::vector<BatchOp>& ops) {
  for (const BatchOp& op : ops) {
    if (op.insert) {
      m->insert(op.tuple);
    } else {
      m->erase(op.tuple);
    }
  }
}

Relation ModelRelation(const Model& m, const std::vector<AttrId>& attrs) {
  Relation r{RelSchema(attrs)};
  for (const Tuple& t : m) r.Add(t);
  return r;
}

class UpdateTest : public ::testing::Test {
 protected:
  UpdateTest() {
    a_ = reg_.Intern("ua");
    b_ = reg_.Intern("ub");
    c_ = reg_.Intern("uc");
    base_ = Relation{RelSchema({a_, b_, c_})};
    base_.Add(Row({1, 10, 100}));
    base_.Add(Row({1, 20, 100}));
    base_.Add(Row({2, 10, 200}));
    view_ = FactoriseRelation(base_, {a_, b_, c_});
  }

  AttributeRegistry reg_;
  AttrId a_, b_, c_;
  Relation base_;
  Factorisation view_;
};

TEST_F(UpdateTest, ContainsTuple) {
  EXPECT_TRUE(ContainsTuple(view_, Row({1, 10, 100})));
  EXPECT_TRUE(ContainsTuple(view_, Row({2, 10, 200})));
  EXPECT_FALSE(ContainsTuple(view_, Row({1, 10, 200})));
  EXPECT_FALSE(ContainsTuple(view_, Row({3, 10, 100})));
}

TEST_F(UpdateTest, InsertNewBranch) {
  InsertOne(&view_, Row({3, 30, 300}));
  EXPECT_TRUE(view_.Validate());
  EXPECT_TRUE(ContainsTuple(view_, Row({3, 30, 300})));
  EXPECT_EQ(view_.CountTuples(), 4);
  base_.Add(Row({3, 30, 300}));
  EXPECT_TRUE(SameSet(view_.Flatten(), base_, {a_, b_, c_}, reg_));
}

TEST_F(UpdateTest, InsertIntoExistingPrefix) {
  InsertOne(&view_, Row({1, 10, 999}));
  EXPECT_TRUE(view_.Validate());
  EXPECT_EQ(view_.CountTuples(), 4);
  // The prefix is reused: still one union entry for a=1, b=10.
  EXPECT_EQ(view_.roots()[0]->size(), 2);
}

TEST_F(UpdateTest, InsertIsIdempotent) {
  InsertOne(&view_, Row({1, 10, 100}));
  EXPECT_TRUE(view_.Validate());
  EXPECT_EQ(view_.CountTuples(), 3);
}

TEST_F(UpdateTest, InsertIntoEmptyView) {
  Relation empty{RelSchema({a_, b_, c_})};
  Factorisation v = FactoriseRelation(empty, {a_, b_, c_});
  ASSERT_TRUE(v.empty());
  InsertOne(&v, Row({5, 50, 500}));
  EXPECT_FALSE(v.empty());
  EXPECT_TRUE(v.Validate());
  EXPECT_EQ(v.CountTuples(), 1);
}

TEST_F(UpdateTest, InsertSharesUntouchedBranches) {
  const FactNode* before = view_.roots()[0]->child(1, 1, 0);  // a=2
  InsertOne(&view_, Row({1, 30, 300}));
  const FactNode* after = view_.roots()[0]->child(1, 1, 0);
  EXPECT_EQ(before, after) << "untouched branch was copied";
}

TEST_F(UpdateTest, DeleteLeafValue) {
  EXPECT_TRUE(ContainsTuple(view_, Row({1, 10, 100})));
  DeleteOne(&view_, Row({1, 10, 100}));
  EXPECT_TRUE(view_.Validate());
  EXPECT_FALSE(ContainsTuple(view_, Row({1, 10, 100})));
  EXPECT_EQ(view_.CountTuples(), 2);
}

TEST_F(UpdateTest, DeletePrunesEmptiedBranches) {
  // Removing the only tuple under a=2 must prune the whole branch.
  EXPECT_TRUE(ContainsTuple(view_, Row({2, 10, 200})));
  DeleteOne(&view_, Row({2, 10, 200}));
  EXPECT_FALSE(ContainsTuple(view_, Row({2, 10, 200})));
  EXPECT_TRUE(view_.Validate());
  EXPECT_EQ(view_.roots()[0]->size(), 1);  // only a=1 left
}

TEST_F(UpdateTest, DeleteAbsentTupleIsNoOp) {
  EXPECT_FALSE(ContainsTuple(view_, Row({9, 9, 9})));
  DeleteOne(&view_, Row({9, 9, 9}));
  EXPECT_FALSE(ContainsTuple(view_, Row({9, 9, 9})));
  EXPECT_EQ(view_.CountTuples(), 3);
}

TEST_F(UpdateTest, DeleteToEmptyAndReinsert) {
  for (const Tuple& t :
       {Row({1, 10, 100}), Row({1, 20, 100}), Row({2, 10, 200})}) {
    EXPECT_TRUE(ContainsTuple(view_, t));
    DeleteOne(&view_, t);
    EXPECT_FALSE(ContainsTuple(view_, t));
  }
  EXPECT_TRUE(view_.empty());
  InsertOne(&view_, Row({7, 70, 700}));
  EXPECT_EQ(view_.CountTuples(), 1);
}

TEST_F(UpdateTest, WrongArityThrows) {
  EXPECT_THROW(InsertOne(&view_, Row({1, 2})), std::invalid_argument);
  EXPECT_THROW(ContainsTuple(view_, Row({1})), std::invalid_argument);
}

TEST_F(UpdateTest, NonPathViewThrows) {
  // A branching tree (two children) is rejected.
  FTree t;
  int root = t.AddNode({a_}, -1);
  t.AddNode({b_}, root);
  t.AddNode({c_}, root);
  Factorisation f(
      t, {MakeNode({Value(1)}, {MakeLeaf({Value(2)}), MakeLeaf({Value(3)})})});
  EXPECT_THROW(InsertOne(&f, Row({1, 2, 3})), std::invalid_argument);
}

// Property: a random interleaving of inserts and deletes keeps the view
// equal to a std::set-maintained oracle.
class UpdateProperty : public ::testing::TestWithParam<int> {};

TEST_P(UpdateProperty, RandomInsertDeleteMatchesOracle) {
  AttributeRegistry reg;
  AttrId a = reg.Intern("upa" + std::to_string(GetParam()));
  AttrId b = reg.Intern("upb" + std::to_string(GetParam()));
  Relation empty{RelSchema({a, b})};
  Factorisation view = FactoriseRelation(empty, {a, b});
  std::set<std::pair<int64_t, int64_t>> oracle;

  std::mt19937_64 rng(static_cast<uint64_t>(GetParam()) + 77);
  for (int step = 0; step < 120; ++step) {
    int64_t x = static_cast<int64_t>(rng() % 5);
    int64_t y = static_cast<int64_t>(rng() % 5);
    if (rng() % 2 == 0) {
      InsertOne(&view, Row({x, y}));
      oracle.emplace(x, y);
    } else {
      bool present = ContainsTuple(view, Row({x, y}));
      DeleteOne(&view, Row({x, y}));
      EXPECT_FALSE(ContainsTuple(view, Row({x, y}))) << "step " << step;
      EXPECT_EQ(present, oracle.erase({x, y}) > 0) << "step " << step;
    }
    ASSERT_TRUE(view.Validate()) << "step " << step;
    ASSERT_EQ(view.CountTuples(), static_cast<int64_t>(oracle.size()));
  }
  Relation expect{RelSchema({a, b})};
  for (const auto& [x, y] : oracle) expect.Add(Row({x, y}));
  if (!oracle.empty()) {
    EXPECT_TRUE(SameSet(view.Flatten(), expect, {a, b}, reg));
  } else {
    EXPECT_TRUE(view.empty());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, UpdateProperty, ::testing::Range(0, 8));

// --- ApplyBatch: one sorted merge must equal op-by-op application. ---

TEST_F(UpdateTest, ApplyBatchMatchesSequentialApplication) {
  std::vector<BatchOp> ops = {
      {true, Row({3, 30, 300})},  {true, Row({1, 10, 101})},
      {false, Row({2, 10, 200})}, {true, Row({1, 20, 150})},
      {false, Row({9, 9, 9})},  // delete of absent tuple: no-op
  };
  Model model(base_.rows().begin(), base_.rows().end());
  ApplyToModel(&model, ops);
  Factorisation seq = view_;
  for (const BatchOp& op : ops) ApplyBatch(&seq, {op});
  ApplyBatch(&view_, ops);
  ASSERT_TRUE(view_.Validate());
  EXPECT_EQ(view_.CountTuples(), static_cast<int64_t>(model.size()));
  EXPECT_TRUE(SameSet(view_.Flatten(), ModelRelation(model, {a_, b_, c_}),
                      {a_, b_, c_}, reg_));
  EXPECT_EQ(view_.CountTuples(), seq.CountTuples());
  EXPECT_TRUE(SameSet(view_.Flatten(), seq.Flatten(), {a_, b_, c_}, reg_));
}

TEST_F(UpdateTest, ApplyBatchLastOpWinsPerKey) {
  // insert then delete of the same tuple cancels; delete then re-insert
  // keeps it. Net membership is decided by the final op per key.
  ApplyBatch(&view_, {{true, Row({7, 70, 700})},
                      {false, Row({7, 70, 700})},
                      {false, Row({1, 10, 100})},
                      {true, Row({1, 10, 100})}});
  ASSERT_TRUE(view_.Validate());
  EXPECT_FALSE(ContainsTuple(view_, Row({7, 70, 700})));
  EXPECT_TRUE(ContainsTuple(view_, Row({1, 10, 100})));
  EXPECT_EQ(view_.CountTuples(), 3);
}

TEST_F(UpdateTest, ApplyBatchPreservesUntouchedSubtreeIdentity) {
  // The root union is rebuilt, but children under keys the batch never
  // touches must keep their node pointers (shared with the previous
  // version).
  ASSERT_FALSE(view_.roots().empty());
  const FactNode* root = view_.roots()[0];
  ASSERT_NE(root, nullptr);
  std::vector<std::pair<ValueRef, FactPtr>> before;
  for (int i = 0; i < root->size(); ++i) {
    before.emplace_back(root->values[static_cast<size_t>(i)],
                        root->child(i, 1, 0));
  }
  ApplyBatch(&view_, {{true, Row({50, 51, 52})}});  // new key, new branch
  const FactNode* after = view_.roots()[0];
  for (const auto& [val, child] : before) {
    bool found = false;
    for (int i = 0; i < after->size(); ++i) {
      if (after->values[static_cast<size_t>(i)] == val) {
        EXPECT_EQ(after->child(i, 1, 0), child) << "child rebuilt needlessly";
        found = true;
      }
    }
    EXPECT_TRUE(found);
  }
}

TEST_F(UpdateTest, ApplyBatchEmptyAndErrorCases) {
  Relation before = view_.Flatten();
  ApplyBatch(&view_, {});  // no-op
  EXPECT_TRUE(SameSet(view_.Flatten(), before, {a_, b_, c_}, reg_));
  EXPECT_THROW(ApplyBatch(&view_, {{true, Row({1, 2})}}),
               std::invalid_argument);  // arity mismatch
  // Validation precedes mutation: the failed batch changed nothing.
  EXPECT_TRUE(SameSet(view_.Flatten(), before, {a_, b_, c_}, reg_));
}

TEST_F(UpdateTest, ApplyBatchCanEmptyAndRefillTheView) {
  std::vector<BatchOp> wipe;
  for (const auto& t :
       {Row({1, 10, 100}), Row({1, 20, 100}), Row({2, 10, 200})}) {
    wipe.push_back({false, t});
  }
  ApplyBatch(&view_, wipe);
  EXPECT_TRUE(view_.empty());
  ApplyBatch(&view_, {{true, Row({4, 40, 400})}});
  ASSERT_TRUE(view_.Validate());
  EXPECT_EQ(view_.CountTuples(), 1);
  EXPECT_TRUE(ContainsTuple(view_, Row({4, 40, 400})));
}

class BatchProperty : public ::testing::TestWithParam<int> {};

TEST_P(BatchProperty, RandomBatchesMatchSequentialReplay) {
  AttributeRegistry reg;
  AttrId a = reg.Intern("bpa" + std::to_string(GetParam()));
  AttrId b = reg.Intern("bpb" + std::to_string(GetParam()));
  Relation empty{RelSchema({a, b})};
  Factorisation batched = FactoriseRelation(empty, {a, b});
  Factorisation seq = FactoriseRelation(empty, {a, b});
  Model model;

  std::mt19937_64 rng(static_cast<uint64_t>(GetParam()) + 4242);
  for (int round = 0; round < 25; ++round) {
    std::vector<BatchOp> ops;
    size_t n = 1 + rng() % 10;
    for (size_t i = 0; i < n; ++i) {
      BatchOp op;
      op.insert = rng() % 2 == 0;
      op.tuple = Row({static_cast<int64_t>(rng() % 6),
                      static_cast<int64_t>(rng() % 6)});
      ops.push_back(std::move(op));
    }
    ApplyBatch(&batched, ops);
    for (const BatchOp& op : ops) ApplyBatch(&seq, {op});
    ApplyToModel(&model, ops);
    ASSERT_TRUE(batched.Validate()) << "round " << round;
    ASSERT_EQ(batched.CountTuples(), static_cast<int64_t>(model.size()))
        << "round " << round;
    ASSERT_EQ(batched.CountTuples(), seq.CountTuples()) << "round " << round;
  }
  if (!model.empty()) {
    EXPECT_TRUE(
        SameSet(batched.Flatten(), ModelRelation(model, {a, b}), {a, b}, reg));
    EXPECT_TRUE(SameSet(batched.Flatten(), seq.Flatten(), {a, b}, reg));
  } else {
    EXPECT_TRUE(batched.empty());
    EXPECT_TRUE(seq.empty());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BatchProperty, ::testing::Range(0, 6));

}  // namespace
}  // namespace fdb

#ifndef FDB_RELATIONAL_RELATION_H_
#define FDB_RELATIONAL_RELATION_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "fdb/base/thread_annotations.h"
#include "fdb/relational/schema.h"
#include "fdb/relational/value.h"
#include "fdb/relational/value_dict.h"

namespace fdb {

/// A tuple of values; positions correspond to a RelSchema.
using Tuple = std::vector<Value>;

/// Sort direction for one attribute of an order-by list.
enum class SortDir { kAsc, kDesc };

/// One element of an order-by list: attribute plus direction.
struct SortKey {
  AttrId attr = kInvalidAttr;
  SortDir dir = SortDir::kAsc;
  bool operator==(const SortKey& o) const = default;
};

/// A flat in-memory relation: a schema and a vector of rows. Rows are a bag
/// (duplicates allowed) unless deduplicated explicitly; base relations and
/// all paper workloads are duplicate-free.
///
/// A relation also memoises the sorted inputs FactoriseJoin prepares from
/// it: its path columns, dictionary-encoded and sorted for one f-tree path
/// order, so a base relation is sorted once per order rather than once per
/// build. At most kMaxSortedInputs orders are kept, least recently used
/// dropped. Every mutator (Add, mutable_rows, SortBy, SortAndDedup,
/// assignment) drops the memo; a reference from mutable_rows() must not be
/// written through after a later build. Copies start with the source's
/// memo, whose columns are immutable and shared. Concurrent const use
/// (builds on many threads) is safe.
class Relation {
 public:
  /// One sorted input: cols[step][row], the path columns sorted
  /// lexicographically in step order.
  using SortedColumns = std::vector<std::vector<ValueRef>>;
  /// The key of a sorted input: the column positions of each path step,
  /// root first. Columns sharing a step are equated (rows where they
  /// differ are filtered out), and the step's value is its first column.
  using SortedColumnsKey = std::vector<std::vector<int>>;
  static constexpr size_t kMaxSortedInputs = 4;

  Relation() = default;
  explicit Relation(RelSchema schema) : schema_(std::move(schema)) {}
  Relation(RelSchema schema, std::vector<Tuple> rows)
      : schema_(std::move(schema)), rows_(std::move(rows)) {}
  Relation(const Relation& o);
  Relation(Relation&& o) noexcept;
  Relation& operator=(const Relation& o);
  Relation& operator=(Relation&& o) noexcept;

  const RelSchema& schema() const { return schema_; }
  const std::vector<Tuple>& rows() const { return rows_; }
  std::vector<Tuple>& mutable_rows() {
    DropSortedInputs();
    return rows_;
  }
  int64_t size() const { return static_cast<int64_t>(rows_.size()); }
  bool empty() const { return rows_.empty(); }

  void Add(Tuple t) {
    DropSortedInputs();
    rows_.push_back(std::move(t));
  }

  /// The memoised sorted input for `key`, or null on a miss. A hit
  /// becomes the most recently used order.
  std::shared_ptr<const SortedColumns> FindSortedInput(
      const SortedColumnsKey& key) const;
  /// Memoises `cols` as the sorted input for `key`, evicting the least
  /// recently used order beyond kMaxSortedInputs. If `key` is already
  /// present (a concurrent miss stored first) `cols` is dropped.
  void StoreSortedInput(SortedColumnsKey key,
                        std::shared_ptr<const SortedColumns> cols) const;
  /// Number of memoised sorted inputs.
  size_t num_sorted_inputs() const;

  /// Sorts rows lexicographically by `keys` (other attributes break no ties).
  void SortBy(const std::vector<SortKey>& keys);

  /// Sorts rows by all attributes ascending and removes exact duplicates.
  void SortAndDedup();

  /// True if rows are sorted lexicographically by `keys` (ties arbitrary).
  bool IsSortedBy(const std::vector<SortKey>& keys) const;

  /// Set equality: same schema attribute list and same set of rows
  /// (both sides compared after sort+dedup; inputs are not modified).
  bool SetEquals(const Relation& o) const;

  /// Bag equality: same schema and same multiset of rows.
  bool BagEquals(const Relation& o) const;

  /// Renders at most `max_rows` rows for debugging.
  std::string ToString(const AttributeRegistry& reg, int max_rows = 20) const;

 private:
  struct SortedInput {
    SortedColumnsKey key;
    std::shared_ptr<const SortedColumns> cols;
  };

  // Mutators are non-const, so no const call (no memo lookup or store)
  // may overlap them on this relation: dropping needs no lock, and Add
  // stays lock-free on the bulk-load paths.
  void DropSortedInputs() NO_THREAD_SAFETY_ANALYSIS { memo_.clear(); }
  std::vector<SortedInput> CopySortedInputs() const;

  RelSchema schema_;
  std::vector<Tuple> rows_;
  mutable base::Mutex memo_mu_;
  // Most recently used first. The columns are shared read-only, so a
  // build holding one keeps it alive across a mutation that drops it.
  mutable std::vector<SortedInput> memo_ GUARDED_BY(memo_mu_);
};

/// Three-way lexicographic comparison of two tuples under sort keys, given
/// the positions of each key attribute in the tuple's schema.
int CompareTuples(const Tuple& a, const Tuple& b,
                  const std::vector<std::pair<int, SortDir>>& key_positions);

/// Resolves sort keys to (position, direction) pairs for `schema`.
/// Throws std::invalid_argument if a key attribute is missing.
std::vector<std::pair<int, SortDir>> ResolveKeys(
    const RelSchema& schema, const std::vector<SortKey>& keys);

}  // namespace fdb

#endif  // FDB_RELATIONAL_RELATION_H_

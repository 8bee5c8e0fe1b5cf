#include "fdb/relational/relation.h"

#include <algorithm>
#include <sstream>
#include <stdexcept>
#include <utility>

namespace fdb {

int CompareTuples(const Tuple& a, const Tuple& b,
                  const std::vector<std::pair<int, SortDir>>& key_positions) {
  for (const auto& [pos, dir] : key_positions) {
    auto c = a[pos] <=> b[pos];
    if (c != std::strong_ordering::equal) {
      bool less = c == std::strong_ordering::less;
      if (dir == SortDir::kDesc) less = !less;
      return less ? -1 : 1;
    }
  }
  return 0;
}

std::vector<std::pair<int, SortDir>> ResolveKeys(
    const RelSchema& schema, const std::vector<SortKey>& keys) {
  std::vector<std::pair<int, SortDir>> out;
  out.reserve(keys.size());
  for (const SortKey& k : keys) {
    int pos = schema.IndexOf(k.attr);
    if (pos < 0) {
      throw std::invalid_argument("ResolveKeys: attribute not in schema");
    }
    out.emplace_back(pos, k.dir);
  }
  return out;
}

Relation::Relation(const Relation& o)
    : schema_(o.schema_), rows_(o.rows_), memo_(o.CopySortedInputs()) {}

Relation::Relation(Relation&& o) noexcept
    : schema_(std::move(o.schema_)), rows_(std::move(o.rows_)) {
  base::MutexLock l(&o.memo_mu_);
  memo_ = std::exchange(o.memo_, {});
}

Relation& Relation::operator=(const Relation& o) {
  return *this = Relation(o);
}

Relation& Relation::operator=(Relation&& o) noexcept {
  if (this == &o) return *this;
  std::vector<SortedInput> memo;
  {
    base::MutexLock l(&o.memo_mu_);
    memo = std::exchange(o.memo_, {});
  }
  schema_ = std::move(o.schema_);
  rows_ = std::move(o.rows_);
  base::MutexLock l(&memo_mu_);
  memo_ = std::move(memo);
  return *this;
}

std::vector<Relation::SortedInput> Relation::CopySortedInputs() const {
  base::MutexLock l(&memo_mu_);
  return memo_;
}

std::shared_ptr<const Relation::SortedColumns> Relation::FindSortedInput(
    const SortedColumnsKey& key) const {
  base::MutexLock l(&memo_mu_);
  auto it = std::find_if(memo_.begin(), memo_.end(),
                         [&key](const SortedInput& e) { return e.key == key; });
  if (it == memo_.end()) return nullptr;
  std::rotate(memo_.begin(), it, it + 1);
  return memo_.front().cols;
}

void Relation::StoreSortedInput(
    SortedColumnsKey key, std::shared_ptr<const SortedColumns> cols) const {
  base::MutexLock l(&memo_mu_);
  for (const SortedInput& e : memo_) {
    if (e.key == key) return;
  }
  memo_.insert(memo_.begin(), SortedInput{std::move(key), std::move(cols)});
  if (memo_.size() > kMaxSortedInputs) memo_.pop_back();
}

size_t Relation::num_sorted_inputs() const {
  base::MutexLock l(&memo_mu_);
  return memo_.size();
}

void Relation::SortBy(const std::vector<SortKey>& keys) {
  DropSortedInputs();
  auto pos = ResolveKeys(schema_, keys);
  std::stable_sort(rows_.begin(), rows_.end(),
                   [&pos](const Tuple& a, const Tuple& b) {
                     return CompareTuples(a, b, pos) < 0;
                   });
}

void Relation::SortAndDedup() {
  DropSortedInputs();
  std::sort(rows_.begin(), rows_.end());
  rows_.erase(std::unique(rows_.begin(), rows_.end()), rows_.end());
}

bool Relation::IsSortedBy(const std::vector<SortKey>& keys) const {
  auto pos = ResolveKeys(schema_, keys);
  for (size_t i = 1; i < rows_.size(); ++i) {
    if (CompareTuples(rows_[i - 1], rows_[i], pos) > 0) return false;
  }
  return true;
}

bool Relation::SetEquals(const Relation& o) const {
  if (schema_ != o.schema_) return false;
  std::vector<Tuple> a = rows_, b = o.rows_;
  std::sort(a.begin(), a.end());
  a.erase(std::unique(a.begin(), a.end()), a.end());
  std::sort(b.begin(), b.end());
  b.erase(std::unique(b.begin(), b.end()), b.end());
  return a == b;
}

bool Relation::BagEquals(const Relation& o) const {
  if (schema_ != o.schema_) return false;
  std::vector<Tuple> a = rows_, b = o.rows_;
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  return a == b;
}

std::string Relation::ToString(const AttributeRegistry& reg,
                               int max_rows) const {
  std::ostringstream os;
  os << schema_.ToString(reg) << " [" << rows_.size() << " rows]\n";
  int n = 0;
  for (const Tuple& t : rows_) {
    if (n++ >= max_rows) {
      os << "  ...\n";
      break;
    }
    os << "  (";
    for (size_t i = 0; i < t.size(); ++i) {
      if (i) os << ", ";
      os << t[i];
    }
    os << ")\n";
  }
  return os.str();
}

}  // namespace fdb

#include "fdb/relational/value_dict.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <functional>
#include <limits>
#include <ostream>

#include "fdb/obs/metrics.h"

namespace fdb {
namespace {

obs::Counter& InternsCounter() {
  static obs::Counter& c = obs::Registry::Instance().GetCounter(
      "dict.interns", "strings", "new strings added to the value dictionary");
  return c;
}

obs::Counter& OutOfOrderCounter() {
  static obs::Counter& c = obs::Registry::Instance().GetCounter(
      "dict.interns_out_of_order", "strings",
      "interns that had to splice the rank permutation");
  return c;
}

obs::Counter& ExclusiveLockCounter() {
  static obs::Counter& c = obs::Registry::Instance().GetCounter(
      "dict.lock_exclusive", "acquisitions",
      "exclusive (writer) acquisitions of the dictionary lock");
  return c;
}

std::strong_ordering OrderDoubles(double a, double b) {
  if (a < b) return std::strong_ordering::less;
  if (a > b) return std::strong_ordering::greater;
  return std::strong_ordering::equal;
}

}  // namespace

// --- ValueRef --------------------------------------------------------------

Value ValueRef::ToValue() const { return ValueDict::Default().Decode(*this); }

size_t ValueRef::Hash() const {
  if (is_null()) return value_hash::OfNull();
  if (is_int()) return value_hash::OfInt(as_int());
  if (is_double()) return value_hash::OfDouble(as_double());
  return value_hash::OfString(as_string());
}

std::ostream& operator<<(std::ostream& os, const ValueRef& v) {
  return os << v.ToString();
}

bool EvalCmpRef(const ValueRef& a, CmpOp op, const ValueRef& b) {
  switch (op) {
    case CmpOp::kEq:
      return a == b;
    case CmpOp::kNe:
      return !(a == b);
    case CmpOp::kLt:
      return a < b;
    case CmpOp::kLe:
      return a <= b;
    case CmpOp::kGt:
      return a > b;
    case CmpOp::kGe:
      return a >= b;
  }
  return false;
}

// --- ValueDict -------------------------------------------------------------

std::optional<uint32_t> ValueDict::Find(std::string_view s) const {
  base::ReaderMutexLock lk(&mu_);
  auto it = index_.find(s);
  if (it == index_.end()) return std::nullopt;
  return it->second;
}

uint32_t ValueDict::Intern(std::string_view s) {
  {
    // Fast path: already interned (the common case on query paths).
    base::ReaderMutexLock lk(&mu_);
    auto it = index_.find(s);
    if (it != index_.end()) return it->second;
  }
  ExclusiveLockCounter().Inc();
  base::WriterMutexLock lk(&mu_);
  auto it = index_.find(s);  // re-check: another writer may have won
  if (it != index_.end()) return it->second;
  return InternInOrder(s);
}

uint32_t ValueDict::InternInOrder(std::string_view s) {
  InternsCounter().Inc();
  uint32_t code = static_cast<uint32_t>(strings_.size());
  const std::string& stored = strings_.emplace_back(s.data(), s.size());
  index_.emplace(stored, code);
  if (by_rank_.empty() || strings_[by_rank_.back()] < s) {
    // Common case (bulk-sorted loading): append rank.
    by_rank_.push_back(code);
    rank_.emplace_back(static_cast<uint32_t>(by_rank_.size()) - 1);
    return code;
  }
  // Out-of-order insertion: splice into the rank order and shift the ranks
  // of everything after the insertion point. The seqlock generation goes
  // odd for the duration so concurrent CompareStringRanks readers retry
  // instead of observing a half-shifted permutation.
  OutOfOrderCounter().Inc();
  auto pos = std::lower_bound(
      by_rank_.begin(), by_rank_.end(), s,
      [this](uint32_t c, std::string_view v) { return strings_[c] < v; });
  size_t p = static_cast<size_t>(pos - by_rank_.begin());
  by_rank_.insert(pos, code);
  rank_.emplace_back(0u);
  uint32_t gen = rank_gen_.load(std::memory_order_relaxed);
  rank_gen_.store(gen + 1, std::memory_order_relaxed);
  for (size_t i = p; i < by_rank_.size(); ++i) {
    rank_[by_rank_[i]].store(static_cast<uint32_t>(i),
                             std::memory_order_release);
  }
  rank_gen_.store(gen + 2, std::memory_order_release);
  return code;
}

void ValueDict::InternBulk(std::vector<std::string_view> strs) {
  std::sort(strs.begin(), strs.end());
  strs.erase(std::unique(strs.begin(), strs.end()), strs.end());
  ExclusiveLockCounter().Inc();
  base::WriterMutexLock lk(&mu_);
  // Append all new strings first, then rebuild the rank permutation once:
  // a single O(old + new) merge instead of one O(#strings) rank shift per
  // out-of-order insertion.
  std::vector<uint32_t> fresh;
  for (std::string_view s : strs) {
    if (index_.find(s) != index_.end()) continue;
    uint32_t code = static_cast<uint32_t>(strings_.size());
    const std::string& stored = strings_.emplace_back(s.data(), s.size());
    index_.emplace(stored, code);
    rank_.emplace_back(0u);
    fresh.push_back(code);  // sorted by string, since strs is
  }
  if (fresh.empty()) return;
  InternsCounter().Inc(fresh.size());
  std::vector<uint32_t> merged;
  merged.reserve(by_rank_.size() + fresh.size());
  std::merge(by_rank_.begin(), by_rank_.end(), fresh.begin(), fresh.end(),
             std::back_inserter(merged), [this](uint32_t a, uint32_t b) {
               return strings_[a] < strings_[b];
             });
  by_rank_ = std::move(merged);
  uint32_t gen = rank_gen_.load(std::memory_order_relaxed);
  rank_gen_.store(gen + 1, std::memory_order_relaxed);
  for (size_t i = 0; i < by_rank_.size(); ++i) {
    rank_[by_rank_[i]].store(static_cast<uint32_t>(i),
                             std::memory_order_release);
  }
  rank_gen_.store(gen + 2, std::memory_order_release);
}

uint32_t ValueDict::InternBigInt(int64_t v) {
  {
    base::ReaderMutexLock lk(&mu_);
    auto it = big_index_.find(v);
    if (it != big_index_.end()) return it->second;
  }
  ExclusiveLockCounter().Inc();
  base::WriterMutexLock lk(&mu_);
  auto it = big_index_.find(v);
  if (it != big_index_.end()) return it->second;
  uint32_t slot = static_cast<uint32_t>(big_ints_.size());
  big_ints_.push_back(v);
  big_index_.emplace(v, slot);
  return slot;
}

ValueRef ValueDict::Encode(const Value& v) {
  if (v.is_null()) return ValueRef();
  if (v.is_int()) {
    int64_t i = v.as_int();
    if (i >= ValueRef::kInlineIntMin && i <= ValueRef::kInlineIntMax) {
      return ValueRef::Boxed(ValueRef::kTagInt, static_cast<uint64_t>(i));
    }
    return ValueRef::Boxed(ValueRef::kTagBigInt, InternBigInt(i));
  }
  if (v.is_double()) {
    double d = v.as_double();
    if (d != d) return ValueRef::Boxed(ValueRef::kTagNaN, 0);
    if (d == 0.0) d = 0.0;  // canonicalise -0.0 (equal values, equal bits)
    return ValueRef::FromBits(std::bit_cast<uint64_t>(d));
  }
  return ValueRef::Boxed(ValueRef::kTagStr, Intern(v.as_string()));
}

std::optional<ValueRef> ValueDict::TryEncode(const Value& v) const {
  if (v.is_null()) return ValueRef();
  if (v.is_int()) {
    int64_t i = v.as_int();
    if (i >= ValueRef::kInlineIntMin && i <= ValueRef::kInlineIntMax) {
      return ValueRef::Boxed(ValueRef::kTagInt, static_cast<uint64_t>(i));
    }
    base::ReaderMutexLock lk(&mu_);
    auto it = big_index_.find(i);
    if (it == big_index_.end()) return std::nullopt;
    return ValueRef::Boxed(ValueRef::kTagBigInt, it->second);
  }
  if (v.is_double()) {
    double d = v.as_double();
    if (d != d) return ValueRef::Boxed(ValueRef::kTagNaN, 0);
    if (d == 0.0) d = 0.0;  // canonicalise -0.0 (equal values, equal bits)
    return ValueRef::FromBits(std::bit_cast<uint64_t>(d));
  }
  base::ReaderMutexLock lk(&mu_);
  auto it = index_.find(v.as_string());
  if (it == index_.end()) return std::nullopt;
  return ValueRef::Boxed(ValueRef::kTagStr, it->second);
}

Value ValueDict::Decode(const ValueRef& r) const {
  switch (r.top16()) {
    case ValueRef::kTagNull:
      return Value();
    case ValueRef::kTagInt:
      return Value(r.inline_int());
    case ValueRef::kTagStr:
      return Value(str(r.payload32()));
    case ValueRef::kTagBigInt:
      return Value(big_int(r.payload32()));
    case ValueRef::kTagNaN:
      return Value(std::numeric_limits<double>::quiet_NaN());
    default:
      return Value(std::bit_cast<double>(r.bits()));
  }
}

std::strong_ordering ValueDict::Compare(const ValueRef& a,
                                        const ValueRef& b) const {
  int ra = a.TypeRank(), rb = b.TypeRank();
  if (ra != rb) return ra <=> rb;
  if (ra == 0) return std::strong_ordering::equal;
  if (ra == 2) {
    if (a.bits() == b.bits()) return std::strong_ordering::equal;
    return CompareStringRanks(a.payload32(), b.payload32());
  }
  // Numeric: resolve big integers through *this* pool, not Default().
  auto int_of = [this](const ValueRef& r) {
    return r.top16() == ValueRef::kTagBigInt ? big_int(r.payload32())
                                             : r.inline_int();
  };
  if (a.is_int() && b.is_int()) return int_of(a) <=> int_of(b);
  double da = a.is_int() ? static_cast<double>(int_of(a)) : a.as_double();
  double db = b.is_int() ? static_cast<double>(int_of(b)) : b.as_double();
  return OrderDoubles(da, db);
}

}  // namespace fdb

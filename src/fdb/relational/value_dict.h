#ifndef FDB_RELATIONAL_VALUE_DICT_H_
#define FDB_RELATIONAL_VALUE_DICT_H_

#include <atomic>
#include <compare>
#include <cstdint>
#include <iosfwd>
#include <optional>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "fdb/base/thread_annotations.h"
#include "fdb/exec/stable_vector.h"
#include "fdb/relational/value.h"

namespace fdb {

class ValueDict;

/// An 8-byte NaN-boxed handle to a database value: the compact physical
/// representation stored inside factorisations (one ValueRef per singleton).
///
/// Layout: plain doubles are stored as their IEEE-754 bits (NaNs are
/// canonicalised on encode), and everything else lives in the quiet-NaN
/// space, discriminated by the top 16 bits:
///
///   0x7FF9  null
///   0x7FFA  integer, payload = low 48 bits sign-extended
///   0x7FFB  string, payload = dictionary code (ValueDict)
///   0x7FFC  big integer (|i| >= 2^47), payload = dictionary pool slot
///   0x7FFD  canonical NaN double
///
/// ValueRefs order and hash exactly like the boxed `Value` they encode:
/// null < numeric < string, integers and doubles compared numerically,
/// strings by dictionary rank (the dictionary assigns order-preserving
/// ranks, so no string comparison happens on the hot paths). Strings and
/// big integers resolve through the process-default `ValueDict`; refs from
/// explicitly constructed dictionaries must be compared/decoded through
/// that dictionary's own API.
class ValueRef {
 public:
  /// Null.
  constexpr ValueRef() = default;

  static ValueRef FromBits(uint64_t bits) { return ValueRef(bits); }
  uint64_t bits() const { return bits_; }

  bool is_null() const { return top16() == kTagNull; }
  bool is_int() const { return top16() == kTagInt || top16() == kTagBigInt; }
  bool is_double() const { return !is_boxed() || top16() == kTagNaN; }
  bool is_string() const { return top16() == kTagStr; }
  bool is_numeric() const { return is_int() || is_double(); }
  /// True for pooled integers (|i| >= 2^47); a subset of is_int().
  bool is_big_int() const { return top16() == kTagBigInt; }

  /// The integer payload. Requires is_int(). Big integers resolve through
  /// the default dictionary's pool.
  int64_t as_int() const;  // inline below
  /// The double payload. Requires is_double().
  double as_double() const;  // inline below
  /// The string payload (default dictionary). Requires is_string().
  const std::string& as_string() const;  // inline below
  /// The dictionary code of a string ref. Requires is_string().
  uint32_t string_code() const { return payload32(); }
  /// The big-int pool slot of a pooled integer ref. Requires is_big_int().
  uint32_t big_int_slot() const { return payload32(); }

  /// Rebuilds a string ref from a dictionary code / a pooled-integer ref
  /// from a pool slot (the storage layer's code-remapping path; everything
  /// else goes through ValueDict::Encode).
  static ValueRef StringRef(uint32_t code) { return Boxed(kTagStr, code); }
  static ValueRef BigIntRef(uint32_t slot) { return Boxed(kTagBigInt, slot); }

  /// Numeric view (int widened to double). Requires is_numeric().
  double numeric() const {
    return is_int() ? static_cast<double>(as_int()) : as_double();
  }

  /// Rehydrates to a boxed Value (default dictionary).
  Value ToValue() const;
  std::string ToString() const { return ToValue().ToString(); }

  /// Hash with the same equality contract as Value::Hash (hash(2.0) ==
  /// hash(2); strings hash by content).
  size_t Hash() const;

  /// A mostly order-preserving 64-bit sort key: key(a) < key(b) implies
  /// a < b, and distinct values collide only for numerics within 4 ulps
  /// (doubles / big integers) — callers must break key ties with the exact
  /// comparison. String keys use the dictionary rank, so a key is only
  /// valid until the next out-of-order insertion; compute keys after bulk
  /// interning, use them within one sort, and discard.
  uint64_t OrderKey() const;  // inline below

  bool operator==(const ValueRef& o) const;              // inline below
  std::strong_ordering operator<=>(const ValueRef& o) const;  // inline below

 private:
  friend class ValueDict;

  static constexpr uint64_t kTagNull = 0x7FF9;
  static constexpr uint64_t kTagInt = 0x7FFA;
  static constexpr uint64_t kTagStr = 0x7FFB;
  static constexpr uint64_t kTagBigInt = 0x7FFC;
  static constexpr uint64_t kTagNaN = 0x7FFD;
  static constexpr uint64_t kPayloadMask = 0x0000FFFFFFFFFFFFull;
  static constexpr int64_t kInlineIntMax = (int64_t{1} << 47) - 1;
  static constexpr int64_t kInlineIntMin = -(int64_t{1} << 47);

  constexpr explicit ValueRef(uint64_t bits) : bits_(bits) {}
  static constexpr ValueRef Boxed(uint64_t tag, uint64_t payload) {
    return ValueRef((tag << 48) | (payload & kPayloadMask));
  }

  uint32_t top16() const { return static_cast<uint32_t>(bits_ >> 48); }
  bool is_boxed() const { return top16() - kTagNull <= kTagNaN - kTagNull; }
  uint32_t payload32() const { return static_cast<uint32_t>(bits_); }
  int64_t inline_int() const {
    return static_cast<int64_t>(bits_ << 16) >> 16;
  }
  // 0 = null, 1 = numeric, 2 = string (cross-type ordering rank).
  int TypeRank() const {
    if (is_null()) return 0;
    return is_string() ? 2 : 1;
  }

  uint64_t bits_ = kTagNull << 48;
};

std::ostream& operator<<(std::ostream& os, const ValueRef& v);

struct ValueRefHash {
  size_t operator()(const ValueRef& v) const { return v.Hash(); }
};

/// Evaluates `a op b` under the total value order (ref-native; no boxing).
bool EvalCmpRef(const ValueRef& a, CmpOp op, const ValueRef& b);

/// An order-preserving value dictionary: interns strings to stable 32-bit
/// codes and maintains a rank permutation so two codes compare in string
/// order with two array loads. Codes never change once assigned (they are
/// embedded in immutable factorisation nodes); an out-of-order insertion
/// shifts the *ranks* of all larger strings instead (O(#strings) worst
/// case, amortised to O(1) by the bulk-loading paths which pre-intern in
/// sorted order). Also pools integers too large to inline in a ValueRef.
///
/// `Default()` is the process-wide dictionary used by all ValueRef
/// accessors and comparisons; `Database` hands out a shared handle to it.
///
/// Thread safety: the intern path is exclusive (one writer at a time,
/// serialised on an internal shared_mutex), lookups that walk the hash
/// indexes (Find, TryEncode, the found-fast-path of Intern) take a shared
/// lock, and the hot code→value reads — str(), rank(), big_int(),
/// Decode(), Compare() and every ValueRef comparison — are lock-free:
/// strings and pool slots live in append-only stable storage, and rank
/// entries are atomics. An *out-of-order* intern (a new string that is
/// not last in sort order — e.g. a commit racing readers) shifts
/// the ranks of larger strings; pairwise string comparisons stay correct
/// through a seqlock (CompareStringRanks retries while a shift is in
/// flight), so concurrent queries never observe a misordering. Only the
/// single-value rank() accessor and OrderKey() sort keys are
/// shift-transient, as their contracts already state: compute keys after
/// bulk interning and use them within one sort.
class ValueDict {
 public:
  ValueDict() = default;
  ValueDict(const ValueDict&) = delete;
  ValueDict& operator=(const ValueDict&) = delete;

  /// The process-default dictionary (never destroyed).
  static ValueDict& Default() {
    static ValueDict* dict = new ValueDict();  // immortal
    return *dict;
  }

  // --- strings ------------------------------------------------------------

  /// Interns `s`, returning its stable code (existing code if present).
  uint32_t Intern(std::string_view s);
  /// The code of `s` if already interned (never inserts).
  std::optional<uint32_t> Find(std::string_view s) const;
  /// Interns a batch; sorts it first so appends dominate and at most one
  /// rank rebuild happens. Use on bulk-load paths (CSV, relation encoding).
  void InternBulk(std::vector<std::string_view> strs);
  const std::string& str(uint32_t code) const { return strings_[code]; }
  /// A single rank read: lock-free, but transient while an out-of-order
  /// intern shifts ranks. Use CompareStringRanks for ordering decisions.
  uint32_t rank(uint32_t code) const {
    return rank_[code].load(std::memory_order_relaxed);
  }
  /// Orders two string codes by rank, consistently even while a
  /// concurrent out-of-order intern is shifting the rank permutation:
  /// seqlock reads retry on instability, falling back to a shared lock
  /// (i.e. waiting out the writer) after a bounded spin.
  std::strong_ordering CompareStringRanks(uint32_t a, uint32_t b) const;
  /// Blocks interning — and with it rank shifts — for the guard's
  /// lifetime (shared mode: other readers and freezers are unaffected).
  /// Hold around batch rank-key computations (OrderKey) together with
  /// the sorts consuming them, so all keys in the batch are mutually
  /// consistent even while concurrent updates intern new strings. The
  /// holder must not intern through this dictionary (self-deadlock).
  std::shared_lock<std::shared_mutex> FreezeRanks() const {
    return std::shared_lock<std::shared_mutex>(mu_.native());
  }
  size_t num_strings() const { return strings_.size(); }

  /// Overwrites one code's rank without touching by_rank_, deliberately
  /// desynchronising the permutation. Only for corruption-seeding in
  /// tests of the deep invariant checker (fdb/check).
  void TestOnlyCorruptRank(uint32_t code, uint32_t rank) {
    base::WriterMutexLock lk(&mu_);
    rank_[code].store(rank, std::memory_order_relaxed);
  }

  // --- big integer pool ---------------------------------------------------

  uint32_t InternBigInt(int64_t v);
  int64_t big_int(uint32_t slot) const { return big_ints_[slot]; }
  size_t num_big_ints() const { return big_ints_.size(); }

  // --- boxed <-> ref ------------------------------------------------------

  /// Encodes a boxed value, interning strings / pooling big integers.
  ValueRef Encode(const Value& v);
  /// Encodes without inserting: nullopt if the string (or big integer) is
  /// not in the dictionary — i.e. no stored singleton can equal `v`.
  std::optional<ValueRef> TryEncode(const Value& v) const;
  /// Rehydrates a ref produced by this dictionary.
  Value Decode(const ValueRef& r) const;

  /// Three-way comparison within *this* dictionary (for non-default
  /// instances; equivalent to operator<=> on Default()-encoded refs).
  std::strong_ordering Compare(const ValueRef& a, const ValueRef& b) const;

 private:
  uint32_t InternInOrder(std::string_view s) REQUIRES(mu_);

  // Guards the hash indexes and by_rank_, and serialises writers. The
  // stable vectors are written only under exclusive mu_ but read without
  // it (see the class comment).
  mutable base::SharedMutex mu_;
  // Element addresses are stable, so index_ keys can view into it and
  // readers resolve published codes lock-free.
  exec::StableVector<std::string> strings_;
  std::unordered_map<std::string_view, uint32_t> index_ GUARDED_BY(mu_);
  exec::StableVector<std::atomic<uint32_t>> rank_;  // code -> rank
  std::vector<uint32_t> by_rank_ GUARDED_BY(mu_);   // rank -> code
  // Seqlock generation for rank shifts: odd while a writer (holding mu_
  // exclusively) is rewriting existing rank entries.
  std::atomic<uint32_t> rank_gen_{0};
  exec::StableVector<int64_t> big_ints_;
  std::unordered_map<int64_t, uint32_t> big_index_ GUARDED_BY(mu_);
};

// --- hot-path inline definitions (ValueRef needs ValueDict) ----------------

inline std::strong_ordering ValueDict::CompareStringRanks(uint32_t a,
                                                          uint32_t b) const {
  for (int spin = 0; spin < 64; ++spin) {
    uint32_t g1 = rank_gen_.load(std::memory_order_acquire);
    if (g1 & 1u) continue;  // shift in flight
    // Acquire loads keep the generation re-read below after them, and a
    // rank a shift stored (release) brings that shift's odd generation
    // with it — so a torn pair never passes the re-check.
    uint32_t ra = rank_[a].load(std::memory_order_acquire);
    uint32_t rb = rank_[b].load(std::memory_order_acquire);
    if (rank_gen_.load(std::memory_order_relaxed) == g1) return ra <=> rb;
  }
  // A shift writer persists (e.g. preempted mid-rebuild): wait it out on
  // the lock instead of spinning.
  std::shared_lock<std::shared_mutex> lk(mu_.native());
  return rank_[a].load(std::memory_order_relaxed) <=>
         rank_[b].load(std::memory_order_relaxed);
}

inline int64_t ValueRef::as_int() const {
  if (top16() == kTagInt) return inline_int();
  return ValueDict::Default().big_int(payload32());
}

inline double ValueRef::as_double() const {
  if (top16() == kTagNaN) return __builtin_nan("");
  return __builtin_bit_cast(double, bits_);
}

inline const std::string& ValueRef::as_string() const {
  return ValueDict::Default().str(payload32());
}

inline uint64_t ValueRef::OrderKey() const {
  uint32_t t = top16();
  if (t == kTagNull) return 0;
  if (t == kTagStr) {
    return (uint64_t{3} << 62) | ValueDict::Default().rank(payload32());
  }
  // Numeric band: the standard monotone double→uint64 mapping, truncated
  // by two bits to make room for the band tag. Integers below 2^51 stay
  // exact; everything else can collide within 4 ulps (tie-break needed).
  // +0.0 normalises -0.0 so the two equal zeros share one key.
  uint64_t u = __builtin_bit_cast(uint64_t, numeric() + 0.0);
  u = (u & 0x8000000000000000ull) ? ~u : (u | 0x8000000000000000ull);
  return (uint64_t{1} << 62) | (u >> 2);
}

inline std::strong_ordering ValueRef::operator<=>(const ValueRef& o) const {
  uint32_t ta = top16(), tb = o.top16();
  if (ta == kTagInt && tb == kTagInt) {
    return inline_int() <=> o.inline_int();
  }
  if (ta == kTagStr && tb == kTagStr) {
    if (bits_ == o.bits_) return std::strong_ordering::equal;
    return ValueDict::Default().CompareStringRanks(payload32(),
                                                   o.payload32());
  }
  int ra = TypeRank(), rb = o.TypeRank();
  if (ra != rb) return ra <=> rb;
  if (ra == 0) return std::strong_ordering::equal;
  // Both numeric: exact for int/int (big ints included), else as doubles.
  if (is_int() && o.is_int()) return as_int() <=> o.as_int();
  double a = numeric(), b = o.numeric();
  if (a < b) return std::strong_ordering::less;
  if (a > b) return std::strong_ordering::greater;
  return std::strong_ordering::equal;
}

inline bool ValueRef::operator==(const ValueRef& o) const {
  if (bits_ == o.bits_) return true;
  // Same-tag strings/nulls with different bits are distinct; the remaining
  // cross-representation equalities (int vs double) go through the order.
  uint32_t ta = top16(), tb = o.top16();
  if (ta == tb && (ta == kTagStr || ta == kTagInt || ta == kTagNull)) {
    return false;
  }
  return (*this <=> o) == std::strong_ordering::equal;
}

}  // namespace fdb

#endif  // FDB_RELATIONAL_VALUE_DICT_H_

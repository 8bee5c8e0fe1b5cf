#ifndef FDB_OBS_METRICS_H_
#define FDB_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace fdb {
namespace obs {

/// A low-overhead process-wide metrics registry.
///
/// Three metric kinds, all safe to hammer from any number of threads:
///
///   Counter    monotonic; per-thread-sharded so a hot-path increment is
///              one relaxed atomic fetch_add with no cache-line ping-pong
///              between workers. Merged (summed) on read.
///   Gauge      a single signed value with Set / Add / UpdateMax — the
///              last shape is a high-water mark (queue depths, chain
///              lengths).
///   Histogram  fixed power-of-two buckets over uint64 samples
///              (nanoseconds, bytes, ops — the unit is declared at
///              registration). Sharded like counters; reads merge the
///              shards into a HistogramSnapshot that interpolates
///              p50/p95/p99 inside the hit bucket.
///
/// The whole surface is gated on one process-wide switch: when metrics
/// are disabled (the default unless FDB_METRICS=1 is set in the
/// environment), every record path is a single relaxed atomic load and a
/// predicted-not-taken branch — no stores, no allocation — so the
/// instrumentation can stay compiled into release binaries. Metric
/// objects live forever once registered (the registry is immortal), so
/// call sites cache `static Counter& c = Registry::Instance().GetCounter(...)`
/// and never pay the name lookup again.
///
/// Everything here is TSan-clean by construction: shards are atomics,
/// registration and snapshotting take an internal mutex, and there is no
/// unsynchronised mutable state anywhere.

namespace detail {
// Constant-initialised so metric sites are safe during static init;
// Registry's constructor applies the FDB_METRICS environment override.
extern std::atomic<bool> g_metrics_enabled;

inline constexpr int kCounterShards = 16;  // power of two
inline constexpr int kHistShards = 8;      // power of two
// Bucket 0 holds {0}; bucket i >= 1 holds [2^(i-1), 2^i - 1].
inline constexpr int kHistBuckets = 65;

/// Dense id of the calling thread (assigned on first use, never reused).
int ThreadSlot();
}  // namespace detail

/// The process-wide metrics switch (one relaxed load — the hot-path gate).
inline bool MetricsEnabled() {
  return detail::g_metrics_enabled.load(std::memory_order_relaxed);
}

/// Flips the switch at runtime (shell startup, benches, tests). Metrics
/// recorded while enabled stay readable after disabling.
void SetMetricsEnabled(bool on);

/// Monotonic clock in nanoseconds (steady; shared by traces and latency
/// recording so spans and histograms agree).
int64_t NowNs();

/// Escapes `s` for embedding inside a JSON string literal: quotes,
/// backslashes, and every control character below 0x20 (named escapes
/// for \n \t \r \b \f, \u00XX for the rest). View and attribute names
/// are user-controlled strings, so every JSON exporter (metrics, Chrome
/// traces, the event log sink) must go through this.
std::string JsonEscape(const std::string& s);

/// A monotonic counter. Inc is wait-free: one enabled-check load plus one
/// relaxed fetch_add on the caller's shard.
class Counter {
 public:
  Counter() = default;
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void Inc(uint64_t n = 1) {
    if (!MetricsEnabled()) return;
    shards_[detail::ThreadSlot() & (detail::kCounterShards - 1)].v.fetch_add(
        n, std::memory_order_relaxed);
  }
  /// Sum over all shards (relaxed: a concurrent read sees some recent
  /// value of every shard — monotone, never torn).
  uint64_t Value() const;
  void Reset();

 private:
  struct alignas(64) Shard {
    std::atomic<uint64_t> v{0};
  };
  Shard shards_[detail::kCounterShards];
};

/// A single signed value. Set/Add/UpdateMax are one atomic op each
/// (UpdateMax a CAS loop that almost always exits on the first compare).
class Gauge {
 public:
  Gauge() = default;
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  void Set(int64_t v) {
    if (!MetricsEnabled()) return;
    v_.store(v, std::memory_order_relaxed);
  }
  void Add(int64_t d) {
    if (!MetricsEnabled()) return;
    v_.fetch_add(d, std::memory_order_relaxed);
  }
  /// Raises the gauge to `v` if larger — a high-water mark.
  void UpdateMax(int64_t v) {
    if (!MetricsEnabled()) return;
    int64_t cur = v_.load(std::memory_order_relaxed);
    while (v > cur &&
           !v_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }
  int64_t Value() const { return v_.load(std::memory_order_relaxed); }
  void Reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> v_{0};
};

/// A merged, immutable view of a histogram: per-bucket counts plus
/// count/sum, with interpolated percentiles.
struct HistogramSnapshot {
  uint64_t count = 0;
  uint64_t sum = 0;
  uint64_t buckets[detail::kHistBuckets] = {};

  /// Value below which fraction `q` in [0, 1] of the samples fall,
  /// linearly interpolated inside the hit bucket (exact for q hitting a
  /// bucket boundary; within one bucket's width otherwise).
  double Percentile(double q) const;
  double Mean() const {
    return count == 0 ? 0.0
                      : static_cast<double>(sum) / static_cast<double>(count);
  }
  /// Inclusive lower/upper value bounds of bucket `i`.
  static uint64_t BucketLo(int i);
  static uint64_t BucketHi(int i);
};

/// A fixed-bucket latency/size histogram. Record is two relaxed
/// fetch_adds (bucket + sum) and one for the count, on the caller's shard.
class Histogram {
 public:
  Histogram() = default;
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  void Record(uint64_t v) {
    if (!MetricsEnabled()) return;
    Shard& s = shards_[detail::ThreadSlot() & (detail::kHistShards - 1)];
    s.buckets[BucketIndex(v)].fetch_add(1, std::memory_order_relaxed);
    s.count.fetch_add(1, std::memory_order_relaxed);
    s.sum.fetch_add(v, std::memory_order_relaxed);
  }
  HistogramSnapshot Snapshot() const;
  void Reset();

  static int BucketIndex(uint64_t v);

 private:
  struct alignas(64) Shard {
    std::atomic<uint64_t> buckets[detail::kHistBuckets] = {};
    std::atomic<uint64_t> count{0};
    std::atomic<uint64_t> sum{0};
  };
  Shard shards_[detail::kHistShards];
};

/// RAII latency recorder: records the scope's wall time (ns) into a
/// histogram on destruction. Free when metrics are disabled (no clock
/// reads).
class ScopedLatency {
 public:
  explicit ScopedLatency(Histogram& h)
      : h_(&h), t0_(MetricsEnabled() ? NowNs() : -1) {}
  ~ScopedLatency() {
    if (t0_ >= 0) h_->Record(static_cast<uint64_t>(NowNs() - t0_));
  }
  ScopedLatency(const ScopedLatency&) = delete;
  ScopedLatency& operator=(const ScopedLatency&) = delete;

 private:
  Histogram* h_;
  int64_t t0_;
};

/// One row of a registry snapshot (for exporters).
struct MetricRow {
  enum class Type { kCounter, kGauge, kHistogram };
  Type type = Type::kCounter;
  std::string name;
  std::string unit;
  std::string help;
  int64_t value = 0;       ///< counter / gauge reading
  HistogramSnapshot hist;  ///< histogram reading
};

/// The process-wide registry: name → metric, created on first use and
/// never destroyed. Names are dotted lowercase ("taskpool.tasks_run");
/// the unit and help strings of the first registration win.
class Registry {
 public:
  static Registry& Instance();

  Counter& GetCounter(const std::string& name, const std::string& unit = "",
                      const std::string& help = "");
  Gauge& GetGauge(const std::string& name, const std::string& unit = "",
                  const std::string& help = "");
  Histogram& GetHistogram(const std::string& name,
                          const std::string& unit = "",
                          const std::string& help = "");

  /// All metrics, sorted by name (one consistent registration set; the
  /// readings themselves are per-metric snapshots).
  std::vector<MetricRow> Snapshot() const;

  /// Human-readable dump (the shell's \metrics).
  std::string RenderText() const;
  /// Machine-readable dump (the shell's \metrics-json).
  std::string RenderJson() const;

  /// Zeroes every registered metric (benches, tests).
  void ResetAll();

 private:
  Registry();
  struct Impl;
  Impl* impl_;  // immortal
};

}  // namespace obs
}  // namespace fdb

#endif  // FDB_OBS_METRICS_H_

#ifndef FDB_OBS_LOG_H_
#define FDB_OBS_LOG_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace fdb {
namespace obs {

/// A structured event log: a bounded in-memory ring of typed events plus
/// an optional JSONL file sink. Where the metrics registry answers "how
/// much / how fast", the event log answers "what happened, and when":
/// which recovery replayed how many WAL groups, which checkpoint folded,
/// which query blew past the slow threshold.
///
/// Emission follows the registry's overhead discipline: one process-wide
/// relaxed-atomic gate (`LogEnabled()`), off by default, so call sites
/// compiled into release binaries cost a predicted-not-taken branch and
/// nothing else — no clock reads, no field formatting, no allocation.
/// Call sites that must assemble fields should themselves check
/// `LogEnabled()` first so the disabled path stays allocation-free.
///
/// Environment:
///   FDB_LOG=1            enable the in-memory ring only
///   FDB_LOG=<path>       enable and also append JSONL events to <path>
///   FDB_SLOW_QUERY_MS=N  slow-query threshold (default 100 ms)
///   FDB_WAL_STALL_MS=N   WAL commit-group stall threshold (default 50 ms)

namespace detail {
// Constant-initialised so emission sites are safe during static init;
// EventLog's constructor applies the FDB_LOG environment override.
extern std::atomic<bool> g_log_enabled;
}  // namespace detail

/// The process-wide event-log switch (one relaxed load — the hot gate).
inline bool LogEnabled() {
  return detail::g_log_enabled.load(std::memory_order_relaxed);
}

/// Flips the switch at runtime (shell startup, tests). Events captured
/// while enabled stay readable after disabling.
void SetLogEnabled(bool on);

enum class EventType : uint8_t {
  kSlowQuery = 0,   ///< a query exceeded the slow-query threshold
  kRecovery,        ///< Database::Open replayed WAL groups
  kSave,            ///< Database::Save wrote a full base snapshot
  kCheckpoint,      ///< Database::Checkpoint (kind: base / noop)
  kWalStall,        ///< a WAL commit-group append exceeded the threshold
  kPoolSaturation,  ///< TaskPool queue depth crossed the saturation mark
  kSessionOpen,     ///< a serve session was accepted
  kSessionClose,    ///< a serve session ended (carries per-session totals)
  kQueryKilled,     ///< a served query hit its time/memory limit
  kAdmissionReject, ///< admission queue full: statement rejected with retry
  kServerDrain,     ///< the server began graceful shutdown
};

/// Stable lowercase name ("slow_query", "recovery", ...).
const char* EventTypeName(EventType t);

/// One key + either a string or a numeric value. Built with the F()
/// helpers so emission sites read as F("bytes", 3), F("path", p).
struct EventField {
  std::string key;
  std::string str;
  double number = 0.0;
  bool is_number = false;
  bool is_integer = false;
};

inline EventField F(std::string key, std::string v) {
  EventField f;
  f.key = std::move(key);
  f.str = std::move(v);
  return f;
}
inline EventField F(std::string key, const char* v) {
  return F(std::move(key), std::string(v));
}
inline EventField F(std::string key, int64_t v) {
  EventField f;
  f.key = std::move(key);
  f.number = static_cast<double>(v);
  f.is_number = true;
  f.is_integer = true;
  return f;
}
inline EventField F(std::string key, uint64_t v) {
  return F(std::move(key), static_cast<int64_t>(v));
}
inline EventField F(std::string key, int v) {
  return F(std::move(key), static_cast<int64_t>(v));
}
inline EventField F(std::string key, bool v) {
  return F(std::move(key), static_cast<int64_t>(v ? 1 : 0));
}
inline EventField F(std::string key, double v) {
  EventField f;
  f.key = std::move(key);
  f.number = v;
  f.is_number = true;
  return f;
}

/// One captured event. `seq` is dense and process-wide (so dropped
/// events are detectable); `wall_us` is wall-clock microseconds since
/// the Unix epoch (events correlate with external logs, unlike the
/// steady-clock trace timestamps).
struct Event {
  uint64_t seq = 0;
  int64_t wall_us = 0;
  EventType type = EventType::kSlowQuery;
  std::vector<EventField> fields;

  /// "key=value key2=value2" rendering of the fields (shell \log).
  std::string DetailString() const;
  /// One JSON object (the JSONL sink's line format).
  std::string ToJson() const;
};

/// The process-wide event log: a mutex-guarded ring of the most recent
/// `kRingCapacity` events, created on first use and never destroyed.
class EventLog {
 public:
  static constexpr size_t kRingCapacity = 1024;

  static EventLog& Instance();

  /// Appends an event (no-op when the log is disabled). Thread-safe.
  void Emit(EventType type, std::vector<EventField> fields);

  /// The ring's current contents, oldest first. Thread-safe.
  std::vector<Event> Snapshot() const;

  /// Empties the ring (tests, shell). Does not reset `total_emitted`.
  void Clear();

  /// Events ever emitted / events pushed out of the ring.
  uint64_t total_emitted() const;
  uint64_t dropped() const;

  /// Slow-query / WAL-stall thresholds in nanoseconds (relaxed atomics;
  /// settable at runtime by tests and the shell).
  int64_t slow_query_ns() const;
  void set_slow_query_ns(int64_t ns);
  int64_t wal_stall_ns() const;
  void set_wal_stall_ns(int64_t ns);

  /// Routes the JSONL sink to `path` (empty string closes it).
  void SetSinkPath(const std::string& path);

 private:
  EventLog();
  struct Impl;
  Impl* impl_;  // immortal
};

}  // namespace obs
}  // namespace fdb

#endif  // FDB_OBS_LOG_H_

#ifndef FDB_SERVE_ADMISSION_H_
#define FDB_SERVE_ADMISSION_H_

#include <cstdint>

#include "fdb/base/thread_annotations.h"

namespace fdb {
namespace serve {

/// Admission limits for one server. Zero means "unlimited" for the
/// per-query limits; the queue bounds must be positive.
struct AdmissionConfig {
  int max_concurrent = 4;        ///< statements executing at once
  int max_queue = 16;            ///< statements allowed to wait for a slot
  int64_t queue_wait_ms = 2000;  ///< longest a statement may wait
  int64_t query_timeout_ms = 0;  ///< per-query wall-time limit (0 = none)
  int64_t query_mem_bytes = 0;   ///< per-query arena budget (0 = none)
};

/// A bounded run queue in front of execution: up to `max_concurrent`
/// statements run, up to `max_queue` more wait (briefly — the pool drains
/// in query-latency units), and everything beyond that is rejected
/// immediately with a retry-after hint instead of queueing unboundedly.
/// The hint is computed from live latency data: the mean of the
/// `engine.query_ns` histogram (PR 8's per-statement record) times the
/// number of statements ahead of the caller — so a saturated server tells
/// clients how long the backlog actually is, not a constant.
///
/// Rejections count in `serve.admission_rejects` and emit an
/// `admission_reject` event, so the shell's `\log` shows served overload.
class AdmissionController {
 public:
  explicit AdmissionController(const AdmissionConfig& cfg);

  struct Ticket {
    bool admitted = false;
    uint64_t queue_wait_ns = 0;    ///< time spent waiting for the slot
    uint64_t retry_after_ms = 0;   ///< backoff hint when rejected
  };

  /// Blocks until a slot frees (bounded by queue_wait_ms) or rejects.
  /// Rejects immediately when the wait queue is full or the controller
  /// is closed. A ticket with admitted=true must be paired with
  /// Release().
  Ticket Admit() EXCLUDES(mu_);
  void Release() EXCLUDES(mu_);

  /// Wakes every waiter with a rejection and rejects all future Admit()s
  /// (graceful shutdown). Idempotent.
  void Close() EXCLUDES(mu_);

  int active() const EXCLUDES(mu_);
  int queued() const EXCLUDES(mu_);
  const AdmissionConfig& config() const { return cfg_; }

  /// The retry-after estimate for a caller with `ahead` statements ahead
  /// of it (exposed for tests; Admit() fills tickets with it).
  uint64_t EstimateRetryMs(int ahead) const;

 private:
  AdmissionConfig cfg_;
  mutable base::Mutex mu_;
  base::CondVar cv_;
  int active_ GUARDED_BY(mu_) = 0;
  int queued_ GUARDED_BY(mu_) = 0;
  bool closed_ GUARDED_BY(mu_) = false;
};

}  // namespace serve
}  // namespace fdb

#endif  // FDB_SERVE_ADMISSION_H_

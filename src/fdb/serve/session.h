#ifndef FDB_SERVE_SESSION_H_
#define FDB_SERVE_SESSION_H_

#include <atomic>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "fdb/engine/database.h"
#include "fdb/exec/cancel.h"
#include "fdb/query/ast.h"
#include "fdb/serve/admission.h"
#include "fdb/serve/session_registry.h"
#include "fdb/serve/wire.h"

namespace fdb {
namespace serve {

/// Shared server state handed to every session.
struct ServeContext {
  Database* db = nullptr;
  AdmissionController* admission = nullptr;
  std::atomic<bool>* draining = nullptr;
};

/// One client connection: reads statements off the wire, parses each
/// once, and passes every statement through the drain check and an
/// admission slot. A SELECT runs in the engine with this session's
/// cancellation token armed and streams typed result frames back: the
/// engine enumerates each result row straight into a Row frame in the
/// outbound buffer (AppendRowFrame sizes the frame, grows the buffer once
/// and stores the values in place), which is flushed to the socket while
/// enumeration continues. Each flush's send time goes to `serve.send_ns`.
/// The session owns its transaction: BEGIN opens a list of ops,
/// INSERT/DELETE append to it (or, outside a transaction, commit a one-op
/// list at once), COMMIT hands the list to Database::Commit as one WAL
/// commit group (one fsync), ROLLBACK drops it.
///
/// Reads pin view snapshots for exactly one statement: the engine takes
/// `ViewSnapshot`s when a query starts and drops them when it finishes,
/// so a long SELECT sees one consistent epoch while writers keep
/// publishing new ones.
class Session {
 public:
  Session(const ServeContext& ctx, int fd, const std::string& peer);
  ~Session();
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// The connection's statement loop; returns when the peer disconnects,
  /// a protocol error desyncs the stream, or drain completes. Run on the
  /// session's own thread.
  void Run();

  /// Graceful drain: stop reading new statements (the response side of
  /// the socket stays open so the in-flight statement can finish).
  void BeginDrain();
  /// Hard stop: trips the cancellation token and shuts the socket down
  /// both ways (drain deadline passed).
  void Kill();

  const std::shared_ptr<SessionStats>& stats() const { return stats_; }

  // --- statement layer, socket-free for tests ---------------------------

  /// Executes one statement and appends response frames to `out`. With a
  /// socket, `out` is flushed to it whenever it crosses the flush
  /// threshold, so on return it holds only the unsent tail; a failed
  /// write cancels the statement. Exposed so limit/transaction tests can
  /// drive a session without a socket pair (fd -1: nothing is flushed).
  void HandleStatement(const std::string& text, std::vector<uint8_t>* out);

 private:
  class WireSink;

  /// Drain check, admission, then the statement's kind decides.
  void Dispatch(ParsedQuery pq, int64_t parse_t0, int64_t parse_ns,
                std::vector<uint8_t>* out);
  void RunQuery(const ParsedQuery& pq, int64_t parse_t0, int64_t parse_ns,
                uint64_t queue_wait_ns, std::vector<uint8_t>* out);
  /// Commits `ops` as one group. On failure nothing is applied, a kErrTxn
  /// frame is appended and it returns false.
  bool CommitOps(std::vector<storage::WalOp> ops, std::vector<uint8_t>* out);
  void AppendError(std::vector<uint8_t>* out, uint8_t code,
                   const std::string& message);
  void AppendDone(std::vector<uint8_t>* out, const DoneStats& stats);
  /// Sends all `n` bytes; false if the peer is gone. Timed into
  /// `serve.send_ns`.
  bool WriteAll(const uint8_t* data, size_t n);
  /// Sends and clears `out` once it crosses the flush threshold. A failed
  /// send means the client is gone: it trips the token, so the statement
  /// stops at its next cancellation poll.
  void MaybeFlush(std::vector<uint8_t>* out);

  ServeContext ctx_;
  int fd_;
  std::shared_ptr<SessionStats> stats_;
  exec::CancelToken token_;
  std::atomic<bool> draining_{false};
  /// The open transaction's ops; empty optional outside a transaction.
  std::optional<std::vector<storage::WalOp>> txn_;
};

}  // namespace serve
}  // namespace fdb

#endif  // FDB_SERVE_SESSION_H_

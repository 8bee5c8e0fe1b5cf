#ifndef FDB_SERVE_SESSION_H_
#define FDB_SERVE_SESSION_H_

#include <atomic>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "fdb/base/thread_annotations.h"
#include "fdb/engine/database.h"
#include "fdb/exec/cancel.h"
#include "fdb/serve/admission.h"
#include "fdb/serve/session_registry.h"
#include "fdb/serve/wire.h"

namespace fdb {
namespace serve {

/// Shared server state handed to every session.
struct ServeContext {
  Database* db = nullptr;
  AdmissionController* admission = nullptr;
  /// Serialises *all* Database writes issued by sessions. Database's own
  /// txn_mu_ makes individual calls safe, but a transaction replay
  /// (Begin → ops → Commit) must be atomic against other sessions'
  /// autocommit writes — an interleaved Insert would be swallowed into
  /// the open transaction.
  base::Mutex* write_mu = nullptr;
  std::atomic<bool>* draining = nullptr;
};

/// One client connection: reads statements off the wire, runs them
/// through admission + the engine with this session's cancellation token
/// armed, and streams typed result frames back: the engine enumerates
/// each result row straight into a Row frame in the outbound buffer,
/// which is flushed to the socket while enumeration continues. Owns the
/// per-session WAL transaction state: BEGIN buffers writes
/// session-locally; COMMIT replays them as one Database transaction (one
/// WAL commit group, one fsync) under the server write mutex; ROLLBACK
/// drops them.
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

  struct TxnOp {
    bool is_insert = false;
    std::string view;
    Tuple tuple;
  };

  void RunQuery(const std::string& text, std::vector<uint8_t>* out);
  void HandleWrite(bool is_insert, const std::string& view, Tuple tuple,
                   std::vector<uint8_t>* out);
  void HandleBegin(std::vector<uint8_t>* out);
  void HandleCommit(std::vector<uint8_t>* out);
  void HandleRollback(std::vector<uint8_t>* out);
  void AppendError(std::vector<uint8_t>* out, uint8_t code,
                   const std::string& message);
  void AppendDone(std::vector<uint8_t>* out, const DoneStats& stats);
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
  bool in_txn_ = false;
  std::vector<TxnOp> txn_ops_;
};

/// Parses "INSERT INTO v VALUES (1, 2.5, 'x')" / "DELETE FROM v VALUES
/// (...)" into view + tuple. Returns false if `text` is not a write
/// statement at all; throws std::invalid_argument on a malformed one.
/// Literals: integers, doubles, single-quoted strings ('' escapes a
/// quote), NULL.
bool ParseWriteStatement(const std::string& text, bool* is_insert,
                         std::string* view, Tuple* tuple);

/// Uppercased first keyword of a statement ("BEGIN", "SELECT", ...).
std::string FirstKeyword(const std::string& text);

}  // namespace serve
}  // namespace fdb

#endif  // FDB_SERVE_SESSION_H_

#ifndef FDB_SERVE_SERVER_H_
#define FDB_SERVE_SERVER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "fdb/base/thread_annotations.h"
#include "fdb/engine/database.h"
#include "fdb/serve/admission.h"
#include "fdb/serve/session.h"

namespace fdb {
namespace serve {

struct ServerConfig {
  std::string host = "127.0.0.1";
  int port = 0;  ///< 0 = ephemeral; read the bound port with port()
  int max_sessions = 64;
  AdmissionConfig admission;
  /// Grace period for in-flight statements during Shutdown() before
  /// their cancellation tokens are tripped.
  int64_t drain_ms = 5000;
};

/// The TCP front door: accepts connections, runs one Session per
/// connection on its own thread, and owns the admission controller.
/// Execution itself uses the process TaskPool (sessions call the engine,
/// which forks into the pool), so session threads are I/O threads, not
/// compute threads.
///
/// Shutdown() drains gracefully: stop accepting, shut the read side of
/// every session (in-flight statements finish and ship their responses),
/// wait up to drain_ms, then trip every session's cancellation token and
/// close both ways. Safe to call from a signal-watcher thread.
class Server {
 public:
  Server(Database* db, ServerConfig cfg);
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds, listens, and starts the accept thread. Throws
  /// std::runtime_error on bind/listen failure.
  void Start();

  /// The bound port (valid after Start(); resolves ephemeral binds).
  int port() const { return port_; }

  /// Graceful drain as described above. Idempotent; Start() cannot be
  /// called again afterwards.
  void Shutdown();

  bool draining() const { return draining_.load(std::memory_order_relaxed); }
  AdmissionController& admission() { return admission_; }

 private:
  struct Conn {
    std::unique_ptr<Session> session;
    std::thread thread;
    /// Set by the session thread as its last act; the only state the
    /// reaper may trust before joining.
    std::shared_ptr<std::atomic<bool>> done_flag;
  };

  void AcceptLoop() EXCLUDES(conns_mu_);
  /// Joins threads whose sessions returned.
  void ReapFinished() EXCLUDES(conns_mu_);

  Database* db_;
  ServerConfig cfg_;
  AdmissionController admission_;
  std::atomic<bool> draining_{false};
  int listen_fd_ = -1;
  int port_ = 0;
  std::thread accept_thread_;
  base::Mutex conns_mu_;
  std::vector<std::unique_ptr<Conn>> conns_ GUARDED_BY(conns_mu_);
  /// Serialises Shutdown() callers (not a data guard).
  base::Mutex shutdown_mu_;
  std::atomic<bool> started_{false};
};

}  // namespace serve
}  // namespace fdb

#endif  // FDB_SERVE_SERVER_H_

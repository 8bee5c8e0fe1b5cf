#ifndef FDB_SERVE_CLIENT_H_
#define FDB_SERVE_CLIENT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "fdb/relational/value.h"
#include "fdb/serve/wire.h"

namespace fdb {
namespace serve {

/// A blocking wire-protocol client: one connection, one statement in
/// flight. Used by the shell's \connect mode, the serve tests, and the
/// bench driver; deliberately synchronous (clients model one user each).
/// It reads through its own 64 KiB receive buffer and decodes each Row
/// frame straight from the frame decoder's buffer, without copying the
/// payload first.
class Client {
 public:
  Client() = default;
  ~Client();
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;
  Client(Client&& o) noexcept;
  Client& operator=(Client&& o) noexcept;

  /// Connects and performs the Hello handshake. Throws std::runtime_error
  /// on connection failure, WireError on a protocol mismatch. The server
  /// may answer the handshake with Retry (session cap reached) — that
  /// surfaces as a runtime_error carrying the hint.
  void Connect(const std::string& host, int port);
  void Close();
  bool connected() const { return fd_ >= 0; }

  /// One executed statement's outcome. Exactly one of `ok` / `error` /
  /// `retry` describes it: ok=true means columns/rows/stats are valid;
  /// retry=true means admission rejected it (back off retry_info
  /// milliseconds and resend); otherwise `error` holds the typed failure.
  struct Result {
    bool ok = false;
    bool retry = false;
    std::vector<std::string> columns;
    std::vector<std::vector<Value>> rows;
    DoneStats stats;
    ErrorInfo error;
    RetryInfo retry_info;
  };

  /// Sends one statement and reads frames until Done / Error / Retry.
  /// Rows received before an Error are discarded. Throws on transport
  /// failure (the connection is then closed).
  Result Query(const std::string& statement);

 private:
  void WriteFrame(FrameType type, const std::vector<uint8_t>& payload);
  /// Reads the next frame into *f; it stays valid until the next call.
  void ReadFrame(FrameView* f);

  int fd_ = -1;
  FrameDecoder dec_;
  std::vector<uint8_t> recv_buf_;  // sized on Connect
};

}  // namespace serve
}  // namespace fdb

#endif  // FDB_SERVE_CLIENT_H_

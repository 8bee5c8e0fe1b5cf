#ifndef FDB_SERVE_WIRE_H_
#define FDB_SERVE_WIRE_H_

#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "fdb/relational/value.h"

namespace fdb {
namespace serve {

/// The fdb wire protocol, version 1.
///
/// Every frame is `u32 payload_length (LE) | u8 type | payload`. The
/// length counts payload bytes only (a zero-payload frame is 5 bytes on
/// the wire) and is capped at kMaxFrameBytes — a peer announcing more is
/// a protocol error and the connection is dropped, so a hostile or
/// corrupt length prefix can never make the server buffer unbounded
/// memory.
///
/// Conversation shape (client → server on the left):
///
///   Hello('H')  magic "FDB1" + u8 version      →  Hello ack (same shape)
///   Query('Q')  statement text                 →  Schema('S') Row('D')*
///                                                 (Done('C') | Error('E'))
///                                              or Error('E')
///                                              or Retry('R')  [admission]
///
/// Rows stream while the statement is still executing, so an Error can
/// follow Row frames: a wall-time or memory kill, or any failure, that
/// strikes mid-enumeration ends the response with Error instead of Done.
/// Only Done confirms a result; on Error a client must discard every row
/// it received for the statement.
///
/// One statement is in flight per connection at a time (the session reads
/// the next Query only after finishing the previous one), so frames never
/// interleave between statements. Statements are either SQL queries
/// (anything the engine parses), transaction verbs (BEGIN / COMMIT /
/// ROLLBACK), or writes (INSERT INTO v VALUES (...) / DELETE FROM v
/// VALUES (...)); the session dispatches on the first keyword.
///
/// Values inside Row frames are tagged: u8 tag 0 = null, 1 = int64 LE,
/// 2 = IEEE double bits LE, 3 = string (u32 length + bytes). Schema
/// frames carry the column-name list; Done doubles as the per-statement
/// metrics frame (row count, server-side latency, admission queue wait,
/// arena bytes charged).
constexpr uint32_t kMaxFrameBytes = 8u << 20;  // 8 MiB
constexpr size_t kFrameHeaderBytes = 5;
constexpr uint8_t kProtocolVersion = 1;
inline const char kMagic[4] = {'F', 'D', 'B', '1'};

enum class FrameType : uint8_t {
  kHello = 'H',
  kQuery = 'Q',
  kSchema = 'S',
  kRow = 'D',
  kDone = 'C',
  kError = 'E',
  kRetry = 'R',
};

/// True for the types a decoder accepts; anything else is a protocol
/// error (never silently skipped: a desynced stream must fail fast).
bool IsKnownFrameType(uint8_t t);

/// Typed error codes carried by Error frames.
enum ErrorCode : uint8_t {
  kErrParse = 1,     ///< statement failed to parse / bind
  kErrExec = 2,      ///< execution failed (engine exception)
  kErrTimeout = 3,   ///< query killed at its wall-time limit
  kErrMemory = 4,    ///< query killed at its arena-memory limit
  kErrTxn = 5,       ///< transaction misuse (COMMIT outside BEGIN, ...)
  kErrShutdown = 6,  ///< server draining; connection is closing
  kErrProtocol = 7,  ///< malformed frame; connection is closing
};

const char* ErrorCodeName(uint8_t code);

/// Thrown by the codec on malformed input (truncated payload, oversized
/// or unknown frame). The server maps it to kErrProtocol + disconnect.
class WireError : public std::runtime_error {
 public:
  explicit WireError(const std::string& what) : std::runtime_error(what) {}
};

/// One decoded frame.
struct Frame {
  FrameType type = FrameType::kHello;
  std::vector<uint8_t> payload;
};

/// One decoded frame whose payload still lies in the FrameDecoder's
/// buffer: valid until the decoder's next Feed.
struct FrameView {
  FrameType type = FrameType::kHello;
  const uint8_t* data = nullptr;
  size_t size = 0;
};

/// Little-endian payload builder. It appends to its own buffer, or to a
/// caller's (then bytes()/Take() refer to that buffer).
class WireWriter {
 public:
  WireWriter() = default;
  explicit WireWriter(std::vector<uint8_t>* out) : buf_(out) {}
  WireWriter(const WireWriter&) = delete;
  WireWriter& operator=(const WireWriter&) = delete;

  void U8(uint8_t v) { buf_->push_back(v); }
  void U32(uint32_t v);
  void U64(uint64_t v);
  void I64(int64_t v) { U64(static_cast<uint64_t>(v)); }
  void F64(double v);
  void Bytes(const void* data, size_t n);
  /// u32 length + bytes.
  void String(const std::string& s);

  const std::vector<uint8_t>& bytes() const { return *buf_; }
  std::vector<uint8_t> Take() { return std::move(*buf_); }

 private:
  std::vector<uint8_t> own_;
  std::vector<uint8_t>* buf_ = &own_;
};

/// Bounds-checked little-endian payload reader; throws WireError on any
/// read past the end (truncated frames can never read wild memory).
class WireReader {
 public:
  WireReader(const uint8_t* data, size_t n) : data_(data), end_(data + n) {}
  explicit WireReader(const std::vector<uint8_t>& payload)
      : WireReader(payload.data(), payload.size()) {}

  uint8_t U8();
  uint32_t U32();
  uint64_t U64();
  int64_t I64() { return static_cast<int64_t>(U64()); }
  double F64();
  /// u32 length + bytes (length checked against the remaining payload).
  std::string String();

  size_t remaining() const { return static_cast<size_t>(end_ - data_); }
  /// Throws WireError unless the payload was consumed exactly.
  void ExpectEnd() const;

 private:
  void Need(size_t n) const;
  const uint8_t* data_;
  const uint8_t* end_;
};

/// Appends one whole frame (header + payload) to `out`. Throws WireError
/// if the payload exceeds kMaxFrameBytes — the sender enforces the same
/// cap the receiver does.
void AppendFrame(std::vector<uint8_t>* out, FrameType type,
                 const uint8_t* payload, size_t n);
void AppendFrame(std::vector<uint8_t>* out, FrameType type,
                 const WireWriter& payload);

/// Incremental frame decoder: feed it raw socket bytes, pull whole
/// frames. Throws WireError on an oversized length prefix or unknown
/// frame type; after a throw the stream is desynced and the connection
/// must be dropped.
class FrameDecoder {
 public:
  /// Appends bytes; invalidates every FrameView popped so far.
  void Feed(const uint8_t* data, size_t n);
  /// Pops the next complete frame into *out, copying its payload; false
  /// if more bytes are needed first.
  bool Next(Frame* out);
  /// Pops the next complete frame without copying it: *out points into
  /// the decoder's buffer until the next Feed. Same checks as Next.
  bool NextView(FrameView* out);
  size_t buffered() const { return buf_.size() - pos_; }

 private:
  std::vector<uint8_t> buf_;
  size_t pos_ = 0;  // consumed prefix, compacted opportunistically
};

// --- typed payloads ------------------------------------------------------

void EncodeValue(WireWriter* w, const Value& v);
Value DecodeValue(WireReader* r);

/// Hello payload: magic + version. Decode throws WireError on mismatch.
std::vector<uint8_t> EncodeHello();
void DecodeHello(const std::vector<uint8_t>& payload);

/// Schema payload: u32 ncols + (u32 len + name bytes)*.
std::vector<uint8_t> EncodeSchema(const std::vector<std::string>& cols);
std::vector<std::string> DecodeSchema(const std::vector<uint8_t>& payload);

/// Appends one whole Row frame for `row` to `out` in one pass: it sizes
/// the payload, grows `out` once and stores the header and values in
/// place, byte for byte what EncodeValue would write. Throws WireError,
/// leaving `out` unchanged, if the payload exceeds kMaxFrameBytes.
void AppendRowFrame(std::vector<uint8_t>* out, const std::vector<Value>& row);

/// Row payload: one tagged value per schema column (AppendRowFrame's
/// payload, so the same cap applies).
std::vector<uint8_t> EncodeRow(const std::vector<Value>& row);
std::vector<Value> DecodeRow(const std::vector<uint8_t>& payload, int arity);
/// The same decode and checks over a payload in place (a FrameView's).
std::vector<Value> DecodeRow(const uint8_t* data, size_t n, int arity);

/// Done payload: the per-statement metrics frame.
struct DoneStats {
  uint64_t rows = 0;
  uint64_t elapsed_ns = 0;     ///< server-side execution wall time
  uint64_t queue_wait_ns = 0;  ///< time spent in the admission queue
  uint64_t mem_charged = 0;    ///< arena bytes charged against the limit
};
std::vector<uint8_t> EncodeDone(const DoneStats& stats);
DoneStats DecodeDone(const std::vector<uint8_t>& payload);

/// Error payload: u8 code + message.
struct ErrorInfo {
  uint8_t code = kErrExec;
  std::string message;
};
std::vector<uint8_t> EncodeError(const ErrorInfo& e);
ErrorInfo DecodeError(const std::vector<uint8_t>& payload);

/// Retry payload (admission rejection): hint + message.
struct RetryInfo {
  uint64_t retry_after_ms = 0;
  std::string message;
};
std::vector<uint8_t> EncodeRetry(const RetryInfo& r);
RetryInfo DecodeRetry(const std::vector<uint8_t>& payload);

}  // namespace serve
}  // namespace fdb

#endif  // FDB_SERVE_WIRE_H_

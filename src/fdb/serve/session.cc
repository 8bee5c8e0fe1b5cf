#include "fdb/serve/session.h"

#include <sys/socket.h>
#include <unistd.h>

#include <cctype>
#include <cerrno>
#include <cstring>
#include <stdexcept>

#include "fdb/engine/fdb_engine.h"
#include "fdb/obs/log.h"
#include "fdb/obs/metrics.h"

namespace fdb {
namespace serve {
namespace {

obs::Counter& QueriesCounter() {
  static obs::Counter& c = obs::Registry::Instance().GetCounter(
      "serve.queries", "stmts", "statements executed over the wire");
  return c;
}

obs::Counter& ErrorsCounter() {
  static obs::Counter& c = obs::Registry::Instance().GetCounter(
      "serve.query_errors", "stmts",
      "served statements that returned an error frame");
  return c;
}

obs::Counter& KilledCounter() {
  static obs::Counter& c = obs::Registry::Instance().GetCounter(
      "serve.queries_killed", "stmts",
      "served queries stopped at their wall-time or memory limit");
  return c;
}

obs::Counter& RowsSentCounter() {
  static obs::Counter& c = obs::Registry::Instance().GetCounter(
      "serve.rows_sent", "rows", "result rows streamed to clients");
  return c;
}

obs::Counter& WritesCounter() {
  static obs::Counter& c = obs::Registry::Instance().GetCounter(
      "serve.writes", "tuples",
      "inserts + deletes applied through serve sessions");
  return c;
}

obs::Counter& BytesSentCounter() {
  static obs::Counter& c = obs::Registry::Instance().GetCounter(
      "serve.bytes_sent", "bytes", "wire bytes written to clients");
  return c;
}

obs::Counter& BytesReceivedCounter() {
  static obs::Counter& c = obs::Registry::Instance().GetCounter(
      "serve.bytes_received", "bytes", "wire bytes read from clients");
  return c;
}

obs::Histogram& ServeQueryNs() {
  static obs::Histogram& h = obs::Registry::Instance().GetHistogram(
      "serve.query_ns", "ns",
      "served statement latency, admission wait included");
  return h;
}

// Flush threshold for result streaming: a statement's response leaves in
// ~256 KiB bursts while it is enumerated, instead of after it.
constexpr size_t kFlushBytes = 256 * 1024;

// Releases an admission slot on every exit path of RunQuery.
struct SlotGuard {
  AdmissionController* a;
  ~SlotGuard() { a->Release(); }
};

}  // namespace

std::string FirstKeyword(const std::string& text) {
  size_t i = 0;
  while (i < text.size() && std::isspace(static_cast<unsigned char>(text[i]))) {
    ++i;
  }
  std::string kw;
  while (i < text.size() &&
         (std::isalpha(static_cast<unsigned char>(text[i])) ||
          text[i] == '_')) {
    kw.push_back(static_cast<char>(
        std::toupper(static_cast<unsigned char>(text[i++]))));
  }
  return kw;
}

namespace {

// Tiny statement lexer for the write grammar. The engine's SQL parser
// only covers queries; writes arrive as INSERT INTO / DELETE FROM with
// literal VALUES and are applied through Database's tuple API.
class WriteLexer {
 public:
  explicit WriteLexer(const std::string& s) : s_(s) {}

  void SkipWs() {
    while (i_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[i_]))) {
      ++i_;
    }
  }

  bool Keyword(const char* kw) {
    SkipWs();
    size_t j = i_;
    for (const char* p = kw; *p != '\0'; ++p, ++j) {
      if (j >= s_.size() ||
          std::toupper(static_cast<unsigned char>(s_[j])) != *p) {
        return false;
      }
    }
    if (j < s_.size() && (std::isalnum(static_cast<unsigned char>(s_[j])) ||
                          s_[j] == '_')) {
      return false;  // prefix of a longer identifier
    }
    i_ = j;
    return true;
  }

  std::string Identifier() {
    SkipWs();
    std::string id;
    while (i_ < s_.size() &&
           (std::isalnum(static_cast<unsigned char>(s_[i_])) ||
            s_[i_] == '_' || s_[i_] == '.')) {
      id.push_back(s_[i_++]);
    }
    if (id.empty()) {
      throw std::invalid_argument("write statement: expected identifier at " +
                                  std::to_string(i_));
    }
    return id;
  }

  bool Char(char c) {
    SkipWs();
    if (i_ < s_.size() && s_[i_] == c) {
      ++i_;
      return true;
    }
    return false;
  }

  Value Literal() {
    SkipWs();
    if (i_ >= s_.size()) {
      throw std::invalid_argument("write statement: expected literal");
    }
    char c = s_[i_];
    if (c == '\'') {
      ++i_;
      std::string str;
      for (;;) {
        if (i_ >= s_.size()) {
          throw std::invalid_argument("write statement: unterminated string");
        }
        if (s_[i_] == '\'') {
          if (i_ + 1 < s_.size() && s_[i_ + 1] == '\'') {
            str.push_back('\'');  // '' escapes a quote
            i_ += 2;
            continue;
          }
          ++i_;
          return Value(std::move(str));
        }
        str.push_back(s_[i_++]);
      }
    }
    if (Keyword("NULL")) return Value();
    size_t start = i_;
    if (c == '+' || c == '-') ++i_;
    bool has_dot = false, has_exp = false;
    while (i_ < s_.size()) {
      char d = s_[i_];
      if (std::isdigit(static_cast<unsigned char>(d))) {
        ++i_;
      } else if (d == '.' && !has_dot && !has_exp) {
        has_dot = true;
        ++i_;
      } else if ((d == 'e' || d == 'E') && !has_exp && i_ > start) {
        has_exp = true;
        ++i_;
        if (i_ < s_.size() && (s_[i_] == '+' || s_[i_] == '-')) ++i_;
      } else {
        break;
      }
    }
    std::string num = s_.substr(start, i_ - start);
    if (num.empty() || num == "+" || num == "-") {
      throw std::invalid_argument("write statement: bad literal at " +
                                  std::to_string(start));
    }
    try {
      if (has_dot || has_exp) return Value(std::stod(num));
      return Value(static_cast<int64_t>(std::stoll(num)));
    } catch (const std::exception&) {
      throw std::invalid_argument("write statement: bad number '" + num + "'");
    }
  }

  bool AtEnd() {
    SkipWs();
    // A trailing semicolon is tolerated (shell habit).
    if (i_ < s_.size() && s_[i_] == ';') {
      ++i_;
      SkipWs();
    }
    return i_ >= s_.size();
  }

 private:
  const std::string& s_;
  size_t i_ = 0;
};

}  // namespace

bool ParseWriteStatement(const std::string& text, bool* is_insert,
                         std::string* view, Tuple* tuple) {
  WriteLexer lex(text);
  if (lex.Keyword("INSERT")) {
    *is_insert = true;
    if (!lex.Keyword("INTO")) {
      throw std::invalid_argument("write statement: expected INTO");
    }
  } else if (lex.Keyword("DELETE")) {
    *is_insert = false;
    if (!lex.Keyword("FROM")) {
      throw std::invalid_argument("write statement: expected FROM");
    }
  } else {
    return false;
  }
  *view = lex.Identifier();
  if (!lex.Keyword("VALUES")) {
    throw std::invalid_argument("write statement: expected VALUES");
  }
  if (!lex.Char('(')) {
    throw std::invalid_argument("write statement: expected (");
  }
  do {
    tuple->push_back(lex.Literal());
  } while (lex.Char(','));
  if (!lex.Char(')')) {
    throw std::invalid_argument("write statement: expected )");
  }
  if (!lex.AtEnd()) {
    throw std::invalid_argument("write statement: trailing input");
  }
  return true;
}

Session::Session(const ServeContext& ctx, int fd, const std::string& peer)
    : ctx_(ctx), fd_(fd) {
  stats_ = SessionRegistry::Instance().Open(peer);
  if (obs::LogEnabled()) {
    obs::EventLog::Instance().Emit(
        obs::EventType::kSessionOpen,
        {obs::F("session", static_cast<int64_t>(stats_->id)),
         obs::F("peer", stats_->peer)});
  }
}

Session::~Session() {
  if (obs::LogEnabled()) {
    obs::EventLog::Instance().Emit(
        obs::EventType::kSessionClose,
        {obs::F("session", static_cast<int64_t>(stats_->id)),
         obs::F("queries",
                stats_->queries.load(std::memory_order_relaxed)),
         obs::F("errors", stats_->errors.load(std::memory_order_relaxed)),
         obs::F("killed", stats_->killed.load(std::memory_order_relaxed))});
  }
  SessionRegistry::Instance().Close(stats_->id);
  if (fd_ >= 0) ::close(fd_);
}

void Session::BeginDrain() {
  draining_.store(true, std::memory_order_relaxed);
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RD);
}

void Session::Kill() {
  draining_.store(true, std::memory_order_relaxed);
  token_.Cancel();
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

void Session::AppendError(std::vector<uint8_t>* out, uint8_t code,
                          const std::string& message) {
  stats_->errors.fetch_add(1, std::memory_order_relaxed);
  ErrorsCounter().Inc();
  std::vector<uint8_t> payload = EncodeError({code, message});
  AppendFrame(out, FrameType::kError, payload.data(), payload.size());
}

void Session::AppendDone(std::vector<uint8_t>* out, const DoneStats& stats) {
  std::vector<uint8_t> payload = EncodeDone(stats);
  AppendFrame(out, FrameType::kDone, payload.data(), payload.size());
}

// Encodes result rows as Row frames straight into the session's outbound
// buffer, flushing it as it fills. The rank-chunk sinks of a parallel
// enumeration encode into their own buffers, which are spliced into the
// outbound one in rank order.
class Session::WireSink : public RowSink {
 public:
  // The statement's sink, over the session's outbound buffer.
  WireSink(Session* session, std::vector<uint8_t>* out)
      : session_(session), out_(out) {}
  // A chunk sink, over its own buffer.
  WireSink() : out_(&own_) {}

  void Begin(const RelSchema& schema) override {
    std::vector<std::string> cols;
    cols.reserve(static_cast<size_t>(schema.arity()));
    for (AttrId a : schema.attrs()) {
      cols.push_back(session_->ctx_.db->registry().Name(a));
    }
    std::vector<uint8_t> payload = EncodeSchema(cols);
    AppendFrame(out_, FrameType::kSchema, payload.data(), payload.size());
  }

  void Add(const Tuple& row) override {
    AppendRowFrame(out_, row);
    if (session_ != nullptr) session_->MaybeFlush(out_);
  }

  std::unique_ptr<RowSink> NewChunk() override {
    return std::make_unique<WireSink>();
  }

  void AppendChunk(std::unique_ptr<RowSink> chunk) override {
    const std::vector<uint8_t>& bytes = static_cast<WireSink&>(*chunk).own_;
    out_->insert(out_->end(), bytes.begin(), bytes.end());
    session_->MaybeFlush(out_);
  }

 private:
  Session* session_ = nullptr;  // null for a chunk sink: never flushed
  std::vector<uint8_t> own_;
  std::vector<uint8_t>* out_;
};

void Session::MaybeFlush(std::vector<uint8_t>* out) {
  if (fd_ < 0 || out->size() < kFlushBytes) return;
  if (!WriteAll(out->data(), out->size())) token_.Cancel();
  out->clear();
}

void Session::HandleStatement(const std::string& text,
                              std::vector<uint8_t>* out) {
  stats_->queries.fetch_add(1, std::memory_order_relaxed);
  stats_->active.store(true, std::memory_order_relaxed);
  QueriesCounter().Inc();
  std::string kw = FirstKeyword(text);
  try {
    if (kw == "BEGIN") {
      HandleBegin(out);
    } else if (kw == "COMMIT") {
      HandleCommit(out);
    } else if (kw == "ROLLBACK") {
      HandleRollback(out);
    } else if (kw == "INSERT" || kw == "DELETE") {
      bool is_insert = false;
      std::string view;
      Tuple tuple;
      if (ParseWriteStatement(text, &is_insert, &view, &tuple)) {
        HandleWrite(is_insert, view, std::move(tuple), out);
      } else {
        AppendError(out, kErrParse, "unrecognised write statement");
      }
    } else {
      RunQuery(text, out);
    }
  } catch (const std::invalid_argument& e) {
    AppendError(out, kErrParse, e.what());
  } catch (const std::exception& e) {
    AppendError(out, kErrExec, e.what());
  }
  stats_->active.store(false, std::memory_order_relaxed);
}

void Session::RunQuery(const std::string& text, std::vector<uint8_t>* out) {
  if (ctx_.draining->load(std::memory_order_relaxed) ||
      draining_.load(std::memory_order_relaxed)) {
    AppendError(out, kErrShutdown, "server is shutting down");
    return;
  }
  AdmissionController::Ticket ticket = ctx_.admission->Admit();
  if (!ticket.admitted) {
    stats_->rejected.fetch_add(1, std::memory_order_relaxed);
    std::vector<uint8_t> payload = EncodeRetry(
        {ticket.retry_after_ms,
         "server saturated: retry after " +
             std::to_string(ticket.retry_after_ms) + " ms"});
    AppendFrame(out, FrameType::kRetry, payload.data(), payload.size());
    return;
  }
  SlotGuard slot{ctx_.admission};
  int64_t t0 = obs::NowNs();
  const AdmissionConfig& cfg = ctx_.admission->config();
  token_.Arm(cfg.query_timeout_ms > 0 ? t0 + cfg.query_timeout_ms * 1'000'000
                                      : 0,
             cfg.query_mem_bytes);
  try {
    exec::CancelScope scope(&token_);
    WireSink sink(this, out);
    FdbResult res = FdbEngine(ctx_.db).ExecuteSql(text, {}, &sink);
    // A write that failed after the last poll (or while spliced chunks
    // were sent) still ends the statement as cancelled, not Done.
    if (token_.cancelled()) token_.Check();
    uint64_t rows = static_cast<uint64_t>(res.rows);
    DoneStats d;
    d.rows = rows;
    d.elapsed_ns = static_cast<uint64_t>(obs::NowNs() - t0);
    d.queue_wait_ns = ticket.queue_wait_ns;
    d.mem_charged = static_cast<uint64_t>(token_.memory_used());
    AppendDone(out, d);
    ServeQueryNs().Record(d.elapsed_ns + d.queue_wait_ns);
    RowsSentCounter().Inc(rows);
    stats_->rows_sent.fetch_add(static_cast<int64_t>(rows),
                                std::memory_order_relaxed);
  } catch (const exec::QueryCancelled& e) {
    stats_->killed.fetch_add(1, std::memory_order_relaxed);
    KilledCounter().Inc();
    uint8_t code = kErrShutdown;
    if (e.reason() == exec::CancelReason::kTimeout) code = kErrTimeout;
    if (e.reason() == exec::CancelReason::kMemory) code = kErrMemory;
    if (obs::LogEnabled()) {
      obs::EventLog::Instance().Emit(
          obs::EventType::kQueryKilled,
          {obs::F("session", static_cast<int64_t>(stats_->id)),
           obs::F("reason", exec::CancelReasonName(e.reason())),
           obs::F("mem_charged", token_.memory_used())});
    }
    AppendError(out, code, e.what());
  } catch (const std::invalid_argument& e) {
    AppendError(out, kErrParse, e.what());
  } catch (const std::exception& e) {
    AppendError(out, kErrExec, e.what());
  }
}

void Session::HandleWrite(bool is_insert, const std::string& view, Tuple tuple,
                          std::vector<uint8_t>* out) {
  if (in_txn_) {
    // Buffered session-locally; validation happens at COMMIT, where a bad
    // op rolls the whole transaction back.
    txn_ops_.push_back({is_insert, view, std::move(tuple)});
    stats_->txn_ops.store(static_cast<int64_t>(txn_ops_.size()),
                          std::memory_order_relaxed);
    AppendDone(out, DoneStats{});
    return;
  }
  {
    base::MutexLock g(ctx_.write_mu);
    if (is_insert) {
      ctx_.db->Insert(view, tuple);
    } else {
      ctx_.db->Delete(view, tuple);
    }
  }
  stats_->writes.fetch_add(1, std::memory_order_relaxed);
  WritesCounter().Inc();
  DoneStats d;
  d.rows = 1;
  AppendDone(out, d);
}

void Session::HandleBegin(std::vector<uint8_t>* out) {
  if (in_txn_) {
    AppendError(out, kErrTxn, "transaction already open");
    return;
  }
  in_txn_ = true;
  stats_->in_txn.store(true, std::memory_order_relaxed);
  AppendDone(out, DoneStats{});
}

void Session::HandleCommit(std::vector<uint8_t>* out) {
  if (!in_txn_) {
    AppendError(out, kErrTxn, "COMMIT outside a transaction");
    return;
  }
  size_t nops = txn_ops_.size();
  try {
    // One Database transaction per wire COMMIT: the write mutex keeps
    // other sessions' writes out of this open transaction, and the WAL
    // makes the whole group one durable commit (one fsync).
    base::MutexLock g(ctx_.write_mu);
    ctx_.db->Begin();
    try {
      for (const TxnOp& op : txn_ops_) {
        if (op.is_insert) {
          ctx_.db->Insert(op.view, op.tuple);
        } else {
          ctx_.db->Delete(op.view, op.tuple);
        }
      }
      ctx_.db->Commit();
    } catch (...) {
      ctx_.db->Rollback();
      throw;
    }
  } catch (const std::exception& e) {
    in_txn_ = false;
    txn_ops_.clear();
    stats_->in_txn.store(false, std::memory_order_relaxed);
    stats_->txn_ops.store(0, std::memory_order_relaxed);
    stats_->rollbacks.fetch_add(1, std::memory_order_relaxed);
    AppendError(out, kErrTxn,
                std::string("transaction rolled back: ") + e.what());
    return;
  }
  in_txn_ = false;
  txn_ops_.clear();
  stats_->in_txn.store(false, std::memory_order_relaxed);
  stats_->txn_ops.store(0, std::memory_order_relaxed);
  stats_->commits.fetch_add(1, std::memory_order_relaxed);
  stats_->writes.fetch_add(static_cast<int64_t>(nops),
                           std::memory_order_relaxed);
  WritesCounter().Inc(nops);
  DoneStats d;
  d.rows = nops;
  AppendDone(out, d);
}

void Session::HandleRollback(std::vector<uint8_t>* out) {
  if (!in_txn_) {
    AppendError(out, kErrTxn, "ROLLBACK outside a transaction");
    return;
  }
  in_txn_ = false;
  txn_ops_.clear();
  stats_->in_txn.store(false, std::memory_order_relaxed);
  stats_->txn_ops.store(0, std::memory_order_relaxed);
  stats_->rollbacks.fetch_add(1, std::memory_order_relaxed);
  AppendDone(out, DoneStats{});
}

bool Session::WriteAll(const uint8_t* data, size_t n) {
  size_t off = 0;
  while (off < n) {
    ssize_t w = ::send(fd_, data + off, n - off, MSG_NOSIGNAL);
    if (w < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<size_t>(w);
  }
  BytesSentCounter().Inc(n);
  return true;
}

void Session::Run() {
  std::vector<uint8_t> outbuf;
  FrameDecoder dec;
  uint8_t buf[64 * 1024];
  bool alive = true;
  while (alive) {
    ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
    if (n <= 0) break;  // peer closed, error, or drain (SHUT_RD)
    BytesReceivedCounter().Inc(static_cast<uint64_t>(n));
    dec.Feed(buf, static_cast<size_t>(n));
    try {
      Frame f;
      while (alive && dec.Next(&f)) {
        if (f.type == FrameType::kHello) {
          DecodeHello(f.payload);
          outbuf.clear();
          std::vector<uint8_t> payload = EncodeHello();
          AppendFrame(&outbuf, FrameType::kHello, payload.data(),
                      payload.size());
          alive = WriteAll(outbuf.data(), outbuf.size());
          continue;
        }
        if (f.type != FrameType::kQuery) {
          throw WireError(std::string("unexpected client frame '") +
                          static_cast<char>(f.type) + "'");
        }
        std::string text(f.payload.begin(), f.payload.end());
        outbuf.clear();
        HandleStatement(text, &outbuf);
        alive = WriteAll(outbuf.data(), outbuf.size());
      }
    } catch (const WireError& e) {
      // Protocol violation: report once, then drop the connection (the
      // stream is desynced; there is no safe way to continue).
      outbuf.clear();
      AppendError(&outbuf, kErrProtocol, e.what());
      WriteAll(outbuf.data(), outbuf.size());
      break;
    }
  }
}

}  // namespace serve
}  // namespace fdb

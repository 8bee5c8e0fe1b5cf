#include "fdb/serve/session.h"

#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>

#include "fdb/engine/fdb_engine.h"
#include "fdb/obs/log.h"
#include "fdb/obs/metrics.h"
#include "fdb/query/parser.h"

namespace fdb {
namespace serve {
namespace {

// The serve layer's metrics, registered together on first use.
struct ServeMetrics {
  obs::Counter& queries;
  obs::Counter& errors;
  obs::Counter& killed;
  obs::Counter& rows_sent;
  obs::Counter& writes;
  obs::Counter& bytes_sent;
  obs::Counter& bytes_received;
  obs::Histogram& query_ns;
  obs::Histogram& send_ns;
};

const ServeMetrics& Metrics() {
  static const ServeMetrics m = [] {
    obs::Registry& r = obs::Registry::Instance();
    return ServeMetrics{
        r.GetCounter("serve.queries", "stmts",
                     "statements executed over the wire"),
        r.GetCounter("serve.query_errors", "stmts",
                     "served statements that returned an error frame"),
        r.GetCounter(
            "serve.queries_killed", "stmts",
            "served queries stopped at their wall-time or memory limit"),
        r.GetCounter("serve.rows_sent", "rows",
                     "result rows streamed to clients"),
        r.GetCounter("serve.writes", "tuples",
                     "inserts + deletes applied through serve sessions"),
        r.GetCounter("serve.bytes_sent", "bytes",
                     "wire bytes written to clients"),
        r.GetCounter("serve.bytes_received", "bytes",
                     "wire bytes read from clients"),
        r.GetHistogram("serve.query_ns", "ns",
                       "served statement latency, admission wait included"),
        r.GetHistogram("serve.send_ns", "ns",
                       "time one flush of a response spent sending it"),
    };
  }();
  return m;
}

// Flush threshold for result streaming: a statement's response leaves in
// ~256 KiB bursts while it is enumerated, instead of after it.
constexpr size_t kFlushBytes = 256 * 1024;

// Releases an admission slot on every exit path of Dispatch.
struct SlotGuard {
  AdmissionController* a;
  ~SlotGuard() { a->Release(); }
};

}  // namespace

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
  Metrics().errors.Inc();
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

  bool Add(const Tuple& row) override {
    AppendRowFrame(out_, row);
    if (session_ != nullptr) session_->MaybeFlush(out_);
    return true;
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
  Metrics().queries.Inc();
  try {
    int64_t parse_t0 = obs::NowNs();
    ParsedQuery pq = ParseSql(text);
    int64_t parse_ns = obs::NowNs() - parse_t0;
    Dispatch(std::move(pq), parse_t0, parse_ns, out);
  } catch (const std::invalid_argument& e) {
    AppendError(out, kErrParse, e.what());
  } catch (const std::exception& e) {
    AppendError(out, kErrExec, e.what());
  }
  stats_->active.store(false, std::memory_order_relaxed);
}

void Session::Dispatch(ParsedQuery pq, int64_t parse_t0, int64_t parse_ns,
                       std::vector<uint8_t>* out) {
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
  switch (pq.kind) {
    case StmtKind::kSelect:
      RunQuery(pq, parse_t0, parse_ns, ticket.queue_wait_ns, out);
      return;
    case StmtKind::kInsert:
    case StmtKind::kDelete: {
      storage::WalOp op{pq.kind == StmtKind::kInsert
                            ? storage::WalOp::kInsert
                            : storage::WalOp::kDelete,
                        std::move(pq.target), std::move(pq.values)};
      if (txn_.has_value()) {
        // Buffered session-locally; validation happens at COMMIT, where a
        // bad op rolls the whole transaction back.
        txn_->push_back(std::move(op));
        stats_->txn_ops.store(static_cast<int64_t>(txn_->size()),
                              std::memory_order_relaxed);
        AppendDone(out, DoneStats{});
      } else {
        CommitOps({op}, out);  // autocommit: a one-op group
      }
      return;
    }
    case StmtKind::kBegin:
      if (txn_.has_value()) {
        AppendError(out, kErrTxn, "transaction already open");
        return;
      }
      txn_.emplace();
      stats_->in_txn.store(true, std::memory_order_relaxed);
      AppendDone(out, DoneStats{});
      return;
    case StmtKind::kCommit:
    case StmtKind::kRollback: {
      bool commit = pq.kind == StmtKind::kCommit;
      if (!txn_.has_value()) {
        AppendError(out, kErrTxn, commit ? "COMMIT outside a transaction"
                                         : "ROLLBACK outside a transaction");
        return;
      }
      std::vector<storage::WalOp> ops = std::move(*txn_);
      txn_.reset();
      stats_->in_txn.store(false, std::memory_order_relaxed);
      stats_->txn_ops.store(0, std::memory_order_relaxed);
      bool committed = commit && CommitOps(std::move(ops), out);
      (committed ? stats_->commits : stats_->rollbacks)
          .fetch_add(1, std::memory_order_relaxed);
      if (!commit) AppendDone(out, DoneStats{});
      return;
    }
  }
}

bool Session::CommitOps(std::vector<storage::WalOp> ops,
                        std::vector<uint8_t>* out) {
  size_t n = ops.size();
  try {
    // One durable group (one WAL frame, one fsync) owned by this session:
    // another session's commit, or an in-process Database::Begin, is a
    // separate group.
    ctx_.db->Commit(std::move(ops));
  } catch (const std::exception& e) {
    AppendError(out, kErrTxn,
                std::string("transaction rolled back: ") + e.what());
    return false;
  }
  stats_->writes.fetch_add(static_cast<int64_t>(n), std::memory_order_relaxed);
  Metrics().writes.Inc(n);
  DoneStats d;
  d.rows = n;
  AppendDone(out, d);
  return true;
}

void Session::RunQuery(const ParsedQuery& pq, int64_t parse_t0,
                       int64_t parse_ns, uint64_t queue_wait_ns,
                       std::vector<uint8_t>* out) {
  int64_t t0 = obs::NowNs();
  const AdmissionConfig& cfg = ctx_.admission->config();
  token_.Arm(cfg.query_timeout_ms > 0 ? t0 + cfg.query_timeout_ms * 1'000'000
                                      : 0,
             cfg.query_mem_bytes);
  try {
    exec::CancelScope scope(&token_);
    WireSink sink(this, out);
    FdbResult res =
        FdbEngine(ctx_.db).ExecuteParsed(pq, parse_t0, parse_ns, {}, &sink);
    // A write that failed after the last poll (or while spliced chunks
    // were sent) still ends the statement as cancelled, not Done.
    if (token_.cancelled()) token_.Check();
    uint64_t rows = static_cast<uint64_t>(res.rows);
    DoneStats d;
    d.rows = rows;
    d.elapsed_ns = static_cast<uint64_t>(obs::NowNs() - t0);
    d.queue_wait_ns = queue_wait_ns;
    d.mem_charged = static_cast<uint64_t>(token_.memory_used());
    AppendDone(out, d);
    Metrics().query_ns.Record(d.elapsed_ns + d.queue_wait_ns);
    Metrics().rows_sent.Inc(rows);
    stats_->rows_sent.fetch_add(static_cast<int64_t>(rows),
                                std::memory_order_relaxed);
  } catch (const exec::QueryCancelled& e) {
    stats_->killed.fetch_add(1, std::memory_order_relaxed);
    Metrics().killed.Inc();
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
  }
}

bool Session::WriteAll(const uint8_t* data, size_t n) {
  // Long sends mean the client, not the engine, paces the statement.
  obs::ScopedLatency send(Metrics().send_ns);
  size_t off = 0;
  while (off < n) {
    ssize_t w = ::send(fd_, data + off, n - off, MSG_NOSIGNAL);
    if (w < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<size_t>(w);
  }
  Metrics().bytes_sent.Inc(n);
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
    Metrics().bytes_received.Inc(static_cast<uint64_t>(n));
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

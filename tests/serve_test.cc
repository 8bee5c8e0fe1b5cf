#include "fdb/serve/server.h"

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "fdb/core/build.h"
#include "fdb/core/update.h"
#include "fdb/engine/database.h"
#include "fdb/engine/fdb_engine.h"
#include "fdb/exec/task_pool.h"
#include "fdb/obs/metrics.h"
#include "fdb/obs/statements.h"
#include "fdb/query/parser.h"
#include "fdb/serve/admission.h"
#include "fdb/serve/client.h"
#include "fdb/serve/session.h"
#include "fdb/serve/session_registry.h"
#include "fdb/workload/generator.h"
#include "test_util.h"

// The serve path end to end: real sockets, concurrent sessions,
// transactions over the wire, admission backpressure, per-query limits
// and graceful shutdown. Servers bind ephemeral loopback ports so tests
// never collide.

namespace fdb {
namespace serve {
namespace {

using testing::Row;

/// The shell's demo workload (R1, plus the Orders view R3 of the
/// ordering experiments) and a small updatable view "V" for writes.
void FillDb(Database* db, int scale) {
  InstallWorkload(db, SmallParams(scale), "R1");
  db->AddView("R3", FactoriseRelation(*db->relation("Orders"),
                                      {db->Attr("date"), db->Attr("customer"),
                                       db->Attr("package")}));
  AttrId a = db->Attr("va"), b = db->Attr("vb");
  Relation r{RelSchema({a, b})};
  for (int64_t x = 0; x < 50; ++x) r.Add({Value(x / 10), Value(x)});
  db->AddView("V", FactoriseRelation(r, {a, b}));
}

int64_t CountV(Client* c) {
  Client::Result res = c->Query("SELECT va, vb FROM V");
  EXPECT_TRUE(res.ok) << res.error.message;
  return static_cast<int64_t>(res.rows.size());
}

// --- admission controller (no sockets) ----------------------------------

TEST(AdmissionTest, AdmitsUpToTheConcurrencyLimit) {
  AdmissionConfig cfg;
  cfg.max_concurrent = 2;
  cfg.max_queue = 0;
  AdmissionController adm(cfg);
  AdmissionController::Ticket t1 = adm.Admit();
  AdmissionController::Ticket t2 = adm.Admit();
  EXPECT_TRUE(t1.admitted);
  EXPECT_TRUE(t2.admitted);
  EXPECT_EQ(adm.active(), 2);

  // Saturated with no queue: the third caller is rejected immediately
  // with a positive backoff hint — never blocked.
  AdmissionController::Ticket t3 = adm.Admit();
  EXPECT_FALSE(t3.admitted);
  EXPECT_GT(t3.retry_after_ms, 0u);

  adm.Release();
  adm.Release();
  EXPECT_EQ(adm.active(), 0);
  EXPECT_TRUE(adm.Admit().admitted);
  adm.Release();
}

TEST(AdmissionTest, QueuedCallerGetsTheSlotWhenReleased) {
  AdmissionConfig cfg;
  cfg.max_concurrent = 1;
  cfg.max_queue = 1;
  cfg.queue_wait_ms = 10000;  // far longer than the test
  AdmissionController adm(cfg);
  ASSERT_TRUE(adm.Admit().admitted);

  std::atomic<bool> admitted{false};
  std::thread waiter([&] {
    AdmissionController::Ticket t = adm.Admit();
    admitted.store(t.admitted);
    if (t.admitted) adm.Release();
  });
  // Give the waiter time to enqueue, then free the slot.
  while (adm.queued() == 0) std::this_thread::yield();
  adm.Release();
  waiter.join();
  EXPECT_TRUE(admitted.load());
}

TEST(AdmissionTest, QueueWaitDeadlineRejectsInsteadOfHanging) {
  AdmissionConfig cfg;
  cfg.max_concurrent = 1;
  cfg.max_queue = 1;
  cfg.queue_wait_ms = 50;
  AdmissionController adm(cfg);
  ASSERT_TRUE(adm.Admit().admitted);
  AdmissionController::Ticket t = adm.Admit();  // waits 50 ms, then rejects
  EXPECT_FALSE(t.admitted);
  EXPECT_GE(t.queue_wait_ns, 40ull * 1000 * 1000);
  adm.Release();
}

TEST(AdmissionTest, CloseWakesWaitersAndRejectsEveryoneAfter) {
  AdmissionConfig cfg;
  cfg.max_concurrent = 1;
  cfg.max_queue = 4;
  cfg.queue_wait_ms = 60000;
  AdmissionController adm(cfg);
  ASSERT_TRUE(adm.Admit().admitted);
  std::atomic<int> rejected{0};
  std::thread waiter([&] {
    if (!adm.Admit().admitted) rejected.fetch_add(1);
  });
  while (adm.queued() == 0) std::this_thread::yield();
  adm.Close();
  waiter.join();
  EXPECT_EQ(rejected.load(), 1);
  EXPECT_FALSE(adm.Admit().admitted);
}

// --- statement layer without sockets ------------------------------------

std::vector<Frame> DecodeAll(const std::vector<uint8_t>& bytes) {
  FrameDecoder dec;
  dec.Feed(bytes.data(), bytes.size());
  std::vector<Frame> frames;
  Frame f;
  while (dec.Next(&f)) frames.push_back(f);
  return frames;
}

/// One statement's response, decoded.
struct Response {
  std::vector<std::string> columns;
  std::vector<Tuple> rows;
  std::optional<DoneStats> done;
  std::optional<ErrorInfo> error;
};

Response DecodeResponse(const std::vector<uint8_t>& bytes) {
  Response r;
  for (const Frame& f : DecodeAll(bytes)) {
    if (f.type == FrameType::kSchema) {
      r.columns = DecodeSchema(f.payload);
    } else if (f.type == FrameType::kRow) {
      r.rows.push_back(
          DecodeRow(f.payload, static_cast<int>(r.columns.size())));
    } else if (f.type == FrameType::kDone) {
      r.done = DecodeDone(f.payload);
    } else if (f.type == FrameType::kError) {
      r.error = DecodeError(f.payload);
    }
  }
  return r;
}

/// Sizes the default task pool for one scope.
class PoolSize {
 public:
  explicit PoolSize(int threads)
      : before_(exec::TaskPool::Default().num_threads()) {
    exec::TaskPool::SetDefaultThreads(threads);
  }
  ~PoolSize() { exec::TaskPool::SetDefaultThreads(before_); }

 private:
  int before_;
};

class SessionLimitTest : public ::testing::Test {
 protected:
  // The benchmark's scale: agg_view's grouped results then outgrow one
  // flush of the session's buffer.
  void SetUp() override {
    FillDb(&db_, 8);
  }

  std::unique_ptr<Session> MakeSession(const AdmissionConfig& cfg,
                                       int fd = -1) {
    admission_ = std::make_unique<AdmissionController>(cfg);
    ServeContext ctx;
    ctx.db = &db_;
    ctx.admission = admission_.get();
    ctx.draining = &draining_;
    return std::make_unique<Session>(ctx, fd, "test");
  }

  Database db_;
  std::unique_ptr<AdmissionController> admission_;
  std::atomic<bool> draining_{false};
};

TEST_F(SessionLimitTest, MemoryCapKillsTheQueryWithATypedError) {
  AdmissionConfig cfg;
  cfg.query_mem_bytes = 256 << 10;  // far below the big join's footprint
  std::unique_ptr<Session> s = MakeSession(cfg);

  std::vector<uint8_t> out;
  s->HandleStatement("SELECT customer, date, package, item, price FROM R1",
                     &out);
  std::vector<Frame> frames = DecodeAll(out);
  ASSERT_FALSE(frames.empty());
  ASSERT_EQ(frames.back().type, FrameType::kError);
  ErrorInfo err = DecodeError(frames.back().payload);
  EXPECT_EQ(err.code, kErrMemory);
  EXPECT_EQ(s->stats()->killed.load(), 1);

  // The session survives the kill: a small statement runs fine after it.
  out.clear();
  s->HandleStatement("SELECT va, vb FROM V", &out);
  frames = DecodeAll(out);
  ASSERT_FALSE(frames.empty());
  EXPECT_EQ(frames.back().type, FrameType::kDone)
      << (frames.back().type == FrameType::kError
              ? DecodeError(frames.back().payload).message
              : "");
}

// Grouped rows stream to the wire as they are enumerated, and each one
// is still charged to the statement's memory cap: agg_view's Q1, whose
// f-plan allocates next to nothing, is killed by a cap below its rows'
// footprint.
TEST_F(SessionLimitTest, MemoryCapChargesStreamedGroupRows) {
  const std::string q1 =
      "SELECT package, date, customer, sum(price) FROM R1 "
      "GROUP BY package, date, customer";
  std::unique_ptr<Session> s = MakeSession(AdmissionConfig{});
  std::vector<uint8_t> out;
  s->HandleStatement(q1, &out);
  Response full = DecodeResponse(out);
  ASSERT_TRUE(full.done.has_value());
  // Every full run of 256 four-column rows is charged.
  uint64_t row_bytes = full.rows.size() / 256 * 256 * 4 * sizeof(Value);
  EXPECT_GE(full.done->mem_charged, row_bytes);

  AdmissionConfig cfg;
  cfg.query_mem_bytes = 256 << 10;
  ASSERT_GT(row_bytes, 2u * cfg.query_mem_bytes);
  s = MakeSession(cfg);
  out.clear();
  s->HandleStatement(q1, &out);
  std::vector<Frame> frames = DecodeAll(out);
  ASSERT_FALSE(frames.empty());
  ASSERT_EQ(frames.back().type, FrameType::kError);
  EXPECT_EQ(DecodeError(frames.back().payload).code, kErrMemory);
  EXPECT_EQ(s->stats()->killed.load(), 1);

  // The session survives the kill: a small statement runs fine after it.
  out.clear();
  s->HandleStatement("SELECT va, vb FROM V", &out);
  frames = DecodeAll(out);
  ASSERT_FALSE(frames.empty());
  EXPECT_EQ(frames.back().type, FrameType::kDone);
}

TEST_F(SessionLimitTest, WallTimeCapKillsTheQueryWithATypedError) {
  AdmissionConfig cfg;
  cfg.query_timeout_ms = 1;  // no full-join statement finishes in 1 ms
  std::unique_ptr<Session> s = MakeSession(cfg);

  std::vector<uint8_t> out;
  s->HandleStatement(
      "SELECT customer, date, package, item, price FROM R1 ORDER BY price",
      &out);
  std::vector<Frame> frames = DecodeAll(out);
  ASSERT_FALSE(frames.empty());
  ASSERT_EQ(frames.back().type, FrameType::kError);
  EXPECT_EQ(DecodeError(frames.back().payload).code, kErrTimeout);

  out.clear();
  s->HandleStatement("SELECT va, vb FROM V", &out);
  frames = DecodeAll(out);
  ASSERT_FALSE(frames.empty());
  EXPECT_EQ(frames.back().type, FrameType::kDone);
}

TEST_F(SessionLimitTest, ParseAndTxnErrorsAreTypedAndNonFatal) {
  std::unique_ptr<Session> s = MakeSession(AdmissionConfig{});

  std::vector<uint8_t> out;
  s->HandleStatement("SELEKT nonsense", &out);
  std::vector<Frame> frames = DecodeAll(out);
  ASSERT_EQ(frames.size(), 1u);
  ASSERT_EQ(frames[0].type, FrameType::kError);
  EXPECT_EQ(DecodeError(frames[0].payload).code, kErrParse);

  out.clear();
  s->HandleStatement("COMMIT", &out);  // no BEGIN
  frames = DecodeAll(out);
  ASSERT_EQ(frames.size(), 1u);
  ASSERT_EQ(frames[0].type, FrameType::kError);
  EXPECT_EQ(DecodeError(frames[0].payload).code, kErrTxn);

  // A write the parser rejects is a parse error; one that parses but
  // fails validation is a rolled-back one-op group, like a failed COMMIT.
  const std::vector<std::pair<std::string, uint8_t>> writes = {
      {"INSERT INTO V VALUES (1, 2", kErrParse},
      {"INSERT INTO V VALUES (1.2.3, 4)", kErrParse},
      {"INSERT INTO NoSuchView VALUES (1, 2)", kErrTxn},
      {"INSERT INTO V VALUES (1, 2, 3)", kErrTxn},
  };
  for (const auto& [text, code] : writes) {
    out.clear();
    s->HandleStatement(text, &out);
    frames = DecodeAll(out);
    ASSERT_EQ(frames.size(), 1u) << text;
    ASSERT_EQ(frames[0].type, FrameType::kError) << text;
    EXPECT_EQ(DecodeError(frames[0].payload).code, code) << text;
  }
  // A literal that overflows is a parse error, not an execution error.
  out.clear();
  s->HandleStatement("SELECT va FROM V WHERE vb = 99999999999999999999", &out);
  frames = DecodeAll(out);
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(DecodeError(frames[0].payload).code, kErrParse);

  out.clear();
  s->HandleStatement("SELECT va, vb FROM V", &out);
  frames = DecodeAll(out);
  EXPECT_EQ(frames.back().type, FrameType::kDone);
  EXPECT_EQ(DecodeResponse(out).rows.size(), 50u);
}

// A session's autocommit write is its own commit group: an in-process
// transaction that is open at the same time neither swallows it nor
// drops it on rollback.
TEST_F(SessionLimitTest, SessionWriteIsNotPartOfAnInProcessTransaction) {
  std::unique_ptr<Session> s = MakeSession(AdmissionConfig{});
  db_.Begin();
  std::vector<uint8_t> out;
  s->HandleStatement("INSERT INTO V VALUES (7, 700)", &out);
  Response r = DecodeResponse(out);
  ASSERT_TRUE(r.done.has_value())
      << (r.error.has_value() ? r.error->message : "");
  EXPECT_EQ(r.done->rows, 1u);
  EXPECT_EQ(db_.WalStatus().pending_ops, 0u);
  db_.Rollback();
  EXPECT_TRUE(ContainsTuple(*db_.ViewSnapshot("V"), {Value(7), Value(700)}));
}

TEST_F(SessionLimitTest, DrainingSessionRefusesWrites) {
  std::unique_ptr<Session> s = MakeSession(AdmissionConfig{});
  std::vector<uint8_t> out;
  s->HandleStatement("BEGIN", &out);
  s->HandleStatement("INSERT INTO V VALUES (8, 800)", &out);
  ASSERT_FALSE(DecodeResponse(out).error.has_value());

  draining_.store(true);
  for (const char* text : {"INSERT INTO V VALUES (8, 801)", "COMMIT"}) {
    out.clear();
    s->HandleStatement(text, &out);
    std::vector<Frame> frames = DecodeAll(out);
    ASSERT_EQ(frames.size(), 1u) << text;
    ASSERT_EQ(frames[0].type, FrameType::kError) << text;
    EXPECT_EQ(DecodeError(frames[0].payload).code, kErrShutdown) << text;
  }
  std::shared_ptr<const Factorisation> v = db_.ViewSnapshot("V");
  EXPECT_FALSE(ContainsTuple(*v, {Value(8), Value(800)}));
  EXPECT_FALSE(ContainsTuple(*v, {Value(8), Value(801)}));
  EXPECT_EQ(v->CountTuples(), 50);
}

// Runs `sql` on session `s`, whose socket's peer end is `peer`: the
// session flushes its buffer to the socket whenever it fills while the
// rows stream, and the unsent tail is written after the statement, as
// Session::Run does. Returns every byte the peer read, through the Done
// or Error frame; *flushed receives how many were sent mid-statement.
std::vector<uint8_t> ServeOverSocket(Session* s, int fd, int peer,
                                     const std::string& sql,
                                     size_t* flushed) {
  std::vector<uint8_t> got;
  std::thread reader([&got, peer] {
    FrameDecoder dec;
    uint8_t buf[64 * 1024];
    for (bool end = false; !end;) {
      ssize_t n = ::recv(peer, buf, sizeof(buf), 0);
      if (n <= 0) break;
      got.insert(got.end(), buf, buf + n);
      dec.Feed(buf, static_cast<size_t>(n));
      Frame f;
      while (dec.Next(&f)) {
        end = end || f.type == FrameType::kDone ||
              f.type == FrameType::kError;
      }
    }
  });
  std::vector<uint8_t> out;
  s->HandleStatement(sql, &out);
  for (size_t off = 0; off < out.size();) {
    ssize_t w = ::send(fd, out.data() + off, out.size() - off, MSG_NOSIGNAL);
    if (w <= 0) {
      ::shutdown(fd, SHUT_WR);  // ends the reader instead of hanging it
      break;
    }
    off += static_cast<size_t>(w);
  }
  reader.join();
  *flushed = got.size() - out.size();
  return got;
}

// The rows a session streams are exactly the rows the engine
// materialises at one thread, in the same order, whether the session runs
// at one thread or splits the top union into rank chunks across four —
// and whether the rows leave in one write or across several flushes.
TEST_F(SessionLimitTest, StreamedResultEqualsTheMaterialisedOne) {
  std::vector<std::string> queries = {
      // The ordering experiments' Q10-Q13.
      "SELECT * FROM R1 ORDER BY package, date, item",
      "SELECT * FROM R1 ORDER BY package, item, date",
      "SELECT * FROM R1 ORDER BY date, package, item",
      "SELECT * FROM R3 ORDER BY customer, date, package",
      "SELECT * FROM R1 ORDER BY package, date, item LIMIT 10",
      "SELECT * FROM R3 ORDER BY customer, date, package LIMIT 10",
      // Projections that drop and reorder columns.
      "SELECT item, customer FROM R1 ORDER BY item",
      "SELECT price, date FROM R1",
      "SELECT customer, sum(price) AS revenue FROM R1 GROUP BY customer",
      // The output stage's avg, DISTINCT, HAVING under LIMIT, and the
      // collected re-sort on an aggregate alias.
      "SELECT customer, avg(price) AS ap, count(*) FROM R1 GROUP BY customer",
      "SELECT DISTINCT date, package FROM R1 LIMIT 25",
      "SELECT customer, count(*) AS c FROM R1 GROUP BY customer "
      "HAVING count(*) > 1 ORDER BY customer LIMIT 5",
      "SELECT customer, sum(price) AS revenue FROM R1 GROUP BY customer "
      "ORDER BY revenue LIMIT 5",
  };
  // The aggregation experiments' Q1, Q3, Q8 and Q9: thousands of groups
  // streamed through the output stage, more Row frames than one flush
  // holds. Q8 swaps date to the root, so its groups split into rank
  // chunks at four threads.
  const std::vector<std::string> agg_view = {
      "SELECT package, date, customer, sum(price) FROM R1 "
      "GROUP BY package, date, customer",
      "SELECT date, package, sum(price) FROM R1 GROUP BY date, package",
      "SELECT date, package, sum(price) AS s FROM R1 "
      "GROUP BY date, package ORDER BY date, package",
      "SELECT date, package, sum(price) AS s FROM R1 "
      "GROUP BY date, package ORDER BY package, date",
  };
  queries.insert(queries.end(), agg_view.begin(), agg_view.end());
  std::vector<Relation> want;
  {
    PoolSize pool(1);
    for (const std::string& sql : queries) {
      want.push_back(FdbEngine(&db_).Execute(Bind(ParseSql(sql), &db_)).flat);
    }
  }
  for (int threads : {1, 4}) {
    PoolSize pool(threads);
    int sv[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
    std::unique_ptr<Session> s = MakeSession(AdmissionConfig{}, sv[0]);
    for (size_t q = 0; q < queries.size(); ++q) {
      SCOPED_TRACE(queries[q] + " at " + std::to_string(threads) + " threads");
      size_t flushed = 0;
      Response r =
          DecodeResponse(ServeOverSocket(s.get(), sv[0], sv[1], queries[q],
                                         &flushed));
      if (q + agg_view.size() >= queries.size()) {
        EXPECT_GT(flushed, 0u);
      }
      ASSERT_FALSE(r.error.has_value()) << r.error->message;
      ASSERT_TRUE(r.done.has_value());

      std::vector<std::string> cols;
      for (AttrId a : want[q].schema().attrs()) {
        cols.push_back(db_.registry().Name(a));
      }
      EXPECT_EQ(r.columns, cols);
      ASSERT_EQ(r.rows.size(), want[q].rows().size());
      for (size_t i = 0; i < r.rows.size(); ++i) {
        ASSERT_EQ(r.rows[i], want[q].rows()[i]) << "row " << i;
      }
      EXPECT_EQ(r.done->rows, r.rows.size());
    }
    s.reset();  // closes sv[0]
    ::close(sv[1]);
  }
}

// A client that hangs up mid-stream stops the enumeration: the failed
// write trips the session's token, and the statement ends as killed
// instead of running on into a dead socket.
TEST_F(SessionLimitTest, ClientDisconnectMidStreamCancelsTheStatement) {
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  std::unique_ptr<Session> s = MakeSession(AdmissionConfig{}, sv[0]);
  // The peer reads until the Schema frame has arrived, then closes.
  std::thread peer([fd = sv[1]] {
    FrameDecoder dec;
    Frame f;
    uint8_t buf[4096];
    for (;;) {
      ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
      if (n <= 0) break;
      dec.Feed(buf, static_cast<size_t>(n));
      if (dec.Next(&f)) break;  // the first frame is the Schema
    }
    ::close(fd);
  });

  auto t0 = std::chrono::steady_clock::now();
  std::vector<uint8_t> out;
  s->HandleStatement("SELECT * FROM R1 ORDER BY price", &out);
  double secs = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
  peer.join();

  EXPECT_LT(secs, 10.0);
  EXPECT_EQ(s->stats()->killed.load(), 1);
  // `out` holds the unsent tail, which ends in the cancellation error.
  std::vector<Frame> frames = DecodeAll(out);
  ASSERT_FALSE(frames.empty());
  ASSERT_EQ(frames.back().type, FrameType::kError);
  EXPECT_EQ(DecodeError(frames.back().payload).code, kErrShutdown);
}

// The statement store counts the rows a served statement streamed.
TEST_F(SessionLimitTest, StatementStoreRecordsTheStreamedRowCount) {
  obs::SetMetricsEnabled(true);
  obs::StatementStore::Instance().Clear();
  std::unique_ptr<Session> s = MakeSession(AdmissionConfig{});

  std::vector<uint8_t> out;
  s->HandleStatement("SELECT * FROM R1 ORDER BY package, date, item", &out);
  Response r = DecodeResponse(out);
  ASSERT_TRUE(r.done.has_value());
  ASSERT_GT(r.rows.size(), 0u);

  out.clear();
  s->HandleStatement("SELECT query, rows_returned FROM fdb.statements", &out);
  Response stmts = DecodeResponse(out);
  obs::StatementStore::Instance().Clear();
  obs::SetMetricsEnabled(false);
  ASSERT_TRUE(stmts.done.has_value());
  ASSERT_EQ(stmts.rows.size(), 1u);
  EXPECT_NE(stmts.rows[0][0].as_string().find("R1"), std::string::npos);
  EXPECT_EQ(stmts.rows[0][1].as_int(), static_cast<int64_t>(r.rows.size()));
}

// --- full server over real sockets --------------------------------------

class ServerTest : public ::testing::Test {
 protected:
  void StartServer(ServerConfig cfg, int scale = 3) {
    FillDb(&db_, scale);
    server_ = std::make_unique<Server>(&db_, cfg);
    server_->Start();
    ASSERT_GT(server_->port(), 0);
  }

  Client Connect() {
    Client c;
    c.Connect("127.0.0.1", server_->port());
    return c;
  }

  void TearDown() override {
    if (server_ != nullptr) server_->Shutdown();
  }

  Database db_;
  std::unique_ptr<Server> server_;
};

TEST_F(ServerTest, QueryOverTheWireMatchesLocalExecution) {
  StartServer(ServerConfig{});
  Client c = Connect();
  Client::Result res = c.Query(
      "SELECT customer, sum(price) AS revenue FROM R1 GROUP BY customer");
  ASSERT_TRUE(res.ok) << res.error.message;
  ASSERT_EQ(res.columns.size(), 2u);
  EXPECT_EQ(res.columns[0], "customer");
  EXPECT_EQ(res.rows.size(), res.stats.rows);
  EXPECT_GT(res.rows.size(), 0u);
  EXPECT_GT(res.stats.elapsed_ns, 0u);
}

// A wall-time kill can land after Row frames went out: the response is
// then Schema Row* Error, the client drops the partial rows, and the
// connection serves the next statement normally.
TEST_F(ServerTest, MidStreamTimeoutIsAnErrorAndTheConnectionSurvives) {
  ServerConfig cfg;
  cfg.admission.query_timeout_ms = 1;  // no full-join statement fits in 1 ms
  StartServer(cfg, /*scale=*/4);
  Client c = Connect();

  Client::Result res = c.Query("SELECT * FROM R1 ORDER BY price");
  ASSERT_FALSE(res.ok);
  EXPECT_EQ(res.error.code, kErrTimeout) << res.error.message;
  EXPECT_TRUE(res.rows.empty());

  Client::Result next = c.Query("SELECT va, vb FROM V");
  ASSERT_TRUE(next.ok) << next.error.message;
  EXPECT_EQ(next.rows.size(), 50u);
  c.Close();
}

TEST_F(ServerTest, ManyConcurrentClientsMixedReadWrite) {
  ServerConfig cfg;
  cfg.admission.max_concurrent = 4;
  cfg.admission.max_queue = 64;
  cfg.admission.queue_wait_ms = 30000;
  StartServer(cfg);

  constexpr int kClients = 8;
  constexpr int kStatements = 6;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int ci = 0; ci < kClients; ++ci) {
    threads.emplace_back([&, ci] {
      try {
        Client c;
        c.Connect("127.0.0.1", server_->port());
        for (int q = 0; q < kStatements; ++q) {
          Client::Result res;
          if (q % 3 == 2) {
            // Distinct tuple per (client, statement): no-op-free inserts.
            res = c.Query("INSERT INTO V VALUES (" + std::to_string(100 + ci) +
                          ", " + std::to_string(1000 + ci * 100 + q) + ")");
          } else {
            res = c.Query(
                "SELECT customer, sum(price) AS revenue FROM R1 "
                "GROUP BY customer");
          }
          if (!res.ok && !res.retry) failures.fetch_add(1);
        }
        c.Close();
      } catch (const std::exception&) {
        failures.fetch_add(1);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);

  // Every insert landed exactly once (distinct tuples, atomic writes).
  Client c = Connect();
  EXPECT_EQ(CountV(&c), 50 + kClients * (kStatements / 3));
  c.Close();
}

TEST_F(ServerTest, TransactionsOverTheWire) {
  StartServer(ServerConfig{});
  Client writer = Connect();
  Client reader = Connect();
  int64_t before = CountV(&reader);

  ASSERT_TRUE(writer.Query("BEGIN").ok);
  ASSERT_TRUE(writer.Query("INSERT INTO V VALUES (900, 9000)").ok);
  ASSERT_TRUE(writer.Query("INSERT INTO V VALUES (900, 9001)").ok);
  // Buffered writes are session-local until COMMIT.
  EXPECT_EQ(CountV(&reader), before);
  ASSERT_TRUE(writer.Query("COMMIT").ok);
  EXPECT_EQ(CountV(&reader), before + 2);

  // ROLLBACK drops the buffer.
  ASSERT_TRUE(writer.Query("BEGIN").ok);
  ASSERT_TRUE(writer.Query("INSERT INTO V VALUES (901, 9100)").ok);
  ASSERT_TRUE(writer.Query("ROLLBACK").ok);
  EXPECT_EQ(CountV(&reader), before + 2);

  // A session closing with an open transaction must not leak it into the
  // database: the buffer dies with the session.
  ASSERT_TRUE(writer.Query("BEGIN").ok);
  ASSERT_TRUE(writer.Query("INSERT INTO V VALUES (902, 9200)").ok);
  writer.Close();
  EXPECT_EQ(CountV(&reader), before + 2);
  reader.Close();
}

TEST_F(ServerTest, SessionsSystemTableSeesLiveSessions) {
  StartServer(ServerConfig{});
  Client c = Connect();
  ASSERT_TRUE(c.Query("SELECT customer FROM R1 GROUP BY customer").ok);
  Client::Result res = c.Query(
      "SELECT session_id, peer, queries, rows_sent FROM fdb.sessions");
  ASSERT_TRUE(res.ok) << res.error.message;
  // At least this session, with at least one completed query.
  ASSERT_GE(res.rows.size(), 1u);
  bool found = false;
  for (const std::vector<Value>& row : res.rows) {
    if (row[2].as_int() >= 1) found = true;
  }
  EXPECT_TRUE(found);
  c.Close();
}

TEST_F(ServerTest, SaturationYieldsTypedRetriesNotHangs) {
  obs::SetMetricsEnabled(true);
  ServerConfig cfg;
  cfg.admission.max_concurrent = 1;
  cfg.admission.max_queue = 0;  // reject instantly when busy
  StartServer(cfg, /*scale=*/4);

  constexpr int kClients = 6;
  std::atomic<int> retries{0}, oks{0}, hard_failures{0};
  std::vector<std::thread> threads;
  for (int ci = 0; ci < kClients; ++ci) {
    threads.emplace_back([&] {
      try {
        Client c;
        c.Connect("127.0.0.1", server_->port());
        for (int q = 0; q < 10; ++q) {
          Client::Result res = c.Query(
              "SELECT customer, item FROM R1 ORDER BY customer");
          if (res.retry) {
            retries.fetch_add(1);
            EXPECT_GT(res.retry_info.retry_after_ms, 0u);
          } else if (res.ok) {
            oks.fetch_add(1);
          } else {
            hard_failures.fetch_add(1);
          }
        }
        c.Close();
      } catch (const std::exception&) {
        hard_failures.fetch_add(1);
      }
    });
  }
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(hard_failures.load(), 0);
  EXPECT_GT(oks.load(), 0);
  // Six clients hammering a single slot with no queue: rejections are
  // effectively certain; the bound being tested is "reject, don't hang".
  EXPECT_GT(retries.load(), 0);

  // The server still serves once the burst is over.
  Client c = Connect();
  for (int attempt = 0; attempt < 50; ++attempt) {
    Client::Result res = c.Query("SELECT va, vb FROM V");
    if (res.ok) break;
    ASSERT_TRUE(res.retry);
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  c.Close();
}

TEST_F(ServerTest, SessionCapRefusesExtraConnections) {
  ServerConfig cfg;
  cfg.max_sessions = 1;
  StartServer(cfg);
  Client first = Connect();
  EXPECT_THROW(
      {
        Client second;
        second.Connect("127.0.0.1", server_->port());
      },
      std::runtime_error);
  first.Close();
}

TEST_F(ServerTest, GracefulShutdownDisconnectsIdleSessions) {
  StartServer(ServerConfig{});
  Client c = Connect();
  ASSERT_TRUE(c.Query("SELECT va, vb FROM V").ok);

  server_->Shutdown();
  EXPECT_TRUE(server_->draining());

  // The drained session is gone: the next statement fails cleanly.
  EXPECT_THROW((void)c.Query("SELECT va, vb FROM V"), std::runtime_error);
  // And the listener is closed: new connections are refused.
  EXPECT_THROW(
      {
        Client again;
        again.Connect("127.0.0.1", server_->port());
      },
      std::runtime_error);

  EXPECT_EQ(SessionRegistry::Instance().live(), 0);
  server_->Shutdown();  // idempotent
}

TEST_F(ServerTest, ShutdownKillsARunawayStatement) {
  ServerConfig cfg;
  cfg.drain_ms = 200;  // short grace period, then the token trips
  StartServer(cfg, /*scale=*/4);

  Client c = Connect();
  std::atomic<bool> got_response{false};
  std::thread runner([&] {
    try {
      // Heavy statement: likely still executing when Shutdown() fires.
      (void)c.Query(
          "SELECT customer, date, package, item, price FROM R1 "
          "ORDER BY price");
    } catch (const std::exception&) {
    }
    got_response.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  server_->Shutdown();  // must return despite the in-flight statement
  runner.join();
  EXPECT_TRUE(got_response.load());
  EXPECT_EQ(SessionRegistry::Instance().live(), 0);
}

}  // namespace
}  // namespace serve
}  // namespace fdb

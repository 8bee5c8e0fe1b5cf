#include "fdb/serve/wire.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>
#include <utility>
#include <vector>

// Wire-codec tests: round-trips for every typed payload, the incremental
// decoder under byte-at-a-time delivery, and — the part that matters for
// a network-facing parser — rejection of malformed, truncated, oversized
// and hostile inputs. Nothing here opens a socket.

namespace fdb {
namespace serve {
namespace {

std::vector<uint8_t> OneFrame(FrameType type,
                              const std::vector<uint8_t>& payload) {
  std::vector<uint8_t> out;
  AppendFrame(&out, type, payload.data(), payload.size());
  return out;
}

TEST(WireTest, FrameRoundTripWholeAndByteAtATime) {
  std::vector<uint8_t> payload = {1, 2, 3, 4, 5};
  std::vector<uint8_t> bytes = OneFrame(FrameType::kRow, payload);
  ASSERT_EQ(bytes.size(), payload.size() + 5);

  FrameDecoder whole;
  whole.Feed(bytes.data(), bytes.size());
  Frame f;
  ASSERT_TRUE(whole.Next(&f));
  EXPECT_EQ(f.type, FrameType::kRow);
  EXPECT_EQ(f.payload, payload);
  EXPECT_FALSE(whole.Next(&f));

  // The decoder must produce the identical frame when the bytes dribble
  // in one at a time (short TCP reads).
  FrameDecoder dribble;
  for (size_t i = 0; i < bytes.size(); ++i) {
    Frame g;
    EXPECT_EQ(dribble.Next(&g), i == bytes.size())
        << "frame completed early at byte " << i;
    dribble.Feed(&bytes[i], 1);
  }
  Frame g;
  ASSERT_TRUE(dribble.Next(&g));
  EXPECT_EQ(g.payload, payload);
}

TEST(WireTest, DecoderHandlesBackToBackFrames) {
  std::vector<uint8_t> bytes = OneFrame(FrameType::kQuery, {'a'});
  std::vector<uint8_t> more = OneFrame(FrameType::kDone, {});
  bytes.insert(bytes.end(), more.begin(), more.end());

  FrameDecoder dec;
  dec.Feed(bytes.data(), bytes.size());
  Frame f;
  ASSERT_TRUE(dec.Next(&f));
  EXPECT_EQ(f.type, FrameType::kQuery);
  ASSERT_TRUE(dec.Next(&f));
  EXPECT_EQ(f.type, FrameType::kDone);
  EXPECT_TRUE(f.payload.empty());
  EXPECT_FALSE(dec.Next(&f));
  EXPECT_EQ(dec.buffered(), 0u);
}

TEST(WireTest, OversizedLengthPrefixRejectedBeforePayloadArrives) {
  // A hostile 4 GiB length must fail from the 5 header bytes alone — the
  // decoder may never wait for (or allocate) the announced payload.
  uint8_t header[5] = {0xFF, 0xFF, 0xFF, 0xFF,
                       static_cast<uint8_t>(FrameType::kQuery)};
  FrameDecoder dec;
  Frame f;
  dec.Feed(header, sizeof(header));
  EXPECT_THROW(dec.Next(&f), WireError);
}

// Both pops run one header check, and it names the type in hex.
TEST(WireTest, UnknownFrameTypeRejected) {
  for (uint8_t type : {uint8_t{'z'}, uint8_t{0x00}, uint8_t{0xAB}}) {
    uint8_t header[5] = {0, 0, 0, 0, type};
    char want[32];
    std::snprintf(want, sizeof(want), "unknown frame type 0x%02x", type);
    FrameDecoder copying;
    copying.Feed(header, sizeof(header));
    Frame f;
    try {
      copying.Next(&f);
      ADD_FAILURE() << "Next accepted type " << int(type);
    } catch (const WireError& e) {
      EXPECT_STREQ(e.what(), want);
    }
    FrameDecoder viewing;
    viewing.Feed(header, sizeof(header));
    FrameView v;
    try {
      viewing.NextView(&v);
      ADD_FAILURE() << "NextView accepted type " << int(type);
    } catch (const WireError& e) {
      EXPECT_STREQ(e.what(), want);
    }
  }
}

TEST(WireTest, SenderEnforcesTheFrameCapToo) {
  std::vector<uint8_t> big(kMaxFrameBytes + 1);
  std::vector<uint8_t> out;
  EXPECT_THROW(AppendFrame(&out, FrameType::kRow, big.data(), big.size()),
               WireError);
}

// AppendRowFrame's single pass writes byte for byte what framing the
// values encoded through WireWriter (EncodeValue) writes, for every value
// tag and edge value, appended after whatever `out` held.
TEST(WireTest, AppendRowFrameMatchesAFramedEncodeRow) {
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<std::vector<Value>> rows = {
      {Value()},
      {Value(static_cast<int64_t>(-42))},
      {Value(std::numeric_limits<int64_t>::min())},
      {Value(std::numeric_limits<int64_t>::max())},
      {Value(3.25)},
      {Value(-0.0)},
      {Value(std::numeric_limits<double>::quiet_NaN())},
      {Value(inf), Value(-inf)},
      {Value("str")},
      {Value(std::string())},
      {Value(std::string(64 * 1024, 'q'))},
      {Value(), Value(static_cast<int64_t>(1)), Value(0.5), Value("ab"),
       Value(std::string())},
      {},
  };
  for (const std::vector<Value>& row : rows) {
    WireWriter w;
    for (const Value& v : row) EncodeValue(&w, v);
    std::vector<uint8_t> want = {9, 9};
    AppendFrame(&want, FrameType::kRow, w);

    std::vector<uint8_t> got = {9, 9};
    AppendRowFrame(&got, row);
    EXPECT_EQ(got, want);
    EXPECT_EQ(EncodeRow(row), w.bytes());
  }
}

TEST(WireTest, OversizedRowThrowsAndLeavesTheBufferUnchanged) {
  std::vector<Value> row = {Value(static_cast<int64_t>(1)),
                            Value(std::string(kMaxFrameBytes, 'x'))};
  std::vector<uint8_t> out = {1, 2, 3};
  EXPECT_THROW(AppendRowFrame(&out, row), WireError);
  EXPECT_EQ(out, (std::vector<uint8_t>{1, 2, 3}));
}

TEST(WireTest, ValueRoundTripAllTags) {
  std::vector<Value> vals = {Value(), Value(static_cast<int64_t>(-42)),
                             Value(3.25), Value(std::string("héllo\0x", 7)),
                             Value(std::string())};
  WireWriter w;
  for (const Value& v : vals) EncodeValue(&w, v);
  std::vector<uint8_t> bytes = w.Take();
  WireReader r(bytes);
  for (const Value& v : vals) {
    Value got = DecodeValue(&r);
    EXPECT_EQ(got.ToString(), v.ToString());
  }
  r.ExpectEnd();
}

TEST(WireTest, HelloRoundTripAndMismatch) {
  EXPECT_NO_THROW(DecodeHello(EncodeHello()));

  std::vector<uint8_t> bad = EncodeHello();
  bad[0] = 'X';  // wrong magic
  EXPECT_THROW(DecodeHello(bad), WireError);

  std::vector<uint8_t> wrong_version = EncodeHello();
  wrong_version[4] = kProtocolVersion + 1;
  EXPECT_THROW(DecodeHello(wrong_version), WireError);

  EXPECT_THROW(DecodeHello(std::vector<uint8_t>{'F', 'D'}), WireError);
}

TEST(WireTest, SchemaRowDoneErrorRetryRoundTrip) {
  std::vector<std::string> cols = {"customer", "sum(price)", ""};
  EXPECT_EQ(DecodeSchema(EncodeSchema(cols)), cols);

  std::vector<Value> row = {Value(static_cast<int64_t>(7)), Value(1.5),
                            Value("x")};
  std::vector<Value> got = DecodeRow(EncodeRow(row), 3);
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(got[0].as_int(), 7);
  EXPECT_EQ(got[1].as_double(), 1.5);
  EXPECT_EQ(got[2].as_string(), "x");

  DoneStats stats;
  stats.rows = 123;
  stats.elapsed_ns = 456789;
  stats.queue_wait_ns = 42;
  stats.mem_charged = 1 << 20;
  DoneStats back = DecodeDone(EncodeDone(stats));
  EXPECT_EQ(back.rows, stats.rows);
  EXPECT_EQ(back.elapsed_ns, stats.elapsed_ns);
  EXPECT_EQ(back.queue_wait_ns, stats.queue_wait_ns);
  EXPECT_EQ(back.mem_charged, stats.mem_charged);

  ErrorInfo err{kErrTimeout, "query killed: wall-time limit"};
  ErrorInfo eback = DecodeError(EncodeError(err));
  EXPECT_EQ(eback.code, kErrTimeout);
  EXPECT_EQ(eback.message, err.message);
  EXPECT_STREQ(ErrorCodeName(eback.code), "timeout");

  RetryInfo retry{250, "admission queue full"};
  RetryInfo rback = DecodeRetry(EncodeRetry(retry));
  EXPECT_EQ(rback.retry_after_ms, 250u);
  EXPECT_EQ(rback.message, retry.message);
}

TEST(WireTest, TruncatedTypedPayloadsThrowNotCrash) {
  // Chop each payload at every strict-prefix length and feed it back to
  // its own decoder: every cut must throw WireError — never read out of
  // bounds (ASan is the second half of this assertion).
  auto chop = [](const std::vector<uint8_t>& full,
                 auto decode) {
    for (size_t cut = 0; cut < full.size(); ++cut) {
      std::vector<uint8_t> part(full.begin(), full.begin() + cut);
      EXPECT_THROW(decode(part), WireError) << "cut=" << cut;
    }
  };
  chop(EncodeSchema({"a", "bc"}),
       [](const std::vector<uint8_t>& p) { (void)DecodeSchema(p); });
  chop(EncodeRow({Value(static_cast<int64_t>(1)), Value("xyz")}),
       [](const std::vector<uint8_t>& p) { (void)DecodeRow(p, 2); });
  chop(EncodeDone(DoneStats{1, 2, 3, 4}),
       [](const std::vector<uint8_t>& p) { (void)DecodeDone(p); });
  chop(EncodeError(ErrorInfo{kErrExec, "boom"}),
       [](const std::vector<uint8_t>& p) { (void)DecodeError(p); });
  chop(EncodeRetry(RetryInfo{10, "busy"}),
       [](const std::vector<uint8_t>& p) { (void)DecodeRetry(p); });
}

TEST(WireTest, HostileSchemaCountCannotPreallocate) {
  // count = 2^32-1 with no column bytes behind it: must throw, not
  // reserve gigabytes.
  WireWriter w;
  w.U32(0xFFFFFFFFu);
  EXPECT_THROW((void)DecodeSchema(w.Take()), WireError);

  // A string length pointing past the payload end likewise.
  WireWriter w2;
  w2.U32(1);
  w2.U32(0x7FFFFFFFu);  // column-name length with no bytes following
  EXPECT_THROW((void)DecodeSchema(w2.Take()), WireError);
}

// A Schema/Row/Done response split into two reads at every byte: the
// copy-free pop plus the span DecodeRow must yield exactly the frames and
// values that Next plus DecodeRow(vector) yield.
TEST(WireTest, ViewDecodeMatchesCopyingDecodeAtEverySplit) {
  std::vector<std::vector<Value>> rows = {
      {Value(static_cast<int64_t>(1)), Value(2.5), Value("x")},
      {Value(), Value(std::numeric_limits<double>::quiet_NaN()), Value("")},
      {Value(static_cast<int64_t>(-7)), Value(-0.0), Value("longer string")},
  };
  std::vector<uint8_t> bytes =
      OneFrame(FrameType::kSchema, EncodeSchema({"a", "b", "c"}));
  for (const std::vector<Value>& row : rows) AppendRowFrame(&bytes, row);
  std::vector<uint8_t> done = OneFrame(FrameType::kDone,
                                       EncodeDone(DoneStats{3, 4, 5, 6}));
  bytes.insert(bytes.end(), done.begin(), done.end());

  std::vector<Frame> want;
  {
    FrameDecoder dec;
    dec.Feed(bytes.data(), bytes.size());
    Frame f;
    while (dec.Next(&f)) want.push_back(f);
  }
  ASSERT_EQ(want.size(), rows.size() + 2);

  for (size_t split = 0; split <= bytes.size(); ++split) {
    FrameDecoder dec;
    std::vector<Frame> got;
    std::vector<std::vector<Value>> got_rows;
    for (auto [from, to] : {std::pair{size_t{0}, split},
                            std::pair{split, bytes.size()}}) {
      dec.Feed(bytes.data() + from, to - from);
      FrameView v;
      // Each view is consumed before the next Feed, as Client does.
      while (dec.NextView(&v)) {
        got.push_back({v.type, std::vector<uint8_t>(v.data, v.data + v.size)});
        if (v.type == FrameType::kRow) {
          got_rows.push_back(DecodeRow(v.data, v.size, 3));
        }
      }
    }
    ASSERT_EQ(got.size(), want.size()) << "split=" << split;
    for (size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(got[i].type, want[i].type) << "split=" << split;
      EXPECT_EQ(got[i].payload, want[i].payload) << "split=" << split;
    }
    ASSERT_EQ(got_rows.size(), rows.size());
    for (size_t i = 0; i < rows.size(); ++i) {
      // Re-encoding compares bit patterns, so -0.0 and NaN count too.
      EXPECT_EQ(EncodeRow(got_rows[i]),
                EncodeRow(DecodeRow(want[i + 1].payload, 3)))
          << "split=" << split << " row=" << i;
    }
    EXPECT_EQ(dec.buffered(), 0u);
  }
}

TEST(WireTest, SpanDecodeRowRejectsWhatTheVectorDecodeRejects) {
  std::vector<uint8_t> good =
      EncodeRow({Value(static_cast<int64_t>(1)), Value("xyz")});
  std::vector<std::vector<uint8_t>> bad;
  for (size_t cut = 0; cut < good.size(); ++cut) {
    bad.emplace_back(good.begin(), good.begin() + cut);  // truncated
  }
  bad.push_back(good);
  bad.back().push_back(0);  // trailing byte
  bad.push_back(good);
  bad.back()[0] = 4;  // bad tag
  for (const std::vector<uint8_t>& p : bad) {
    EXPECT_THROW((void)DecodeRow(p, 2), WireError) << p.size();
    EXPECT_THROW((void)DecodeRow(p.data(), p.size(), 2), WireError)
        << p.size();
  }
  std::vector<Value> row = DecodeRow(good.data(), good.size(), 2);
  ASSERT_EQ(row.size(), 2u);
  EXPECT_EQ(row[0].as_int(), 1);
  EXPECT_EQ(row[1].as_string(), "xyz");
}

TEST(WireTest, TrailingGarbageAfterPayloadRejected) {
  std::vector<uint8_t> done = EncodeDone(DoneStats{1, 2, 3, 4});
  done.push_back(0xAB);
  EXPECT_THROW((void)DecodeDone(done), WireError);
}

// Fuzz-style loop: deterministic xorshift mutations of valid frames fed
// through the full decoder + typed-payload path. The invariant is "throws
// WireError or decodes cleanly" — no crashes, no unbounded allocation.
TEST(WireTest, MutationFuzzNeverCrashes) {
  uint64_t rng = 0x9E3779B97F4A7C15ull;
  auto next = [&rng]() {
    rng ^= rng << 13;
    rng ^= rng >> 7;
    rng ^= rng << 17;
    return rng;
  };

  std::vector<std::vector<uint8_t>> seeds = {
      OneFrame(FrameType::kHello, EncodeHello()),
      OneFrame(FrameType::kSchema, EncodeSchema({"a", "b", "c"})),
      OneFrame(FrameType::kRow,
               EncodeRow({Value(static_cast<int64_t>(9)), Value(2.5),
                          Value("str"), Value()})),
      OneFrame(FrameType::kDone, EncodeDone(DoneStats{5, 6, 7, 8})),
      OneFrame(FrameType::kError, EncodeError(ErrorInfo{kErrParse, "p"})),
      OneFrame(FrameType::kRetry, EncodeRetry(RetryInfo{99, "later"})),
  };

  int decoded = 0, rejected = 0;
  for (int iter = 0; iter < 4000; ++iter) {
    std::vector<uint8_t> bytes = seeds[iter % seeds.size()];
    // Mutate 1..4 bytes (sometimes truncate instead).
    if (next() % 8 == 0 && !bytes.empty()) {
      bytes.resize(next() % bytes.size());
    } else {
      int flips = 1 + static_cast<int>(next() % 4);
      for (int i = 0; i < flips && !bytes.empty(); ++i) {
        bytes[next() % bytes.size()] =
            static_cast<uint8_t>(next() & 0xFF);
      }
    }
    FrameDecoder dec;
    try {
      dec.Feed(bytes.data(), bytes.size());
      Frame f;
      while (dec.Next(&f)) {
        switch (f.type) {
          case FrameType::kHello:
            DecodeHello(f.payload);
            break;
          case FrameType::kSchema: {
            std::vector<std::string> cols = DecodeSchema(f.payload);
            (void)cols;
            break;
          }
          case FrameType::kRow:
            (void)DecodeRow(f.payload, 4);
            break;
          case FrameType::kDone:
            (void)DecodeDone(f.payload);
            break;
          case FrameType::kError:
            (void)DecodeError(f.payload);
            break;
          case FrameType::kRetry:
            (void)DecodeRetry(f.payload);
            break;
          case FrameType::kQuery:
            break;
        }
        ++decoded;
      }
    } catch (const WireError&) {
      ++rejected;
    }
  }
  // The loop is deterministic: both outcomes must actually occur or the
  // fuzzer is not exercising anything.
  EXPECT_GT(decoded, 0);
  EXPECT_GT(rejected, 0);
}

}  // namespace
}  // namespace serve
}  // namespace fdb

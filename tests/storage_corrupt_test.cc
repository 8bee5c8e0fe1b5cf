#include <gtest/gtest.h>

#include <cstddef>
#include <cstring>
#include <random>
#include <string>

#include "fdb/engine/database.h"
#include "fdb/storage/format.h"
#include "fdb/storage/snapshot.h"
#include "test_util.h"

namespace fdb {
namespace {

// A small but representative snapshot: strings, a DAG view, a flat
// relation, several value types.
std::string MakeSnapshotBytes() {
  Database db;
  db.AddView("V", testing::MakeSwapDag(&db, "cor"));
  AttrId c = db.Attr("cor_c");
  Relation s{RelSchema({c})};
  s.Add({Value("corrupt test string")});
  s.Add({Value(2.75)});
  s.Add({Value()});
  db.AddRelation("S", std::move(s));
  return storage::SerialiseDatabase(db);
}

// Opening must either succeed or throw std::invalid_argument — never
// crash, hang, or surface another exception type. Materialises every
// view, where most of the bounds checks live.
enum class OpenResult { kOk, kRejected };

OpenResult TryOpen(const std::string& bytes) {
  try {
    Database db = Database::OpenSnapshot(
        storage::SnapshotMapping::FromBuffer(bytes.data(), bytes.size()));
    for (const std::string& name : db.ViewNames()) {
      const Factorisation* v = db.view(name);
      if (v != nullptr) v->CountTuples();
    }
    return OpenResult::kOk;
  } catch (const std::invalid_argument&) {
    return OpenResult::kRejected;
  }
}

TEST(StorageCorruptTest, IntactSnapshotOpens) {
  EXPECT_EQ(TryOpen(MakeSnapshotBytes()), OpenResult::kOk);
}

TEST(StorageCorruptTest, TruncationsAreRejected) {
  std::string good = MakeSnapshotBytes();
  // Every truncation changes file_size vs the header, or cuts the header
  // itself; all must throw.
  for (size_t len = 0; len < good.size(); len += 7) {
    EXPECT_EQ(TryOpen(good.substr(0, len)), OpenResult::kRejected)
        << "truncated to " << len << " of " << good.size();
  }
}

TEST(StorageCorruptTest, HeaderFieldCorruptionsAreRejected) {
  std::string good = MakeSnapshotBytes();

  std::string bad = good;
  bad[0] = 'X';  // magic
  EXPECT_EQ(TryOpen(bad), OpenResult::kRejected);

  bad = good;
  uint32_t version = 99;
  std::memcpy(bad.data() + 8, &version, sizeof(version));
  EXPECT_EQ(TryOpen(bad), OpenResult::kRejected);

  bad = good;
  uint32_t endian = 0x04030201;
  std::memcpy(bad.data() + 12, &endian, sizeof(endian));
  EXPECT_EQ(TryOpen(bad), OpenResult::kRejected);

  bad = good;
  uint64_t size = good.size() + 1;
  std::memcpy(bad.data() + 16, &size, sizeof(size));
  EXPECT_EQ(TryOpen(bad), OpenResult::kRejected);

  // Section table entries start right after the 32-byte header; blow up
  // the first section's offset.
  bad = good;
  uint64_t offset = uint64_t{1} << 60;
  std::memcpy(bad.data() + 32 + 8, &offset, sizeof(offset));
  EXPECT_EQ(TryOpen(bad), OpenResult::kRejected);
}

// Rewriting the header version must not switch off the section CRCs:
// every version but kVersion is rejected outright, so a downgraded image
// never opens, flipped payload byte or not.
TEST(StorageCorruptTest, DowngradedVersionIsRejected) {
  std::string good = MakeSnapshotBytes();
  storage::FileHeader header;
  std::memcpy(&header, good.data(), sizeof(header));
  ASSERT_EQ(header.version, storage::kVersion);

  // One byte of the relation payload: the first character of a stored
  // string, which would still parse (as a different string) if unchecked.
  std::string flipped = good;
  bool found = false;
  for (uint64_t s = 0; s < header.section_count; ++s) {
    storage::SectionEntry e;
    std::memcpy(&e, good.data() + sizeof(header) + s * sizeof(e), sizeof(e));
    if (e.kind != storage::kSectionRelations) continue;
    size_t at = good.find("corrupt test string", e.offset);
    ASSERT_LT(at, e.offset + e.size);
    flipped[at] = 'X';
    found = true;
  }
  ASSERT_TRUE(found);
  EXPECT_EQ(TryOpen(flipped), OpenResult::kRejected);

  for (uint32_t version : {1u, 2u}) {
    for (const std::string* image : {&good, &flipped}) {
      std::string bad = *image;
      std::memcpy(bad.data() + offsetof(storage::FileHeader, version),
                  &version, sizeof(version));
      try {
        Database db = Database::OpenSnapshot(
            storage::SnapshotMapping::FromBuffer(bad.data(), bad.size()));
        ADD_FAILURE() << "version " << version << " opened"
                      << (image == &flipped ? " with a flipped byte" : "");
      } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find("unsupported version"),
                  std::string::npos)
            << e.what();
      }
    }
  }
}

TEST(StorageCorruptTest, ByteFlipFuzzNeverCrashes) {
  std::string good = MakeSnapshotBytes();
  std::mt19937 rng(20260730);
  std::uniform_int_distribution<size_t> pos(0, good.size() - 1);
  std::uniform_int_distribution<int> bit(0, 7);
  int rejected = 0;
  for (int iter = 0; iter < 500; ++iter) {
    std::string bad = good;
    bad[pos(rng)] ^= static_cast<char>(1 << bit(rng));
    if (TryOpen(bad) == OpenResult::kRejected) ++rejected;
  }
  // Most flips land in load-bearing bytes; some (value payloads, edge
  // weights, names) legitimately still parse.
  EXPECT_GT(rejected, 0);
}

TEST(StorageCorruptTest, MissingFileThrows) {
  EXPECT_THROW(Database::Open("/nonexistent/fdb.fdbs"), std::invalid_argument);
}

TEST(StorageCorruptTest, EmptyBufferThrows) {
  EXPECT_EQ(TryOpen(std::string()), OpenResult::kRejected);
}

}  // namespace
}  // namespace fdb

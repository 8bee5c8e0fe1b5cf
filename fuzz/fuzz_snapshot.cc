// Fuzz target: the snapshot reader. The input bytes are treated as a
// whole snapshot file image (base format, v3) and opened through the
// same path Database::Open uses; every view is then materialised so the
// deferred fix-up pass runs too. Invariant: arbitrary bytes either open
// or throw std::invalid_argument naming the corruption — never a crash
// or a read outside the mapping.

#include <cstddef>
#include <cstdint>
#include <exception>
#include <string>

#include "fdb/engine/database.h"
#include "fdb/storage/mapped_arena.h"
#include "fuzz_driver.h"

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  try {
    fdb::Database db = fdb::Database::OpenSnapshot(
        fdb::storage::SnapshotMapping::FromBuffer(data, size));
    for (const std::string& name : db.ViewNames()) {
      (void)db.ViewSnapshot(name);
    }
  } catch (const std::exception&) {
    // Corrupt image rejected cleanly — the invariant holds.
  }
  return 0;
}

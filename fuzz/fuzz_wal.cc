// Fuzz target: WAL recovery. The first 8 input bytes pick the base
// epoch recovery validates against (reduced mod 4 so mutated inputs
// still land near the seeds' real stamps); the rest is the log file
// image, written to a scratch path and replayed through ReadWal.
// Invariant: recovery returns a prefix-consistent group list, returns
// nullopt, or throws std::invalid_argument — never a crash.

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <string>

#include "fdb/storage/wal.h"
#include "fuzz_driver.h"

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  uint64_t epoch = 1;
  if (size >= 8) {
    std::memcpy(&epoch, data, 8);
    epoch %= 4;
    data += 8;
    size -= 8;
  }
  static const std::string base = [] {
    const char* t = std::getenv("TMPDIR");
    return std::string(t != nullptr ? t : "/tmp") + "/fdb_fuzz_wal.fdbs";
  }();
  {
    std::ofstream out(fdb::storage::WalPath(base),
                      std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(data),
              static_cast<std::streamsize>(size));
  }
  try {
    (void)fdb::storage::ReadWal(base, epoch);
  } catch (const std::exception&) {
    // Undecodable CRC-valid frame rejected cleanly — the invariant holds.
  }
  return 0;
}

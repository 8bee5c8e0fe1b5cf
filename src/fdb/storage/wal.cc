#include "fdb/storage/wal.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "fdb/storage/format.h"
#include "fdb/storage/io_env.h"

namespace fdb {
namespace storage {
namespace {

[[noreturn]] void WalError(const std::string& what, const std::string& path) {
  throw std::invalid_argument("wal: " + what + " " + path + ": " +
                              std::strerror(errno));
}

[[noreturn]] void WalCorrupt(const std::string& path, uint64_t off,
                             const std::string& what) {
  throw std::invalid_argument("wal: " + path + " at byte " +
                              std::to_string(off) + ": " + what);
}

void AppendPod(std::string* out, const void* p, size_t n) {
  out->append(static_cast<const char*>(p), n);
}
template <typename T>
void AppendPod(std::string* out, const T& v) {
  AppendPod(out, &v, sizeof(T));
}

void AppendValueCell(std::string* out, const Value& v) {
  if (v.is_null()) {
    AppendPod<uint8_t>(out, kValNull);
  } else if (v.is_int()) {
    AppendPod<uint8_t>(out, kValInt);
    AppendPod<int64_t>(out, v.as_int());
  } else if (v.is_double()) {
    AppendPod<uint8_t>(out, kValDouble);
    AppendPod<double>(out, v.as_double());
  } else {
    AppendPod<uint8_t>(out, kValString);
    AppendPod<uint32_t>(out, static_cast<uint32_t>(v.as_string().size()));
    out->append(v.as_string());
  }
}

std::string SerialiseOps(const std::vector<WalOp>& ops) {
  std::string payload;
  for (const WalOp& op : ops) {
    AppendPod<uint8_t>(&payload, static_cast<uint8_t>(op.kind));
    if (op.view.size() > std::numeric_limits<uint32_t>::max()) {
      throw std::invalid_argument("wal: view name too long");
    }
    AppendPod<uint32_t>(&payload, static_cast<uint32_t>(op.view.size()));
    payload.append(op.view);
    AppendPod<uint32_t>(&payload, static_cast<uint32_t>(op.tuple.size()));
    for (const Value& v : op.tuple) AppendValueCell(&payload, v);
  }
  return payload;
}

WalHeader MakeHeader(uint64_t epoch) {
  WalHeader h{};
  std::memcpy(h.magic, kWalMagic, sizeof(kWalMagic));
  h.version = kWalVersion;
  h.endian = kEndianProbe;
  h.epoch = epoch;
  return h;
}

/// Writes all of [p, p+n) at the current offset through IoEnv, retrying
/// short counts; returns false on error (errno set).
bool WriteAll(const char* site, int fd, const void* p, size_t n) {
  IoEnv& io = IoEnv::Instance();
  const char* c = static_cast<const char*>(p);
  while (n > 0) {
    ssize_t w = io.Write(site, fd, c, n);
    if (w < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    c += w;
    n -= static_cast<size_t>(w);
  }
  return true;
}

void FsyncDirOf(const std::string& path) {
  size_t slash = path.find_last_of('/');
  std::string dir = slash == std::string::npos ? "." : path.substr(0, slash);
  if (dir.empty()) dir = "/";
  IoEnv& io = IoEnv::Instance();
  int fd = io.Open("dir_open", dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC,
                   0);
  if (fd < 0) WalError("open of directory", dir);
  if (io.Fsync("dir_fsync", fd) != 0) {
    int saved = errno;
    io.Close("dir_close", fd);
    errno = saved;
    WalError("fsync of directory", dir);
  }
  io.Close("dir_close", fd);
}

}  // namespace

uint32_t Crc32(const void* data, size_t n, uint32_t crc) {
  static const uint32_t* table = [] {
    static uint32_t t[256];
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  crc = ~crc;
  const unsigned char* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) {
    crc = table[(crc ^ p[i]) & 0xFF] ^ (crc >> 8);
  }
  return ~crc;
}

std::string WalPath(const std::string& path) { return path + ".wal"; }

std::unique_ptr<Wal> Wal::Create(const std::string& snapshot_path,
                                 uint64_t epoch) {
  auto wal = std::unique_ptr<Wal>(new Wal);
  wal->path_ = WalPath(snapshot_path);
  IoEnv& io = IoEnv::Instance();
  wal->fd_ = io.Open("wal_open", wal->path_.c_str(),
                     O_RDWR | O_CREAT | O_CLOEXEC, 0644);
  if (wal->fd_ < 0) WalError("cannot open", wal->path_);
  wal->Reset(epoch);
  // A crash after Reset but before the directory entry is durable could
  // lose a *new* wal file entirely — equivalent to "no log", which
  // recovery treats as an empty committed set, so this fsync is about
  // not stranding the file, not correctness.
  FsyncDirOf(wal->path_);
  return wal;
}

Wal::~Wal() {
  if (fd_ >= 0) IoEnv::Instance().Close("wal_close", fd_);
}

void Wal::Reset(uint64_t epoch) {
  IoEnv& io = IoEnv::Instance();
  broken_ = true;  // cleared on success
  if (io.Ftruncate("wal_truncate", fd_, 0) != 0) {
    WalError("truncate of", path_);
  }
  if (::lseek(fd_, 0, SEEK_SET) < 0) WalError("seek in", path_);
  WalHeader h = MakeHeader(epoch);
  if (!WriteAll("wal_write", fd_, &h, sizeof(h))) {
    WalError("write to", path_);
  }
  if (io.Fsync("wal_fsync", fd_) != 0) WalError("fsync of", path_);
  durable_bytes_ = sizeof(WalHeader);
  last_seq_ = 0;
  tail_dirty_ = false;
  broken_ = false;
}

uint64_t Wal::Append(const std::vector<WalOp>& ops) {
  if (broken_) {
    throw std::invalid_argument("wal: " + path_ +
                                ": log is broken after a failed reset or "
                                "checkpoint; checkpoint or re-enable the WAL");
  }
  IoEnv& io = IoEnv::Instance();
  if (tail_dirty_) {
    // A previous append failed mid-frame: cut the torn bytes before new
    // ones land behind them (recovery would stop at the tear and lose
    // the new frame too).
    if (io.Ftruncate("wal_truncate", fd_,
                     static_cast<int64_t>(durable_bytes_)) != 0) {
      WalError("truncate of", path_);
    }
    if (::lseek(fd_, static_cast<off_t>(durable_bytes_), SEEK_SET) < 0) {
      WalError("seek in", path_);
    }
    tail_dirty_ = false;
  }

  std::string payload = SerialiseOps(ops);
  WalFrameHeader frame{};
  frame.size = static_cast<uint32_t>(payload.size());
  frame.seq = last_seq_ + 1;
  frame.count = static_cast<uint32_t>(ops.size());
  std::string buf;
  buf.reserve(sizeof(frame) + payload.size());
  AppendPod(&buf, frame);
  buf.append(payload);
  uint32_t crc = Crc32(buf.data() + sizeof(uint32_t),
                       buf.size() - sizeof(uint32_t));
  std::memcpy(buf.data(), &crc, sizeof(crc));

  // One write, one fsync: the whole group becomes durable (or not) as a
  // unit. Any failure marks the tail dirty — the frame may be torn on
  // disk, and recovery will drop it.
  if (!WriteAll("wal_write", fd_, buf.data(), buf.size())) {
    tail_dirty_ = true;
    WalError("write to", path_);
  }
  if (io.Fsync("wal_fsync", fd_) != 0) {
    tail_dirty_ = true;
    WalError("fsync of", path_);
  }
  durable_bytes_ += buf.size();
  return ++last_seq_;
}

uint64_t Wal::PayloadBytes(const std::vector<WalOp>& ops) {
  return SerialiseOps(ops).size();
}

namespace {

/// Bounds-checked cursor over the log bytes (mirrors the snapshot
/// reader's, with wal-flavoured error context).
class WalReader {
 public:
  WalReader(const std::string& path, const std::string& bytes, size_t pos)
      : path_(path), bytes_(bytes), pos_(pos) {}

  template <typename T>
  T Pod() {
    Require(sizeof(T));
    T v;
    std::memcpy(&v, bytes_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return v;
  }
  std::string Str(size_t n) {
    Require(n);
    std::string s = bytes_.substr(pos_, n);
    pos_ += n;
    return s;
  }
  void Require(size_t n) const {
    if (n > bytes_.size() - pos_) {
      WalCorrupt(path_, pos_, "frame payload truncated");
    }
  }
  size_t pos() const { return pos_; }

 private:
  const std::string& path_;
  const std::string& bytes_;
  size_t pos_;
};

Value ReadCell(WalReader* in, const std::string& path) {
  uint8_t tag = in->Pod<uint8_t>();
  switch (tag) {
    case kValNull:
      return Value();
    case kValInt:
      return Value(in->Pod<int64_t>());
    case kValDouble:
      return Value(in->Pod<double>());
    case kValString: {
      uint32_t len = in->Pod<uint32_t>();
      return Value(in->Str(len));
    }
    default:
      WalCorrupt(path, in->pos() - 1, "unknown value tag");
  }
}

}  // namespace

std::optional<WalRecovery> ReadWal(const std::string& snapshot_path,
                                   uint64_t epoch) {
  std::string path = WalPath(snapshot_path);
  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    if (!in) return std::nullopt;
    std::ostringstream ss;
    ss << in.rdbuf();
    bytes = std::move(ss).str();
  }
  // A short or unstamped header means no group was ever durable under
  // this log generation (the header is fsync'd before the first append),
  // so ignoring the file is prefix-consistent, not data loss.
  if (bytes.size() < sizeof(WalHeader)) return std::nullopt;
  WalHeader h;
  std::memcpy(&h, bytes.data(), sizeof(h));
  if (std::memcmp(h.magic, kWalMagic, sizeof(kWalMagic)) != 0 ||
      h.version != kWalVersion || h.endian != kEndianProbe) {
    return std::nullopt;
  }
  // A log stamped for a different base epoch predates a checkpoint (or
  // belongs to a base another writer replaced): everything it held is
  // already in the base, or intentionally superseded. Skip whole.
  if (h.epoch == 0 || h.epoch != epoch) {
    return std::nullopt;
  }

  WalRecovery rec;
  size_t pos = sizeof(WalHeader);
  uint64_t expect_seq = 1;
  while (pos < bytes.size()) {
    // Frame admission is all-or-nothing on the CRC: anything torn —
    // short header, short payload, bad checksum, out-of-order sequence —
    // ends the committed prefix right here.
    if (bytes.size() - pos < sizeof(WalFrameHeader)) break;
    WalFrameHeader frame;
    std::memcpy(&frame, bytes.data() + pos, sizeof(frame));
    if (frame.size > bytes.size() - pos - sizeof(frame)) break;
    uint32_t crc = Crc32(bytes.data() + pos + sizeof(uint32_t),
                         sizeof(frame) - sizeof(uint32_t) + frame.size);
    if (crc != frame.crc) break;
    if (frame.seq != expect_seq) break;

    // The CRC vouches for the payload: a decode failure now is real
    // corruption (or a writer bug), not a torn tail — report it loudly
    // with the offending offset instead of silently dropping data.
    WalReader in(path, bytes, pos + sizeof(frame));
    std::vector<WalOp> group;
    group.reserve(frame.count);
    for (uint32_t i = 0; i < frame.count; ++i) {
      WalOp op;
      uint8_t kind = in.Pod<uint8_t>();
      if (kind > WalOp::kDelete) {
        WalCorrupt(path, in.pos() - 1, "unknown op kind");
      }
      op.kind = static_cast<WalOp::Kind>(kind);
      uint32_t name_len = in.Pod<uint32_t>();
      op.view = in.Str(name_len);
      uint32_t arity = in.Pod<uint32_t>();
      if (arity > 65535) WalCorrupt(path, in.pos(), "implausible arity");
      op.tuple.reserve(arity);
      for (uint32_t a = 0; a < arity; ++a) {
        op.tuple.push_back(ReadCell(&in, path));
      }
      group.push_back(std::move(op));
    }
    if (in.pos() != pos + sizeof(frame) + frame.size) {
      WalCorrupt(path, in.pos(), "frame payload has trailing bytes");
    }
    rec.groups.push_back(std::move(group));
    pos += sizeof(frame) + frame.size;
    ++expect_seq;
  }
  rec.valid_bytes = pos;
  rec.truncated_tail = pos < bytes.size();
  return rec;
}

}  // namespace storage
}  // namespace fdb

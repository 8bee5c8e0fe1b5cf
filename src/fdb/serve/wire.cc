#include "fdb/serve/wire.h"

#include <algorithm>

namespace fdb {
namespace serve {

bool IsKnownFrameType(uint8_t t) {
  switch (static_cast<FrameType>(t)) {
    case FrameType::kHello:
    case FrameType::kQuery:
    case FrameType::kSchema:
    case FrameType::kRow:
    case FrameType::kDone:
    case FrameType::kError:
    case FrameType::kRetry:
      return true;
  }
  return false;
}

const char* ErrorCodeName(uint8_t code) {
  switch (code) {
    case kErrParse:
      return "parse";
    case kErrExec:
      return "exec";
    case kErrTimeout:
      return "timeout";
    case kErrMemory:
      return "memory";
    case kErrTxn:
      return "txn";
    case kErrShutdown:
      return "shutdown";
    case kErrProtocol:
      return "protocol";
  }
  return "?";
}

void WireWriter::U32(uint32_t v) {
  for (int i = 0; i < 4; ++i) buf_->push_back(uint8_t(v >> (8 * i)));
}

void WireWriter::U64(uint64_t v) {
  for (int i = 0; i < 8; ++i) buf_->push_back(uint8_t(v >> (8 * i)));
}

void WireWriter::F64(double v) {
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  U64(bits);
}

void WireWriter::Bytes(const void* data, size_t n) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
  buf_->insert(buf_->end(), p, p + n);
}

void WireWriter::String(const std::string& s) {
  U32(static_cast<uint32_t>(s.size()));
  Bytes(s.data(), s.size());
}

void WireReader::Need(size_t n) const {
  if (remaining() < n) {
    throw WireError("truncated payload: need " + std::to_string(n) +
                    " bytes, have " + std::to_string(remaining()));
  }
}

uint8_t WireReader::U8() {
  Need(1);
  return *data_++;
}

uint32_t WireReader::U32() {
  Need(4);
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= uint32_t(data_[i]) << (8 * i);
  data_ += 4;
  return v;
}

uint64_t WireReader::U64() {
  Need(8);
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= uint64_t(data_[i]) << (8 * i);
  data_ += 8;
  return v;
}

double WireReader::F64() {
  uint64_t bits = U64();
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

std::string WireReader::String() {
  uint32_t n = U32();
  // The length itself is attacker-controlled: check it against the bytes
  // actually present before allocating anything.
  Need(n);
  std::string s(reinterpret_cast<const char*>(data_), n);
  data_ += n;
  return s;
}

void WireReader::ExpectEnd() const {
  if (remaining() != 0) {
    throw WireError("payload has " + std::to_string(remaining()) +
                    " trailing bytes");
  }
}

void AppendFrame(std::vector<uint8_t>* out, FrameType type,
                 const uint8_t* payload, size_t n) {
  if (n > kMaxFrameBytes) {
    throw WireError("frame payload of " + std::to_string(n) +
                    " bytes exceeds the " + std::to_string(kMaxFrameBytes) +
                    "-byte cap");
  }
  uint32_t len = static_cast<uint32_t>(n);
  for (int i = 0; i < 4; ++i) out->push_back(uint8_t(len >> (8 * i)));
  out->push_back(static_cast<uint8_t>(type));
  out->insert(out->end(), payload, payload + n);
}

void AppendFrame(std::vector<uint8_t>* out, FrameType type,
                 const WireWriter& payload) {
  AppendFrame(out, type, payload.bytes().data(), payload.bytes().size());
}

void FrameDecoder::Feed(const uint8_t* data, size_t n) {
  // Views popped so far point into buf_, so it is reset or compacted only
  // here. Compact once the consumed prefix dominates, so the buffer stays
  // proportional to the unconsumed bytes however long the stream runs.
  if (pos_ == buf_.size()) {
    buf_.clear();
    pos_ = 0;
  } else if (pos_ > 4096 && pos_ * 2 > buf_.size()) {
    buf_.erase(buf_.begin(), buf_.begin() + static_cast<ptrdiff_t>(pos_));
    pos_ = 0;
  }
  buf_.insert(buf_.end(), data, data + n);
}

bool FrameDecoder::NextView(FrameView* out) {
  if (buffered() < kFrameHeaderBytes) return false;
  const uint8_t* p = buf_.data() + pos_;
  uint32_t len = 0;
  for (int i = 0; i < 4; ++i) len |= uint32_t(p[i]) << (8 * i);
  // Validate the header before waiting for the payload: an oversized
  // length or unknown type fails now, not after buffering 4 GiB.
  if (len > kMaxFrameBytes) {
    throw WireError("frame length " + std::to_string(len) + " exceeds the " +
                    std::to_string(kMaxFrameBytes) + "-byte cap");
  }
  if (!IsKnownFrameType(p[4])) {
    static const char kHex[] = "0123456789abcdef";
    throw WireError(std::string("unknown frame type 0x") + kHex[p[4] >> 4] +
                    kHex[p[4] & 0xF]);
  }
  if (buffered() < kFrameHeaderBytes + len) return false;
  out->type = static_cast<FrameType>(p[4]);
  out->data = p + kFrameHeaderBytes;
  out->size = len;
  pos_ += kFrameHeaderBytes + len;
  return true;
}

bool FrameDecoder::Next(Frame* out) {
  FrameView v;
  if (!NextView(&v)) return false;
  out->type = v.type;
  out->payload.assign(v.data, v.data + v.size);
  return true;
}

void EncodeValue(WireWriter* w, const Value& v) {
  if (v.is_null()) {
    w->U8(0);
  } else if (v.is_int()) {
    w->U8(1);
    w->I64(v.as_int());
  } else if (v.is_double()) {
    w->U8(2);
    w->F64(v.as_double());
  } else {
    w->U8(3);
    w->String(v.as_string());
  }
}

Value DecodeValue(WireReader* r) {
  uint8_t tag = r->U8();
  switch (tag) {
    case 0:
      return Value();
    case 1:
      return Value(r->I64());
    case 2:
      return Value(r->F64());
    case 3:
      return Value(r->String());
  }
  throw WireError("unknown value tag " + std::to_string(tag));
}

std::vector<uint8_t> EncodeHello() {
  WireWriter w;
  w.Bytes(kMagic, sizeof(kMagic));
  w.U8(kProtocolVersion);
  return w.Take();
}

void DecodeHello(const std::vector<uint8_t>& payload) {
  WireReader r(payload);
  char magic[4];
  for (char& c : magic) c = static_cast<char>(r.U8());
  if (std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    throw WireError("bad hello magic");
  }
  uint8_t version = r.U8();
  if (version != kProtocolVersion) {
    throw WireError("unsupported protocol version " + std::to_string(version));
  }
  r.ExpectEnd();
}

std::vector<uint8_t> EncodeSchema(const std::vector<std::string>& cols) {
  WireWriter w;
  w.U32(static_cast<uint32_t>(cols.size()));
  for (const std::string& c : cols) w.String(c);
  return w.Take();
}

std::vector<std::string> DecodeSchema(const std::vector<uint8_t>& payload) {
  WireReader r(payload);
  uint32_t n = r.U32();
  // A count can claim more columns than any frame could carry; each
  // String() below re-checks against the actual bytes, so a hostile
  // count fails on the first missing column instead of reserving memory.
  std::vector<std::string> cols;
  for (uint32_t i = 0; i < n; ++i) cols.push_back(r.String());
  r.ExpectEnd();
  return cols;
}

namespace {

// Little-endian stores into bytes already sized for them.
uint8_t* StoreU32(uint8_t* p, uint32_t v) {
  for (int i = 0; i < 4; ++i) p[i] = uint8_t(v >> (8 * i));
  return p + 4;
}

uint8_t* StoreU64(uint8_t* p, uint64_t v) {
  for (int i = 0; i < 8; ++i) p[i] = uint8_t(v >> (8 * i));
  return p + 8;
}

}  // namespace

void AppendRowFrame(std::vector<uint8_t>* out, const std::vector<Value>& row) {
  // Size the payload first: the cap is checked before `out` changes, and
  // `out` grows once instead of once per byte.
  size_t n = row.size();  // one tag per value
  for (const Value& v : row) {
    if (v.is_string()) {
      n += 4 + v.as_string().size();
    } else if (!v.is_null()) {
      n += 8;
    }
  }
  if (n > kMaxFrameBytes) {
    throw WireError("row payload of " + std::to_string(n) +
                    " bytes exceeds the " + std::to_string(kMaxFrameBytes) +
                    "-byte cap");
  }
  size_t start = out->size();
  out->resize(start + kFrameHeaderBytes + n);
  uint8_t* p = StoreU32(out->data() + start, static_cast<uint32_t>(n));
  *p++ = static_cast<uint8_t>(FrameType::kRow);
  for (const Value& v : row) {
    if (v.is_null()) {
      *p++ = 0;
    } else if (v.is_int()) {
      *p++ = 1;
      p = StoreU64(p, static_cast<uint64_t>(v.as_int()));
    } else if (v.is_double()) {
      double d = v.as_double();
      uint64_t bits;
      std::memcpy(&bits, &d, sizeof(bits));
      *p++ = 2;
      p = StoreU64(p, bits);
    } else {
      const std::string& s = v.as_string();
      *p++ = 3;
      p = StoreU32(p, static_cast<uint32_t>(s.size()));
      std::memcpy(p, s.data(), s.size());
      p += s.size();
    }
  }
}

std::vector<uint8_t> EncodeRow(const std::vector<Value>& row) {
  std::vector<uint8_t> frame;
  AppendRowFrame(&frame, row);
  frame.erase(frame.begin(), frame.begin() + kFrameHeaderBytes);
  return frame;
}

std::vector<Value> DecodeRow(const std::vector<uint8_t>& payload, int arity) {
  return DecodeRow(payload.data(), payload.size(), arity);
}

std::vector<Value> DecodeRow(const uint8_t* data, size_t n, int arity) {
  WireReader r(data, n);
  std::vector<Value> row;
  row.reserve(static_cast<size_t>(std::max(arity, 0)));
  for (int i = 0; i < arity; ++i) row.push_back(DecodeValue(&r));
  r.ExpectEnd();
  return row;
}

std::vector<uint8_t> EncodeDone(const DoneStats& stats) {
  WireWriter w;
  w.U64(stats.rows);
  w.U64(stats.elapsed_ns);
  w.U64(stats.queue_wait_ns);
  w.U64(stats.mem_charged);
  return w.Take();
}

DoneStats DecodeDone(const std::vector<uint8_t>& payload) {
  WireReader r(payload);
  DoneStats s;
  s.rows = r.U64();
  s.elapsed_ns = r.U64();
  s.queue_wait_ns = r.U64();
  s.mem_charged = r.U64();
  r.ExpectEnd();
  return s;
}

std::vector<uint8_t> EncodeError(const ErrorInfo& e) {
  WireWriter w;
  w.U8(e.code);
  w.String(e.message);
  return w.Take();
}

ErrorInfo DecodeError(const std::vector<uint8_t>& payload) {
  WireReader r(payload);
  ErrorInfo e;
  e.code = r.U8();
  e.message = r.String();
  r.ExpectEnd();
  return e;
}

std::vector<uint8_t> EncodeRetry(const RetryInfo& info) {
  WireWriter w;
  w.U64(info.retry_after_ms);
  w.String(info.message);
  return w.Take();
}

RetryInfo DecodeRetry(const std::vector<uint8_t>& payload) {
  WireReader r(payload);
  RetryInfo info;
  info.retry_after_ms = r.U64();
  info.message = r.String();
  r.ExpectEnd();
  return info;
}

}  // namespace serve
}  // namespace fdb

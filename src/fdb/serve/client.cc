#include "fdb/serve/client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <utility>

namespace fdb {
namespace serve {
namespace {

// The receive buffer: one recv takes up to about 1,300 five-int Row frames.
constexpr size_t kRecvBytes = 64 * 1024;

std::vector<uint8_t> Payload(const FrameView& f) {
  return std::vector<uint8_t>(f.data, f.data + f.size);
}

}  // namespace

Client::~Client() { Close(); }

Client::Client(Client&& o) noexcept
    : fd_(std::exchange(o.fd_, -1)),
      dec_(std::move(o.dec_)),
      recv_buf_(std::move(o.recv_buf_)) {}

Client& Client::operator=(Client&& o) noexcept {
  if (this != &o) {
    Close();
    fd_ = std::exchange(o.fd_, -1);
    dec_ = std::move(o.dec_);
    recv_buf_ = std::move(o.recv_buf_);
  }
  return *this;
}

void Client::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  dec_ = FrameDecoder();
}

void Client::Connect(const std::string& host, int port) {
  Close();
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) {
    throw std::runtime_error(std::string("socket: ") + std::strerror(errno));
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    Close();
    throw std::runtime_error("bad server address " + host);
  }
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    std::string err = std::strerror(errno);
    Close();
    throw std::runtime_error("connect " + host + ":" + std::to_string(port) +
                             ": " + err);
  }
  int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  recv_buf_.resize(kRecvBytes);
  WriteFrame(FrameType::kHello, EncodeHello());
  FrameView f;
  ReadFrame(&f);
  if (f.type == FrameType::kRetry) {
    RetryInfo info = DecodeRetry(Payload(f));
    Close();
    throw std::runtime_error("server refused session: " + info.message);
  }
  if (f.type != FrameType::kHello) {
    Close();
    throw WireError("handshake: expected Hello, got another frame");
  }
  DecodeHello(Payload(f));
}

void Client::WriteFrame(FrameType type, const std::vector<uint8_t>& payload) {
  std::vector<uint8_t> out;
  AppendFrame(&out, type, payload.data(), payload.size());
  size_t off = 0;
  while (off < out.size()) {
    ssize_t w = ::send(fd_, out.data() + off, out.size() - off, MSG_NOSIGNAL);
    if (w < 0) {
      if (errno == EINTR) continue;
      std::string err = std::strerror(errno);
      Close();
      throw std::runtime_error("send: " + err);
    }
    off += static_cast<size_t>(w);
  }
}

void Client::ReadFrame(FrameView* f) {
  while (!dec_.NextView(f)) {
    ssize_t n = ::recv(fd_, recv_buf_.data(), recv_buf_.size(), 0);
    if (n == 0) {
      Close();
      throw std::runtime_error("server closed the connection");
    }
    if (n < 0) {
      if (errno == EINTR) continue;
      std::string err = std::strerror(errno);
      Close();
      throw std::runtime_error("recv: " + err);
    }
    dec_.Feed(recv_buf_.data(), static_cast<size_t>(n));
  }
}

Client::Result Client::Query(const std::string& statement) {
  if (fd_ < 0) throw std::runtime_error("not connected");
  WriteFrame(FrameType::kQuery, std::vector<uint8_t>(statement.begin(),
                                                     statement.end()));
  Result res;
  // Row frames, nearly all of a large response, are decoded in place; the
  // once-per-statement frames are copied out for their decoders.
  FrameView f;
  for (;;) {
    ReadFrame(&f);
    switch (f.type) {
      case FrameType::kSchema:
        res.columns = DecodeSchema(Payload(f));
        break;
      case FrameType::kRow:
        res.rows.push_back(
            DecodeRow(f.data, f.size, static_cast<int>(res.columns.size())));
        break;
      case FrameType::kDone:
        res.ok = true;
        res.stats = DecodeDone(Payload(f));
        return res;
      case FrameType::kError:
        // Rows streamed before an Error are not a result.
        res.rows.clear();
        res.error = DecodeError(Payload(f));
        // A protocol error means the server is dropping us.
        if (res.error.code == kErrProtocol) Close();
        return res;
      case FrameType::kRetry:
        res.retry = true;
        res.retry_info = DecodeRetry(Payload(f));
        return res;
      default:
        Close();
        throw WireError("unexpected server frame");
    }
  }
}

}  // namespace serve
}  // namespace fdb

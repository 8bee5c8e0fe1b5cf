#include "fdb/serve/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <stdexcept>

#include "fdb/obs/log.h"
#include "fdb/obs/metrics.h"
#include "fdb/serve/wire.h"

namespace fdb {
namespace serve {
namespace {

obs::Counter& SessionsOpenedCounter() {
  static obs::Counter& c = obs::Registry::Instance().GetCounter(
      "serve.sessions_opened", "sessions", "client connections accepted");
  return c;
}

obs::Gauge& SessionsLiveGauge() {
  static obs::Gauge& g = obs::Registry::Instance().GetGauge(
      "serve.sessions_live", "sessions", "client connections currently open");
  return g;
}

}  // namespace

Server::Server(Database* db, ServerConfig cfg)
    : db_(db), cfg_(std::move(cfg)), admission_(cfg_.admission) {}

Server::~Server() { Shutdown(); }

void Server::Start() {
  if (started_.exchange(true)) {
    throw std::runtime_error("Server::Start called twice");
  }
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    throw std::runtime_error(std::string("socket: ") + std::strerror(errno));
  }
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(cfg_.port));
  if (::inet_pton(AF_INET, cfg_.host.c_str(), &addr.sin_addr) != 1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error("bad listen address " + cfg_.host);
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
          0 ||
      ::listen(listen_fd_, 128) < 0) {
    std::string err = std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error("bind/listen " + cfg_.host + ":" +
                             std::to_string(cfg_.port) + ": " + err);
  }
  socklen_t len = sizeof(addr);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);
  accept_thread_ = std::thread([this] { AcceptLoop(); });
}

void Server::ReapFinished() {
  base::MutexLock g(&conns_mu_);
  for (auto it = conns_.begin(); it != conns_.end();) {
    Conn& c = **it;
    // Only join threads that marked themselves done (join on a running
    // session would block the accept loop).
    if (c.done_flag->load(std::memory_order_acquire) && c.thread.joinable()) {
      c.thread.join();
      it = conns_.erase(it);
      SessionsLiveGauge().Add(-1);
    } else {
      ++it;
    }
  }
}

void Server::AcceptLoop() {
  while (!draining_.load(std::memory_order_relaxed)) {
    pollfd pfd{listen_fd_, POLLIN, 0};
    int r = ::poll(&pfd, 1, 100);
    if (draining_.load(std::memory_order_relaxed)) break;
    if (r <= 0) {
      ReapFinished();
      continue;
    }
    sockaddr_in peer{};
    socklen_t plen = sizeof(peer);
    int fd = ::accept(listen_fd_, reinterpret_cast<sockaddr*>(&peer), &plen);
    if (fd < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      break;  // listen socket shut down
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    char ip[INET_ADDRSTRLEN] = "?";
    ::inet_ntop(AF_INET, &peer.sin_addr, ip, sizeof(ip));
    std::string peer_str =
        std::string(ip) + ":" + std::to_string(ntohs(peer.sin_port));
    ReapFinished();
    {
      base::MutexLock g(&conns_mu_);
      if (static_cast<int>(conns_.size()) >= cfg_.max_sessions) {
        // Connection-level backpressure: same typed rejection the
        // admission queue uses, then close.
        std::vector<uint8_t> out;
        std::vector<uint8_t> payload = EncodeRetry(
            {admission_.EstimateRetryMs(cfg_.max_sessions),
             "too many sessions"});
        AppendFrame(&out, FrameType::kRetry, payload.data(), payload.size());
        ::send(fd, out.data(), out.size(), MSG_NOSIGNAL);
        ::close(fd);
        continue;
      }
      ServeContext ctx{db_, &admission_, &draining_};
      auto conn = std::make_unique<Conn>();
      conn->session = std::make_unique<Session>(ctx, fd, peer_str);
      conn->done_flag = std::make_shared<std::atomic<bool>>(false);
      Session* s = conn->session.get();
      std::shared_ptr<std::atomic<bool>> done = conn->done_flag;
      conn->thread = std::thread([s, done] {
        s->Run();
        done->store(true, std::memory_order_release);
      });
      conns_.push_back(std::move(conn));
      SessionsOpenedCounter().Inc();
      SessionsLiveGauge().Add(1);
    }
  }
}

void Server::Shutdown() {
  if (!started_.load(std::memory_order_relaxed)) return;
  // One shutdown at a time; a second caller blocks until the first
  // finishes, then returns immediately.
  base::MutexLock shutdown_guard(&shutdown_mu_);
  if (draining_.exchange(true)) return;
  if (obs::LogEnabled()) {
    obs::EventLog::Instance().Emit(obs::EventType::kServerDrain,
                                   {obs::F("port", port_)});
  }
  // Wake the accept loop and stop new connections.
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
  if (accept_thread_.joinable()) accept_thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  // Reject queued statements so drain never waits on the admission queue.
  admission_.Close();
  // Phase 1: stop reading new statements; in-flight ones finish and ship
  // their responses.
  {
    base::MutexLock g(&conns_mu_);
    for (auto& c : conns_) c->session->BeginDrain();
  }
  auto deadline = std::chrono::steady_clock::now() +
                  std::chrono::milliseconds(cfg_.drain_ms);
  for (;;) {
    bool all_done = true;
    {
      base::MutexLock g(&conns_mu_);
      for (auto& c : conns_) {
        if (!c->done_flag->load(std::memory_order_acquire)) all_done = false;
      }
    }
    if (all_done || std::chrono::steady_clock::now() >= deadline) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  // Phase 2: anything still running is past the grace period — trip its
  // token (the next cooperative poll unwinds the query) and close hard.
  {
    base::MutexLock g(&conns_mu_);
    for (auto& c : conns_) {
      if (!c->done_flag->load(std::memory_order_acquire)) c->session->Kill();
    }
    for (auto& c : conns_) {
      if (c->thread.joinable()) c->thread.join();
    }
    SessionsLiveGauge().Set(0);
    conns_.clear();
  }
}

}  // namespace serve
}  // namespace fdb

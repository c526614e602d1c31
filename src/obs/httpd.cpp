#include "obs/httpd.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <utility>

namespace hydra::obs {

void SnapshotPublisher::publish(LiveSnapshot snap) {
  auto next = std::make_shared<const LiveSnapshot>(std::move(snap));
  {
    std::lock_guard<std::mutex> lock(mu_);
    current_ = next;
  }
  epoch_.fetch_add(1, std::memory_order_release);
  if (hook_) hook_(*next);
}

std::shared_ptr<const LiveSnapshot> SnapshotPublisher::acquire() const {
  std::lock_guard<std::mutex> lock(mu_);
  return current_;
}

namespace {

// Serving is intentionally synchronous per connection: bodies are a few
// hundred KB at most and clients are local scrapers, so bounded blocking
// I/O (SO_RCVTIMEO/SO_SNDTIMEO below) keeps the server a single loop with
// no per-connection state machine.
constexpr int kIoTimeoutMs = 2000;

void set_io_timeouts(int fd) {
  timeval tv{};
  tv.tv_sec = kIoTimeoutMs / 1000;
  tv.tv_usec = (kIoTimeoutMs % 1000) * 1000;
  setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
}

bool send_all(int fd, const std::string& data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = ::send(fd, data.data() + off, data.size() - off,
                             MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

std::string make_response(int code, const char* reason,
                          const std::string& content_type,
                          const std::string& body, std::uint64_t tick,
                          bool has_tick) {
  std::string out = "HTTP/1.1 " + std::to_string(code) + " " + reason +
                    "\r\n"
                    "Content-Type: " +
                    content_type +
                    "\r\n"
                    "Content-Length: " +
                    std::to_string(body.size()) + "\r\n";
  if (has_tick) out += "X-Hydra-Tick: " + std::to_string(tick) + "\r\n";
  out += "Connection: close\r\n\r\n";
  out += body;
  return out;
}

}  // namespace

HttpServer::HttpServer(SnapshotPublisher& publisher, std::uint16_t port)
    : publisher_(publisher) {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) throw std::runtime_error("httpd: socket() failed");
  const int one = 1;
  setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
          0 ||
      ::listen(listen_fd_, 16) < 0) {
    ::close(listen_fd_);
    throw std::runtime_error("httpd: cannot bind 127.0.0.1:" +
                             std::to_string(port));
  }
  socklen_t len = sizeof(addr);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);
  if (::pipe(wake_fds_) != 0) {
    ::close(listen_fd_);
    throw std::runtime_error("httpd: pipe() failed");
  }
  thread_ = std::thread([this] { serve(); });
}

HttpServer::~HttpServer() { stop(); }

std::vector<HttpServer::Command> HttpServer::drain_commands() {
  std::vector<Command> out;
  std::lock_guard<std::mutex> lock(cmd_mu_);
  out.swap(commands_);
  return out;
}

void HttpServer::stop() {
  if (stopping_.exchange(true)) {
    if (thread_.joinable()) thread_.join();
    return;
  }
  const char wake = 'x';
  [[maybe_unused]] ssize_t n = ::write(wake_fds_[1], &wake, 1);
  if (thread_.joinable()) thread_.join();
  ::close(listen_fd_);
  ::close(wake_fds_[0]);
  ::close(wake_fds_[1]);
  listen_fd_ = -1;
}

void HttpServer::serve() {
  pollfd fds[2];
  fds[0].fd = listen_fd_;
  fds[0].events = POLLIN;
  fds[1].fd = wake_fds_[0];
  fds[1].events = POLLIN;
  while (!stopping_.load(std::memory_order_relaxed)) {
    fds[0].revents = 0;
    fds[1].revents = 0;
    const int rc = ::poll(fds, 2, 500);
    if (rc < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (fds[1].revents & POLLIN) break;  // stop() wrote the wake byte
    if (fds[0].revents & POLLIN) {
      const int conn = ::accept(listen_fd_, nullptr, nullptr);
      if (conn >= 0) {
        set_io_timeouts(conn);
        handle_connection(conn);
        ::close(conn);
      }
    }
  }
}

void HttpServer::handle_connection(int fd) {
  // Read until the end of the request head; scrape requests are tiny and
  // bodies are ignored, so cap the head at 8 KB.
  std::string req;
  char buf[1024];
  while (req.size() < 8192 && req.find("\r\n\r\n") == std::string::npos) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      break;
    }
    req.append(buf, static_cast<std::size_t>(n));
  }
  const std::size_t sp1 = req.find(' ');
  const std::size_t sp2 = sp1 == std::string::npos ? std::string::npos
                                                   : req.find(' ', sp1 + 1);
  if (sp2 == std::string::npos) return;  // malformed; just close
  const std::string method = req.substr(0, sp1);
  std::string path = req.substr(sp1 + 1, sp2 - sp1 - 1);
  std::string query_str;
  const std::size_t query = path.find('?');
  if (query != std::string::npos) {
    query_str = path.substr(query + 1);
    path.resize(query);
  }
  requests_.fetch_add(1, std::memory_order_relaxed);

  if (method != "GET") {
    send_all(fd, make_response(405, "Method Not Allowed", "text/plain",
                               "only GET is supported\n", 0, false));
    return;
  }
  if (path == "/deploy" || path == "/undeploy") {
    // Control routes work before the first publication too — the sim is
    // untouched here; the command is applied by the main loop later.
    Command cmd;
    bool ok = false;
    if (path == "/deploy") {
      cmd.kind = Command::Kind::kDeploy;
      if (query_str.compare(0, 8, "checker=") == 0) {
        cmd.checker = query_str.substr(8);
        const std::size_t amp = cmd.checker.find('&');
        if (amp != std::string::npos) cmd.checker.resize(amp);
        ok = !cmd.checker.empty();
      }
    } else {
      cmd.kind = Command::Kind::kUndeploy;
      if (query_str.compare(0, 4, "dep=") == 0) {
        errno = 0;
        char* end = nullptr;
        const long v = std::strtol(query_str.c_str() + 4, &end, 10);
        ok = errno == 0 && end != query_str.c_str() + 4 &&
             (*end == '\0' || *end == '&') && v >= 0 && v < 1 << 16;
        cmd.deployment = static_cast<int>(v);
      }
    }
    if (!ok) {
      send_all(fd, make_response(400, "Bad Request", "text/plain",
                                 "expected /deploy?checker=<name> or "
                                 "/undeploy?dep=<id>\n",
                                 0, false));
      return;
    }
    {
      std::lock_guard<std::mutex> lock(cmd_mu_);
      commands_.push_back(std::move(cmd));
    }
    send_all(fd, make_response(202, "Accepted", "text/plain", "accepted\n",
                               0, false));
    return;
  }
  const std::shared_ptr<const LiveSnapshot> snap = publisher_.acquire();
  if (snap == nullptr) {
    send_all(fd, make_response(503, "Service Unavailable", "text/plain",
                               "no snapshot published yet\n", 0, false));
    return;
  }
  const std::string* body = nullptr;
  std::string content_type = "application/json";
  if (path == "/metrics") {
    body = &snap->metrics_text;
    // The Prometheus text-format version identifier; scrapers key their
    // parser off this exact string.
    content_type = "text/plain; version=0.0.4; charset=utf-8";
  } else if (path == "/healthz") {
    // Always 200: the verdict lives in the body so orchestration probes
    // and CI can read a failing SLO without conflating it with a dead
    // endpoint.
    body = &snap->health_json;
  } else if (path == "/series") {
    body = &snap->series_json;
  } else if (path == "/violations") {
    body = &snap->violations_json;
  } else if (path == "/topk") {
    body = &snap->topk_json;
  }
  if (body == nullptr) {
    send_all(fd, make_response(404, "Not Found", "text/plain",
                               "unknown path\n", 0, false));
    return;
  }
  send_all(fd,
           make_response(200, "OK", content_type, *body, snap->tick_index,
                         true));
}

bool http_get(std::uint16_t port, const std::string& path, std::string* body,
              int* status) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return false;
  set_io_timeouts(fd);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    ::close(fd);
    return false;
  }
  const std::string req = "GET " + path +
                          " HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                          "Connection: close\r\n\r\n";
  if (!send_all(fd, req)) {
    ::close(fd);
    return false;
  }
  std::string resp;
  char buf[4096];
  while (true) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    resp.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  const std::size_t head_end = resp.find("\r\n\r\n");
  if (head_end == std::string::npos || resp.compare(0, 5, "HTTP/") != 0) {
    return false;
  }
  const std::size_t sp = resp.find(' ');
  if (sp == std::string::npos || sp + 4 > resp.size()) return false;
  if (status != nullptr) {
    *status = std::atoi(resp.c_str() + sp + 1);
  }
  if (body != nullptr) *body = resp.substr(head_end + 4);
  return true;
}

}  // namespace hydra::obs

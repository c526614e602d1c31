// Live observability HTTP plane: snapshot publication + a tiny scrape
// server.
//
// Determinism contract: the HTTP thread NEVER touches live simulator
// state. At each export tick the Network renders every servable body into
// an immutable LiveSnapshot and swaps it into the SnapshotPublisher;
// scrapes serve whichever snapshot was current when the request arrived,
// byte for byte. Two runs that publish the same tick therefore serve
// identical bodies regardless of scrape timing — the determinism test
// asserts this per tick index.
//
// The publisher is a mutex-guarded shared_ptr swap plus a monotone atomic
// epoch (the published tick count). Readers take a shared_ptr copy under
// the lock — snapshots outlive the swap for as long as a response needs
// them — and the epoch lets pollers detect publication without acquiring
// anything else. This is the TSan-clean spelling of the double-buffer +
// epoch scheme: the swap is the only contended operation and it is O(1).
//
// HttpServer is a dependency-free HTTP/1.1 responder (Linux sockets): a
// poll loop on its own thread accepts loopback connections and serves
//
//   GET /metrics     text/plain; version=0.0.4   Prometheus exposition
//   GET /healthz     application/json            SLO verdict (always 200)
//   GET /series      application/json            windowed series
//   GET /violations  application/json            forensics reports
//   GET /topk        application/json            top-K attribution
//
// plus two control routes that never touch simulator state on the HTTP
// thread either — they enqueue a Command that the daemon's main loop
// drains between event slices (202 Accepted; 400 on a malformed query):
//
//   GET /deploy?checker=<name>   stage a rolling deploy of a named checker
//   GET /undeploy?dep=<id>       rolling-retire a deployment slot
//
// plus `X-Hydra-Tick: <n>` on every 200 so scrapers can pin a tick. A
// request before the first publication gets 503; unknown paths 404; other
// methods 405. Connections are Connection: close — scrape clients open
// per request, which keeps the server a single poll loop with no
// connection table.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace hydra::obs {

// Everything the HTTP plane can serve, rendered at one committed export
// tick. Immutable after publication.
struct LiveSnapshot {
  std::uint64_t tick_index = 0;  // ExportScheduler::captured() at publish
  double sim_time = 0.0;         // virtual time of the tick boundary
  std::string metrics_text;      // Prometheus exposition (incl. topk)
  std::string series_json;
  std::string health_json;
  std::string violations_json;
  std::string topk_json;
};

class SnapshotPublisher {
 public:
  // Test/CI hook, invoked synchronously on the publishing (main) thread
  // after the swap.
  using PublishHook = std::function<void(const LiveSnapshot&)>;

  // Main thread only.
  void publish(LiveSnapshot snap);

  // Any thread. Null until the first publish.
  std::shared_ptr<const LiveSnapshot> acquire() const;

  // Number of publications so far (monotone, relaxed).
  std::uint64_t epoch() const {
    return epoch_.load(std::memory_order_acquire);
  }

  void set_on_publish(PublishHook hook) { hook_ = std::move(hook); }

 private:
  mutable std::mutex mu_;
  std::shared_ptr<const LiveSnapshot> current_;
  std::atomic<std::uint64_t> epoch_{0};
  PublishHook hook_;
};

class HttpServer {
 public:
  // Binds 127.0.0.1:`port` (0 picks an ephemeral port, see port()) and
  // starts the serving thread. Throws std::runtime_error on bind failure.
  HttpServer(SnapshotPublisher& publisher, std::uint16_t port);
  ~HttpServer();

  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  // A control request accepted by /deploy or /undeploy; the simulator
  // never sees it until the owning main loop drains the queue.
  struct Command {
    enum class Kind { kDeploy, kUndeploy };
    Kind kind = Kind::kDeploy;
    std::string checker;  // kDeploy: checker name from the query
    int deployment = -1;  // kUndeploy: slot id from the query
  };

  std::uint16_t port() const { return port_; }
  std::uint64_t requests_served() const {
    return requests_.load(std::memory_order_relaxed);
  }
  // Returns and clears the commands accepted since the last call, in
  // arrival order. Main thread only (the caller applies them to the sim).
  std::vector<Command> drain_commands();
  // Idempotent; joins the serving thread.
  void stop();

 private:
  void serve();
  void handle_connection(int fd);

  SnapshotPublisher& publisher_;
  std::uint16_t port_ = 0;
  int listen_fd_ = -1;
  int wake_fds_[2] = {-1, -1};  // self-pipe: stop() wakes the poll loop
  std::atomic<bool> stopping_{false};
  std::atomic<std::uint64_t> requests_{0};
  std::mutex cmd_mu_;
  std::vector<Command> commands_;  // guarded by cmd_mu_
  std::thread thread_;
};

// Minimal blocking HTTP GET against 127.0.0.1:`port` for tests and the
// scrape bench: returns false on connect/protocol failure, else fills
// `*body` (and `*status` when non-null) from the response.
bool http_get(std::uint16_t port, const std::string& path, std::string* body,
              int* status = nullptr);

}  // namespace hydra::obs

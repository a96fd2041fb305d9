// FarmWorker: the server side of the fabric — wraps one emu::DeviceFarm plus
// a per-connection serving model (shipped over the wire by the client) and
// answers Hello/Ping/SetModel/RunBatch frames. Runs inside the `apichecker
// farm` CLI subcommand as its own process: the independently restartable
// emulator-farm tier of the paper's deployment.
//
// Connection handling is readiness-driven on a small private rt::Runtime:
// the listener fd and every connection fd carry PostFd watches, each
// connection's frames are decoded by a streaming FrameAssembler and handled
// on a per-connection strand (serialized, so the per-connection model state
// needs no lock), and an idle fleet costs zero parked threads — worker
// thread count is O(rt_threads), not O(connections). A RunBatch occupies an
// executor worker for the emulation's duration; rt_threads is floored so
// heartbeat pings on the second channel never starve behind it.
//
// Error model: any protocol violation on a connection (undecodable frame,
// bad handshake, unexpected message) disconnects that peer and counts a
// metric; the worker itself never crashes on hostile input and keeps
// accepting new connections.

#ifndef APICHECKER_FABRIC_WORKER_H_
#define APICHECKER_FABRIC_WORKER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "android/api_universe.h"
#include "core/checker.h"
#include "emu/farm.h"
#include "fabric/transport.h"
#include "rt/runtime.h"
#include "util/result.h"

namespace apichecker::fabric {

struct FarmWorkerConfig {
  std::string endpoint;  // Listen address, "unix:/path" or "tcp:host:port".
  emu::FarmConfig farm;
  uint32_t worker_id = 0;
  // Executor threads for the worker's private runtime; 0 selects
  // max(4, hardware_concurrency) — enough headroom that a blocking RunBatch
  // on the rpc channel never delays a ping on the heartbeat channel.
  size_t rt_threads = 0;
};

class FarmWorker {
 public:
  FarmWorker(const android::ApiUniverse& universe, FarmWorkerConfig config);
  ~FarmWorker();

  // Binds the endpoint and arms the accept watch on the private runtime.
  // Returns the bound endpoint (meaningful for tcp:host:0) on success.
  util::Result<Endpoint> Start();

  // Closes the listener, severs live connections, shuts the private runtime
  // down (draining in-flight tasks). Idempotent; concurrent callers block
  // until the first teardown completes.
  void Stop();

  // Blocks until Stop() is called (from a signal handler path or another
  // thread). The CLI subcommand's main thread parks here.
  void Wait();

  const Endpoint& bound_endpoint() const { return bound_endpoint_; }
  uint64_t batches_served() const { return batches_served_.load(std::memory_order_relaxed); }
  uint64_t connections_accepted() const {
    return connections_accepted_.load(std::memory_order_relaxed);
  }

 private:
  // Per-connection state machine. All fields are touched only on the
  // connection's strand; the socket is additionally ShutdownBoth() from
  // Stop(), which is safe against a concurrent read/send (that is the
  // documented way to wake one).
  struct Conn : std::enable_shared_from_this<Conn> {
    Socket socket;
    FrameAssembler assembler;
    std::shared_ptr<rt::Strand> strand;
    rt::CancelToken read_watch;
    bool hello_done = false;
    bool done = false;
    // Per-connection serving model: shipped by the client, versioned so
    // re-sends only happen on model evolution or reconnect.
    std::optional<core::ApiChecker> checker;
    emu::TrackedApiSet tracked;
    uint32_t model_version = UINT32_MAX;
  };

  void ArmAccept();
  void OnAcceptReady();
  void ArmRead(const std::shared_ptr<Conn>& conn);
  void OnConnReadable(const std::shared_ptr<Conn>& conn);
  // Handles one decoded frame; false means "drop the connection".
  bool HandleFrame(Conn& conn, const Frame& frame);
  // Removes the connection from the live set and cancels its watch.
  void DropConn(const std::shared_ptr<Conn>& conn);

  const android::ApiUniverse& universe_;
  FarmWorkerConfig config_;
  // Emulates on a runtime of its own: a batch fan-out on runtime_ would fill
  // it and delay heartbeat pings.
  emu::DeviceFarm farm_;
  uint64_t universe_checksum_ = 0;

  std::unique_ptr<rt::Runtime> runtime_;
  Listener listener_;
  Endpoint bound_endpoint_;
  std::atomic<bool> stopping_{false};

  std::mutex conns_mu_;
  std::vector<std::shared_ptr<Conn>> conns_;
  // Accept-watch token and its closed latch live under conns_mu_: the
  // re-arm (rt worker thread) and Stop()'s cancel (caller thread) otherwise
  // race on the token object itself.
  rt::CancelToken accept_watch_;
  bool accept_closed_ = false;

  std::mutex wait_mu_;
  std::condition_variable wait_cv_;
  bool stopped_ = false;

  std::atomic<uint64_t> batches_served_{0};
  std::atomic<uint64_t> connections_accepted_{0};
};

}  // namespace apichecker::fabric

#endif  // APICHECKER_FABRIC_WORKER_H_

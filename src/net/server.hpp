// ge::net::Server — the `goldeneye serve` campaign daemon.
//
// Thread structure (DESIGN.md §11):
//   accept loop   (run() caller)  poll/accept; one session thread per
//                                 connection; refuses work while draining
//   session threads               speak the frame protocol with one peer:
//                                 submit clients enqueue campaigns, worker
//                                 clients lease trial ranges / return
//                                 results / forward their trial rows
//   executor thread               pops campaigns FIFO, runs them on the
//                                 in-process pool chunk by chunk (itself a
//                                 lease holder), merges worker parts, and
//                                 streams rows + the final digest to the
//                                 submitting client
//
// Campaigns execute one at a time (FIFO); within a campaign, work is
// stolen freely between the local executor and any number of remote
// workers via the LeaseTable. Every result path funnels through
// merge_campaign_progress, so the served digest is bitwise identical to
// an offline run no matter who ran what.
//
// Shutdown: request_stop() (SIGINT/SIGTERM in the CLI) stops accepting,
// refuses queued-but-unstarted campaigns with kError, and lets the active
// campaign drain. With drain_timeout_ms > 0, a campaign still unfinished
// at the deadline is checkpointed via the CAMP codec and the client gets
// kCheckpointed (resumable offline with `campaign --resume`). Exit is
// always 0 on a signal — a drained daemon is a successful daemon.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <thread>
#include <vector>

#include "net/lease.hpp"
#include "net/session.hpp"
#include "net/socket.hpp"

namespace ge::obs {
class RunLog;
}  // namespace ge::obs

namespace ge::net {

struct ServeOptions {
  int port = 0;  ///< 0 = ephemeral (see Server::port())
  std::string cache_dir = "/tmp/goldeneye_model_cache";
  /// Directory drained campaigns checkpoint into (campaign_<id>.gec).
  std::string checkpoint_dir = "/tmp";
  /// Trials per lease; 0 = auto (total/8, at least 1).
  int64_t lease_chunk = 0;
  /// A worker lease not heartbeat within this window is reclaimed.
  int lease_timeout_ms = 5000;
  /// After request_stop(): checkpoint the active campaign if it has not
  /// finished within this budget. 0 = drain to completion however long.
  int drain_timeout_ms = 0;
  /// Stop after completing this many campaigns (tests/CI; 0 = forever).
  int64_t max_campaigns = 0;
  /// Straggler threshold: a live worker lease whose implied throughput
  /// bound falls below this fraction of the fleet's median completed-lease
  /// throughput is flagged in /status, counted in ge_lease_stragglers_total
  /// and logged as a schema-v2 "service" event. <= 0 disables the sweep.
  double straggler_fraction = 0.5;
};

class Server {
 public:
  /// Binds 127.0.0.1:port immediately. On failure ok() is false and
  /// last_error() says why; run() then returns 1. `log` (borrowed, may be
  /// null) receives session/lease lifecycle events.
  Server(const ServeOptions& opts, obs::RunLog* log);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  bool ok() const noexcept { return listen_.valid(); }
  const std::string& last_error() const noexcept { return error_; }
  int port() const noexcept { return port_; }
  /// Session threads not yet joined: the open connections, plus those
  /// that ended after the last accept (the accept loop joins the rest).
  size_t session_threads();

  /// Serve until request_stop(); returns the process exit code.
  int run();

  /// Begin graceful shutdown. Async-signal-safe (only flips an atomic;
  /// every internal wait polls it at >= 10 Hz).
  void request_stop() noexcept { stop_.store(true, std::memory_order_relaxed); }

 private:
  /// One campaign in flight (or queued): the submit connection, the lease
  /// table partitioning its trial space, and the result parts mailbox.
  struct Campaign {
    uint64_t id = 0;
    CampaignSpecMsg spec;
    std::shared_ptr<FrameChannel> chan;
    LeaseTable leases;
    std::mutex mu;
    std::vector<core::CampaignProgress> parts;
    /// The executor, with every range leased out, waits here (under mu)
    /// for a worker lease to complete or be abandoned.
    std::condition_variable lease_cv;
    bool lease_event = false;  ///< under mu; cleared by the executor
    /// Wake the executor after a worker lease completed or was abandoned.
    void signal_lease_event() {
      {
        std::lock_guard<std::mutex> lock(mu);
        lease_event = true;
      }
      lease_cv.notify_all();
    }
    std::string submitter;   ///< hello identity, for /status
    int64_t enqueue_ns = 0;  ///< queue-wait span start (steady clock)
    /// Last straggler sweep (rate limit; sweeps run on session threads
    /// and the executor, whoever gets there first).
    std::atomic<int64_t> straggler_check_ns{0};
  };

  /// Per-holder lease accounting behind /status ("local" = the executor).
  struct WorkerStats {
    int64_t leases = 0;
    int64_t trials = 0;
    double busy_seconds = 0.0;   ///< sum of completed-lease wall time
    std::vector<double> tps;     ///< recent per-lease trials/sec samples
  };

  void session_thread(Socket sock);
  void serve_submit(std::shared_ptr<FrameChannel> chan,
                    const std::string& who);
  void serve_worker(std::shared_ptr<FrameChannel> chan,
                    const std::string& who);
  void executor_loop();
  void execute(const std::shared_ptr<Campaign>& c);
  void checkpoint_campaign(const std::shared_ptr<Campaign>& c);
  /// Merge c->parts, as they are, into one progress; parts must be
  /// non-empty. Lease ranges are disjoint, so their done sets are too.
  core::CampaignProgress merge_parts(const std::shared_ptr<Campaign>& c);

  std::shared_ptr<Campaign> active_campaign();
  void log_event(const char* type, const std::string& detail,
                 uint64_t campaign_id = 0, int64_t a = -1, int64_t b = -1);
  /// Schema-v2 "service" event: {"type":"service","kind":...}. Operational
  /// observations about the fleet (stragglers, reclaims) rather than
  /// session lifecycle.
  void log_service_event(const char* kind, const std::string& detail,
                         uint64_t campaign_id = 0, int64_t a = -1,
                         int64_t b = -1);
  /// Fold a completed lease into the per-worker throughput stats.
  void note_lease_complete(const LeaseInfo& info);
  /// Rate-limited straggler pass over the active campaign's lease table.
  void straggler_sweep(const std::shared_ptr<Campaign>& c);
  /// The /status "server" object (registered with obs::set_status_source
  /// while run() is live).
  std::string status_json();

  ServeOptions opts_;
  obs::RunLog* log_ = nullptr;
  std::mutex log_mu_;  ///< RunLog::event is not itself thread-safe

  Socket listen_;
  int port_ = 0;
  std::string error_;

  std::atomic<bool> stop_{false};
  /// Set after the executor exits: session threads wind down their polls.
  std::atomic<bool> shutdown_sessions_{false};
  std::atomic<int> active_sessions_{0};

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::shared_ptr<Campaign>> queue_;
  std::shared_ptr<Campaign> active_;
  uint64_t next_campaign_id_ = 1;
  std::atomic<int64_t> served_{0};

  std::mutex wstats_mu_;
  std::map<std::string, WorkerStats> worker_stats_;

  /// One connection's thread; `done` is set when its session ended.
  struct SessionThread {
    std::thread thread;
    std::shared_ptr<std::atomic<bool>> done;
  };
  std::mutex threads_mu_;
  std::vector<SessionThread> session_threads_;
};

/// CLI entry: run a Server with SIGINT/SIGTERM wired to request_stop().
/// Prints the bound port to `err` (like --metrics-port). Returns the
/// process exit code.
int run_serve(const ServeOptions& opts, obs::RunLog* log, std::ostream& err);

}  // namespace ge::net

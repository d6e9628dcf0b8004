// ge::net clients: `goldeneye submit` (send a campaign, stream its rows,
// print the digest) and `goldeneye worker` (lease trial ranges from a
// server and execute them). Both connect to a `goldeneye serve` daemon
// over the frame protocol (net/frame.hpp).
//
// Failure mapping matches the CLI conventions: a bad server address, a
// dead connection, or a protocol violation throws NetError (exit 2, like
// io::IoError — diagnosed input/environment errors); a server-reported
// campaign failure returns 1.
#pragma once

#include <cstdint>
#include <ostream>
#include <string>

#include "net/codec.hpp"

namespace ge::obs {
class RunLog;
}  // namespace ge::obs

namespace ge::net {

struct SubmitOptions {
  std::string host = "127.0.0.1";
  int port = 0;
  CampaignSpecMsg spec;
  std::string client_name = "submit";
};

/// Submit one campaign and block until it resolves. Streamed rows go
/// verbatim into `report` (borrowed, may be null) — the same bytes an
/// offline `campaign --report` run would write. On kDone prints the
/// server's summary (render_campaign_summary: what an offline `campaign`
/// prints, digest line included) and returns 0; on kCheckpointed prints the checkpoint path and returns 0;
/// on kError prints the message and returns 1.
int run_submit(const SubmitOptions& opts, obs::RunLog* report,
               std::ostream& out, std::ostream& err);

struct WorkerOptions {
  std::string host = "127.0.0.1";
  int port = 0;
  std::string cache_dir = "/tmp/goldeneye_model_cache";
  std::string client_name = "worker";
  /// Exit 0 after executing this many leases (0 = keep going).
  int64_t max_leases = 0;
  /// Fault drill: accept this many grants, execute none of them, then
  /// drop the connection — a deterministic "worker killed mid-lease" for
  /// tests and CI (the server must reclaim the abandoned ranges).
  int64_t drop_leases = 0;
  /// Fault drill: accept this many grants and then hang — connection
  /// open, no heartbeats, no results — until the server shuts down. The
  /// lease must expire server-side (straggler flag, then timeout
  /// reclaim), unlike drop_leases where the EOF reclaims it at once.
  int64_t stall_leases = 0;
  /// Idle poll interval between kNoWork responses.
  int poll_ms = 200;
  /// Exit 0 after this long with no grantable work (0 = wait forever).
  int idle_timeout_ms = 0;
};

/// Lease-and-execute loop. Returns 0 on a clean exit (kShutdown,
/// max_leases, idle timeout, or a completed drop_leases drill), 1 when
/// the server reported an error or vanished mid-protocol.
int run_worker(const WorkerOptions& opts, std::ostream& out,
               std::ostream& err);

}  // namespace ge::net

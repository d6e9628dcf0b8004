// ge::net::LeaseTable — work-stealing partition of one campaign's trial
// space. The trial space [0, total) is cut into fixed-size chunks; any
// executor (the server's own, or a remote worker) leases the next chunk,
// runs it via CampaignSession::run{lease_lo, lease_hi}, and returns the
// resulting CampaignProgress part. Because every trial is a pure function
// of (seed, site index, trial index), it does not matter who runs which
// chunk or in what order — the merged parts are bitwise identical to an
// unpartitioned run (the same argument as static shards, DESIGN.md §9).
//
// Fault tolerance: each lease carries a deadline. A worker renews it by
// heartbeating; a worker that dies (EOF on its connection) or goes silent
// past the deadline has its range reclaimed — pushed back to the front of
// the queue so recovery work starts immediately. A reclaimed lease's id
// is dead: a late result for it is discarded (complete() returns false),
// which keeps merged done sets disjoint even when a presumed-dead worker
// was merely slow.
//
// Time is injected (now_ns parameters) rather than read from a clock, so
// tests drive expiry deterministically. Thread-safe: server session
// threads grant/heartbeat/complete concurrently with the executor.
#pragma once

#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <vector>

namespace ge::net {

struct Lease {
  uint64_t id = 0;
  int64_t lo = 0;
  int64_t hi = 0;
};

/// One lease as exposed to introspection (/status) and completion
/// accounting: identity plus who holds it and how fresh it is.
struct LeaseInfo {
  uint64_t id = 0;
  int64_t lo = 0;
  int64_t hi = 0;
  std::string worker;              ///< holder identity ("" = local executor)
  int64_t age_ns = 0;              ///< now - grant time
  int64_t since_heartbeat_ns = 0;  ///< now - last renewal (grant if none)
  bool expires = false;            ///< carries a deadline (remote worker)
  bool straggler = false;          ///< flagged by flag_stragglers()
};

class LeaseTable {
 public:
  /// Start a new campaign: trial space [0, total), handed out in chunks
  /// of `chunk` trials (the final chunk may be short).
  void reset(int64_t total, int64_t chunk);

  /// Lease the next available range. The lease expires at
  /// now_ns + timeout_ns unless renewed; timeout_ns <= 0 means the lease
  /// never expires (the server's own executor cannot die separately).
  /// `worker` names the holder for introspection/straggler accounting.
  /// Returns false when no range is currently available — either all
  /// trials are leased out or done.
  bool grant(int64_t now_ns, int64_t timeout_ns, Lease* out,
             const std::string& worker = "");

  /// Renew a live lease's deadline (and heartbeat freshness). False when
  /// the id is unknown — already completed, or reclaimed (the worker
  /// should drop the work).
  bool heartbeat(uint64_t id, int64_t now_ns, int64_t timeout_ns);

  /// Mark a lease's range as done. False when the id was reclaimed or
  /// never existed: the caller must DISCARD the result, its range has
  /// been (or will be) re-run by someone else. When now_ns > 0 the
  /// lease's (trials / wall seconds) joins the fleet throughput samples
  /// that flag_stragglers() takes its median over; `done` (optional)
  /// receives the completed lease's row.
  bool complete(uint64_t id, int64_t now_ns = 0, LeaseInfo* done = nullptr);

  /// Abandon a live lease immediately (worker connection died). Its range
  /// goes back to the front of the queue. False when the id is unknown.
  bool abandon(uint64_t id);

  /// Reclaim every lease whose deadline passed; ranges go back to the
  /// front of the queue. Returns how many were reclaimed.
  int reclaim_expired(int64_t now_ns);

  /// True once every trial range has been completed.
  bool all_done() const;
  /// Trials in ranges not yet leased (or reclaimed back).
  int64_t unleased_trials() const;
  /// Currently outstanding (live) leases.
  int64_t live_leases() const;
  /// Trials in the campaign (reset()'s total).
  int64_t total_trials() const;
  /// Trials in completed ranges so far.
  int64_t completed_trials() const;

  /// Every live lease as an introspection row, ages computed against
  /// `now_ns`. Order is grant order (stable for /status rendering).
  std::vector<LeaseInfo> snapshot(int64_t now_ns) const;

  /// Completed-lease throughput samples (trials/sec) recorded by
  /// complete(), in completion order.
  std::vector<double> throughput_samples() const;

  /// Straggler sweep: flag every live *expiring* lease whose implied
  /// throughput upper bound ((hi-lo) / age so far) has fallen below
  /// `fraction` × the median completed-lease throughput. A lease slower
  /// than that bound cannot finish at a fleet-typical rate no matter what
  /// it does next — age alone convicts it. Needs >= 2 completed samples
  /// (a median of one lease punishes the second); fraction <= 0 disables.
  /// Returns only *newly* flagged rows (each lease is counted once in
  /// Counter::kNetLeaseStragglers); already-flagged leases stay flagged
  /// for snapshot() until completed or reclaimed.
  std::vector<LeaseInfo> flag_stragglers(int64_t now_ns, double fraction);

 private:
  struct Live {
    Lease lease;
    int64_t deadline_ns = 0;  ///< 0 = never expires
    std::string worker;
    int64_t granted_ns = 0;
    int64_t last_heartbeat_ns = 0;
    bool straggler = false;
  };

  LeaseInfo info_locked(const Live& lv, int64_t now_ns) const;

  mutable std::mutex mu_;
  std::deque<Lease> queue_;  ///< unleased ranges, front = next grant
  std::vector<Live> live_;
  uint64_t next_id_ = 1;
  int64_t total_ = 0;
  int64_t completed_ = 0;
  std::vector<double> tps_samples_;  ///< completed-lease trials/sec
};

}  // namespace ge::net

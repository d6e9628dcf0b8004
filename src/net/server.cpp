#include "net/server.hpp"

#include <algorithm>
#include <chrono>
#include <csignal>
#include <span>
#include <thread>

#include "io/campaign_state.hpp"
#include "io/container.hpp"
#include "obs/histogram.hpp"
#include "obs/metrics_server.hpp"
#include "obs/run_log.hpp"
#include "obs/telemetry.hpp"

namespace ge::net {

namespace {

int64_t now_ns() { return obs::now_ns(); }

/// Straggler sweeps are cheap but run from heartbeat handlers and the
/// executor's poll loop; once per 250ms fleet-wide is plenty.
constexpr int64_t kStragglerSweepIntervalNs = 250 * 1000000ll;

/// Nearest-rank quantile over an unsorted copy (small /status sample sets).
double sample_quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  const size_t idx = std::min(
      v.size() - 1, static_cast<size_t>(q * static_cast<double>(v.size())));
  std::nth_element(v.begin(), v.begin() + static_cast<ptrdiff_t>(idx),
                   v.end());
  return v[static_cast<ptrdiff_t>(idx)];
}

}  // namespace

Server::Server(const ServeOptions& opts, obs::RunLog* log)
    : opts_(opts), log_(log) {
  ListenResult lr = listen_loopback(opts_.port);
  if (!lr.sock.valid()) {
    error_ = lr.error;
    return;
  }
  listen_ = std::move(lr.sock);
  port_ = lr.port;
}

Server::~Server() = default;

void Server::log_event(const char* type, const std::string& detail,
                       uint64_t campaign_id, int64_t a, int64_t b) {
  if (log_ == nullptr) return;
  std::lock_guard<std::mutex> lock(log_mu_);
  obs::JsonObject row;
  row.str("detail", detail);
  if (campaign_id != 0) row.num("campaign", campaign_id);
  if (a >= 0) row.num("a", a);
  if (b >= 0) row.num("b", b);
  row.num("active_sessions",
          static_cast<int64_t>(active_sessions_.load(std::memory_order_relaxed)));
  log_->event(type, row);
}

void Server::log_service_event(const char* kind, const std::string& detail,
                               uint64_t campaign_id, int64_t a, int64_t b) {
  if (log_ == nullptr) return;
  std::lock_guard<std::mutex> lock(log_mu_);
  obs::JsonObject row;
  row.str("kind", kind);
  row.str("detail", detail);
  if (campaign_id != 0) row.num("campaign", campaign_id);
  if (a >= 0) row.num("a", a);
  if (b >= 0) row.num("b", b);
  log_->event("service", row);
}

void Server::note_lease_complete(const LeaseInfo& info) {
  const std::string name = info.worker.empty() ? "local" : info.worker;
  const double secs = static_cast<double>(info.age_ns) / 1e9;
  const double tps =
      secs > 0.0 ? static_cast<double>(info.hi - info.lo) / secs : 0.0;
  {
    std::lock_guard<std::mutex> lock(wstats_mu_);
    WorkerStats& ws = worker_stats_[name];
    ws.leases += 1;
    ws.trials += info.hi - info.lo;
    if (secs > 0.0) {
      ws.busy_seconds += secs;
      // Recent-window samples back the /status per-worker quantiles; the
      // cap keeps a long-lived daemon's map bounded.
      if (ws.tps.size() >= 128) ws.tps.erase(ws.tps.begin());
      ws.tps.push_back(tps);
    }
  }
  if (tps > 0.0) obs::histogram("net.worker_trials_per_sec").record(tps);
}

void Server::straggler_sweep(const std::shared_ptr<Campaign>& c) {
  if (opts_.straggler_fraction <= 0.0 || c == nullptr) return;
  const int64_t now = now_ns();
  int64_t last = c->straggler_check_ns.load(std::memory_order_relaxed);
  if (now - last < kStragglerSweepIntervalNs) return;
  if (!c->straggler_check_ns.compare_exchange_strong(
          last, now, std::memory_order_relaxed)) {
    return;  // another thread is sweeping this window
  }
  for (const LeaseInfo& li :
       c->leases.flag_stragglers(now, opts_.straggler_fraction)) {
    log_service_event("lease_straggler", li.worker, c->id,
                      static_cast<int64_t>(li.id), li.lo);
    obs::log(1, "serve: lease " + std::to_string(li.id) + " [" +
                    std::to_string(li.lo) + "," + std::to_string(li.hi) +
                    ") on '" + li.worker + "' flagged as straggler");
  }
}

std::string Server::status_json() {
  const int64_t now = now_ns();
  std::shared_ptr<Campaign> active;
  std::vector<std::shared_ptr<Campaign>> queued;
  {
    std::lock_guard<std::mutex> lock(mu_);
    active = active_;
    queued.assign(queue_.begin(), queue_.end());
  }

  obs::JsonObject o;
  o.num("queue_depth", static_cast<int64_t>(queued.size()));
  o.num("active_sessions",
        static_cast<int64_t>(active_sessions_.load(std::memory_order_relaxed)));
  o.num("served_campaigns", served_.load(std::memory_order_relaxed));

  std::string campaigns = "[";
  std::string leases = "[";
  bool first = true;
  const auto campaign_row = [&](const std::shared_ptr<Campaign>& c,
                                const char* state, int64_t position) {
    obs::JsonObject row;
    row.num("id", c->id);
    row.str("state", state);
    if (position >= 0) row.num("queue_position", position);
    row.str("format", c->spec.format_spec);
    row.str("submitter", c->submitter);
    row.num("completed_trials", c->leases.completed_trials());
    row.num("total_trials", c->leases.total_trials());
    row.num("age_seconds",
            c->enqueue_ns > 0
                ? static_cast<double>(now - c->enqueue_ns) / 1e9
                : 0.0);
    if (!first) campaigns += ',';
    first = false;
    campaigns += row.render();
  };
  if (active != nullptr) campaign_row(active, "active", -1);
  for (size_t i = 0; i < queued.size(); ++i) {
    campaign_row(queued[i], "queued", static_cast<int64_t>(i));
  }
  campaigns += ']';

  if (active != nullptr) {
    bool lease_first = true;
    for (const LeaseInfo& li : active->leases.snapshot(now)) {
      obs::JsonObject row;
      row.num("id", li.id);
      row.num("campaign", active->id);
      row.num("lo", li.lo);
      row.num("hi", li.hi);
      row.str("worker", li.worker.empty() ? "local" : li.worker);
      row.num("age_seconds", static_cast<double>(li.age_ns) / 1e9);
      row.num("since_heartbeat_seconds",
              static_cast<double>(li.since_heartbeat_ns) / 1e9);
      row.boolean("expires", li.expires);
      row.boolean("straggler", li.straggler);
      if (!lease_first) leases += ',';
      lease_first = false;
      leases += row.render();
    }
  }
  leases += ']';

  std::string workers = "[";
  {
    std::lock_guard<std::mutex> lock(wstats_mu_);
    bool wfirst = true;
    for (const auto& [name, ws] : worker_stats_) {
      obs::JsonObject row;
      row.str("name", name);
      row.num("leases_completed", ws.leases);
      row.num("trials", ws.trials);
      row.num("busy_seconds", ws.busy_seconds);
      obs::JsonObject hist;
      hist.num("count", static_cast<int64_t>(ws.tps.size()));
      double sum = 0.0;
      for (double v : ws.tps) sum += v;
      hist.num("mean",
               ws.tps.empty() ? 0.0
                              : sum / static_cast<double>(ws.tps.size()));
      hist.num("p50", sample_quantile(ws.tps, 0.5));
      hist.num("p90", sample_quantile(ws.tps, 0.9));
      row.raw("trials_per_sec", hist.render());
      if (!wfirst) workers += ',';
      wfirst = false;
      workers += row.render();
    }
  }
  workers += ']';

  o.raw("campaigns", campaigns);
  o.raw("leases", leases);
  o.raw("workers", workers);
  return o.render();
}

std::shared_ptr<Server::Campaign> Server::active_campaign() {
  std::lock_guard<std::mutex> lock(mu_);
  return active_;
}

size_t Server::session_threads() {
  std::lock_guard<std::mutex> lock(threads_mu_);
  return session_threads_.size();
}

int Server::run() {
  if (!ok()) return 1;
  obs::log(1, "serve: listening on 127.0.0.1:" + std::to_string(port_));
  // Expose the live queue/lease/worker tables to GET /status for the
  // lifetime of the serve loop; set_status_source(nullptr) below blocks
  // until any in-flight scrape has left status_json().
  obs::set_status_source([this] { return status_json(); });
  std::thread executor([this] { executor_loop(); });

  while (!stop_.load(std::memory_order_relaxed)) {
    Socket conn = accept_connection(listen_, /*timeout_ms=*/100);
    if (!conn.valid()) continue;
    obs::add(obs::Counter::kNetRequests);
    std::lock_guard<std::mutex> lock(threads_mu_);
    // Join the sessions that ended: an unjoined thread keeps its stack, so
    // a daemon serving campaign after campaign would otherwise grow by one
    // stack per connection ever accepted.
    std::erase_if(session_threads_, [](SessionThread& t) {
      if (!t.done->load(std::memory_order_acquire)) return false;
      t.thread.join();
      return true;
    });
    auto done = std::make_shared<std::atomic<bool>>(false);
    session_threads_.push_back(
        {std::thread(
             [this, done](Socket s) {
               session_thread(std::move(s));
               done->store(true, std::memory_order_release);
             },
             std::move(conn)),
         done});
  }

  // Drain: the executor finishes (or checkpoints) the active campaign and
  // refuses the queue; then session threads notice shutdown_sessions_ on
  // their next poll tick and wind down.
  executor.join();
  shutdown_sessions_.store(true, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(threads_mu_);
    for (SessionThread& t : session_threads_) t.thread.join();
  }
  obs::set_status_source(nullptr);
  log_event("serve_exit", "graceful shutdown", 0,
            served_.load(std::memory_order_relaxed));
  obs::log(1, "serve: drained, exiting");
  return 0;
}

void Server::session_thread(Socket sock) {
  active_sessions_.fetch_add(1, std::memory_order_relaxed);
  obs::set_gauge("net.active_sessions",
                 static_cast<double>(active_sessions_.load()));
  auto chan = std::make_shared<FrameChannel>(
      std::move(sock), "serve: client connection");
  try {
    // Handshake: first frame must be a hello naming the peer's role.
    bool timed_out = false;
    std::optional<Frame> f;
    while (!shutdown_sessions_.load(std::memory_order_relaxed)) {
      f = chan->recv_wait(100, &timed_out);
      if (!timed_out) break;
    }
    if (f.has_value() && f->type == FrameType::kHello) {
      const HelloMsg hello = decode_hello(f->payload, chan->context());
      log_event("session_start",
                hello.role == HelloMsg::kRoleWorker ? "worker" : "submit");
      if (hello.role == HelloMsg::kRoleWorker) {
        serve_worker(chan, hello.client);
      } else {
        serve_submit(chan, hello.client);
      }
    }
  } catch (const std::exception& e) {
    // A lying or vanished peer only costs its own session.
    obs::log(1, std::string("serve: session error: ") + e.what());
    log_event("session_error", e.what());
  }
  active_sessions_.fetch_sub(1, std::memory_order_relaxed);
  obs::set_gauge("net.active_sessions",
                 static_cast<double>(active_sessions_.load()));
  log_event("session_end", "");
}

void Server::serve_submit(std::shared_ptr<FrameChannel> chan,
                          const std::string& who) {
  bool timed_out = false;
  std::optional<Frame> f;
  do {
    f = chan->recv_wait(100, &timed_out);
    if (shutdown_sessions_.load(std::memory_order_relaxed)) return;
  } while (timed_out);
  if (!f.has_value()) return;  // client left before submitting
  if (f->type != FrameType::kSubmit) {
    chan->send(FrameType::kError,
               encode_error({"expected a submit frame, got " +
                             std::string(frame_type_name(f->type))}));
    return;
  }
  if (stop_.load(std::memory_order_relaxed)) {
    chan->send(FrameType::kError,
               encode_error({"server is draining; resubmit later"}));
    return;
  }

  auto c = std::make_shared<Campaign>();
  c->spec = decode_campaign_spec(f->payload, chan->context());
  // The executor co-owns the channel: even if this session thread exits
  // first (client closed early), the executor's sends hit a live object
  // and fail cleanly instead of touching freed memory.
  c->chan = chan;
  c->submitter = who;
  c->enqueue_ns = now_ns();
  {
    std::lock_guard<std::mutex> lock(mu_);
    c->id = next_campaign_id_++;
    queue_.push_back(c);
  }
  cv_.notify_all();
  log_event("campaign_queued", c->spec.format_spec + " " + who, c->id);

  // The session span is a direct child of the client's propagated submit
  // span: it covers the whole held-open connection, so the merged trace
  // shows how long this campaign occupied a server session slot.
  obs::TraceContextScope trace_ctx(
      obs::TraceContext{c->spec.trace_id, c->spec.parent_span_id});
  obs::Span session_span("net", "server_session", who);

  // Hold the connection open until the peer closes it (it does so after
  // kDone / kError / kCheckpointed) or the server winds down.
  for (;;) {
    f = chan->recv_wait(100, &timed_out);
    if (!timed_out) break;  // EOF or a stray frame — either way, done
    if (shutdown_sessions_.load(std::memory_order_relaxed)) break;
  }
}

void Server::serve_worker(std::shared_ptr<FrameChannel> chan,
                          const std::string& who) {
  // Leases this connection currently holds; abandoned if the worker dies.
  std::vector<std::pair<std::shared_ptr<Campaign>, uint64_t>> held;
  const auto abandon_all = [&] {
    for (auto& [campaign, lease_id] : held) {
      if (campaign->leases.abandon(lease_id)) {
        campaign->signal_lease_event();
        log_event("lease_abandoned", who, campaign->id,
                  static_cast<int64_t>(lease_id));
      }
    }
    held.clear();
  };
  const int64_t timeout_ns =
      static_cast<int64_t>(opts_.lease_timeout_ms) * 1000000;

  // Any exit — clean, EOF, or a protocol violation — returns this
  // worker's outstanding ranges to the queue on the way out.
  try {
  for (;;) {
    if (shutdown_sessions_.load(std::memory_order_relaxed)) {
      abandon_all();
      try {
        chan->send(FrameType::kShutdown, {});
      } catch (const NetError&) {
      }
      return;
    }
    bool timed_out = false;
    std::optional<Frame> f = chan->recv_wait(100, &timed_out);
    if (timed_out) continue;
    if (!f.has_value()) {
      // Worker disconnected (or was killed): its leases go straight back
      // to the queue — the crash-recovery path the CI drill exercises.
      abandon_all();
      return;
    }

    switch (f->type) {
      case FrameType::kLeaseRequest: {
        std::shared_ptr<Campaign> c = active_campaign();
        Lease l;
        if (c != nullptr && c->leases.grant(now_ns(), timeout_ns, &l, who)) {
          // The grant span parents under the propagated submit context;
          // the spec inside the grant carries the same context onward, so
          // the worker's lease spans join the same tree.
          obs::TraceContextScope trace_ctx(
              obs::TraceContext{c->spec.trace_id, c->spec.parent_span_id});
          obs::Span grant_span("net", "lease_grant", who);
          LeaseGrantMsg grant;
          grant.campaign_id = c->id;
          grant.lease_id = l.id;
          grant.lo = static_cast<uint64_t>(l.lo);
          grant.hi = static_cast<uint64_t>(l.hi);
          grant.heartbeat_ms = static_cast<uint32_t>(
              std::max(1, opts_.lease_timeout_ms / 3));
          grant.spec = c->spec;
          held.emplace_back(c, l.id);
          obs::add(obs::Counter::kNetLeasesGranted);
          log_event("lease_grant", who, c->id, l.lo, l.hi);
          chan->send(FrameType::kLeaseGrant, encode_lease_grant(grant));
        } else if (stop_.load(std::memory_order_relaxed)) {
          chan->send(FrameType::kShutdown, {});
          return;
        } else {
          chan->send(FrameType::kNoWork, {});
        }
        break;
      }
      case FrameType::kHeartbeat: {
        const HeartbeatMsg hb = decode_heartbeat(f->payload, chan->context());
        std::shared_ptr<Campaign> c = active_campaign();
        if (c != nullptr && c->id == hb.campaign_id) {
          c->leases.heartbeat(hb.lease_id, now_ns(), timeout_ns);
          // Heartbeats arrive at a steady fleet-wide cadence — a natural
          // (rate-limited) place to compare leases against the median.
          straggler_sweep(c);
        }
        break;
      }
      case FrameType::kLeaseResult: {
        const LeaseResultMsg res =
            decode_lease_result(f->payload, chan->context());
        held.erase(std::remove_if(held.begin(), held.end(),
                                  [&](const auto& h) {
                                    return h.second == res.lease_id;
                                  }),
                   held.end());
        std::shared_ptr<Campaign> c = active_campaign();
        if (c == nullptr || c->id != res.campaign_id) break;
        io::ByteReader r(std::span<const uint8_t>(res.progress),
                         chan->context());
        core::CampaignProgress part;
        try {
          part = io::decode_campaign_progress(r);
        } catch (const io::IoError& e) {
          throw NetError(e.what());
        }
        // complete() is the reclaim gate: false means this lease expired
        // and its range was re-leased — a duplicate result that would
        // break merge's disjointness, so it is dropped. The part lands
        // under the same lock as the completion, so an executor that sees
        // all_done() and then merges (under c->mu) always finds it.
        LeaseInfo done_info;
        bool accepted = false;
        {
          std::lock_guard<std::mutex> lock(c->mu);
          accepted = c->leases.complete(res.lease_id, now_ns(), &done_info);
          if (accepted) c->parts.push_back(std::move(part));
        }
        if (accepted) {
          c->signal_lease_event();
          note_lease_complete(done_info);
          log_event("lease_result", who, c->id,
                    static_cast<int64_t>(res.lease_id));
        } else {
          log_event("lease_result_stale", who, c->id,
                    static_cast<int64_t>(res.lease_id));
        }
        break;
      }
      case FrameType::kLogRow: {
        // Forward the worker's trial rows to whoever submitted the active
        // campaign; a vanished submit client just drops them.
        std::shared_ptr<Campaign> c = active_campaign();
        if (c != nullptr) {
          try {
            c->chan->send(FrameType::kLogRow, std::move(f->payload));
          } catch (const NetError&) {
          }
        }
        break;
      }
      default:
        throw NetError(chan->context() + ": unexpected " +
                       std::string(frame_type_name(f->type)) +
                       " frame from a worker");
    }
  }
  } catch (...) {
    abandon_all();
    throw;
  }
}

void Server::executor_loop() {
  for (;;) {
    std::shared_ptr<Campaign> c;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait_for(lock, std::chrono::milliseconds(100), [&] {
        return !queue_.empty() || stop_.load(std::memory_order_relaxed);
      });
      if (queue_.empty()) {
        if (stop_.load(std::memory_order_relaxed)) break;
        continue;
      }
      if (stop_.load(std::memory_order_relaxed)) break;
      c = queue_.front();
      queue_.pop_front();
      active_ = c;
    }
    execute(c);
    {
      std::lock_guard<std::mutex> lock(mu_);
      active_.reset();
    }
    ++served_;
    if (opts_.max_campaigns > 0 && served_ >= opts_.max_campaigns) {
      stop_.store(true, std::memory_order_relaxed);
      break;
    }
  }
  // Whatever is still queued was accepted before the stop request but
  // never started: refuse it explicitly rather than leaving clients hung.
  std::deque<std::shared_ptr<Campaign>> leftover;
  {
    std::lock_guard<std::mutex> lock(mu_);
    leftover.swap(queue_);
  }
  for (const auto& c : leftover) {
    try {
      c->chan->send(FrameType::kError,
                    encode_error({"server drained before this campaign "
                                  "started; resubmit"}));
    } catch (const NetError&) {
    }
    log_event("campaign_refused", "drain", c->id);
  }
}

core::CampaignProgress Server::merge_parts(
    const std::shared_ptr<Campaign>& c) {
  std::lock_guard<std::mutex> lock(c->mu);
  return core::merge_campaign_progress(c->parts);
}

void Server::checkpoint_campaign(const std::shared_ptr<Campaign>& c) {
  bool have_parts = false;
  {
    std::lock_guard<std::mutex> lock(c->mu);
    have_parts = !c->parts.empty();
  }
  if (!have_parts) {
    c->chan->send(FrameType::kError,
                  encode_error({"server drained before any trials of this "
                                "campaign completed; resubmit"}));
    log_event("campaign_refused", "drain timeout, no progress", c->id);
    return;
  }
  const core::CampaignProgress merged = merge_parts(c);
  CheckpointedMsg msg;
  msg.path = opts_.checkpoint_dir + "/campaign_" + std::to_string(c->id) +
             ".gec";
  msg.completed_trials = merged.completed_trials();
  msg.total_trials = merged.total_trials();
  io::save_campaign_progress(msg.path, merged);
  c->chan->send(FrameType::kCheckpointed, encode_checkpointed(msg));
  log_event("campaign_checkpointed", msg.path, c->id, msg.completed_trials,
            msg.total_trials);
}

void Server::execute(const std::shared_ptr<Campaign>& c) {
  log_event("campaign_start", c->spec.format_spec, c->id);
  // Install the submit client's propagated context for the whole
  // execution: queue_wait and execute become siblings under the client's
  // root span, and every campaign/pool span recorded on this thread nests
  // under execute automatically.
  obs::TraceContextScope trace_ctx(
      obs::TraceContext{c->spec.trace_id, c->spec.parent_span_id});
  if (c->enqueue_ns > 0) {
    // Queue wait was measured across threads (stamped at enqueue on the
    // session thread, closed here), so it is recorded, not scoped.
    obs::record_span("net", "queue_wait", c->enqueue_ns,
                     now_ns() - c->enqueue_ns);
  }
  obs::Span exec_span("net", "execute", "campaign_" + std::to_string(c->id));
  try {
    // One session for the whole campaign: every lease the executor runs
    // reuses its replicas, emulators, golden run and replay plans.
    PreparedCampaign prep = prepare_campaign(c->spec, opts_.cache_dir);
    const int64_t chunk =
        opts_.lease_chunk > 0
            ? opts_.lease_chunk
            : std::max<int64_t>(1, (prep.total_trials + 7) / 8);
    c->leases.reset(prep.total_trials, chunk);

    // Rows stream through the submit channel as they are produced. If the
    // client disconnects mid-campaign the stream goes bad (badbit — the
    // ostream layer swallows the NetError) and RunLog stops writing; the
    // campaign itself keeps running to completion.
    LineFrameStream row_stream(*c->chan);
    obs::RunLog row_log(row_stream);

    int64_t drain_deadline = 0;
    bool checkpointed = false;
    while (!c->leases.all_done()) {
      const int reclaimed = c->leases.reclaim_expired(now_ns());
      if (reclaimed > 0) {
        log_service_event("lease_reclaimed", "expired", c->id, reclaimed);
      }
      straggler_sweep(c);
      if (stop_.load(std::memory_order_relaxed) &&
          opts_.drain_timeout_ms > 0) {
        if (drain_deadline == 0) {
          drain_deadline =
              now_ns() + static_cast<int64_t>(opts_.drain_timeout_ms) * 1000000;
          log_event("campaign_draining", "", c->id);
        } else if (now_ns() >= drain_deadline) {
          checkpoint_campaign(c);
          checkpointed = true;
          break;
        }
      }

      Lease l;
      // The executor is a lease holder like any worker — just one whose
      // lease never expires (it cannot die separately from the server).
      if (c->leases.grant(now_ns(), /*timeout_ns=*/0, &l)) {
        obs::Span lease_span("net", "lease_execute",
                             std::to_string(l.lo) + "-" + std::to_string(l.hi));
        core::CampaignRunOptions ropts;
        ropts.model_name = c->spec.model_name;
        ropts.eval_samples = c->spec.samples;
        ropts.lease_lo = l.lo;
        ropts.lease_hi = l.hi;
        ropts.run_log = &row_log;
        core::CampaignProgress part = prep.session->run(ropts);
        LeaseInfo done_info;
        c->leases.complete(l.id, now_ns(), &done_info);
        note_lease_complete(done_info);
        std::lock_guard<std::mutex> lock(c->mu);
        c->parts.push_back(std::move(part));
      } else {
        // Everything is leased out to workers: sleep until one of their
        // leases completes or is abandoned, or until the 20 ms tick of the
        // reclaim, straggler and drain sweeps above.
        std::unique_lock<std::mutex> lock(c->mu);
        c->lease_cv.wait_for(lock, std::chrono::milliseconds(20),
                             [&] { return c->lease_event; });
        c->lease_event = false;
      }
    }
    if (checkpointed) return;

    const core::CampaignProgress merged = merge_parts(c);
    const core::CampaignResult result = core::finalize_campaign(merged);
    DoneMsg done;
    done.digest = core::campaign_digest(result);
    done.golden_accuracy = result.golden_accuracy;
    done.summary = render_campaign_summary(c->spec, result);
    c->chan->send(FrameType::kDone, encode_done(done));
    log_event("campaign_done", c->spec.format_spec, c->id,
              merged.completed_trials(), merged.total_trials());
  } catch (const NetError& e) {
    // Bad spec, or the submit client vanished at the final send. Best
    // effort: tell the client, keep the daemon alive.
    try {
      c->chan->send(FrameType::kError, encode_error({e.what()}));
    } catch (const NetError&) {
    }
    log_event("campaign_error", e.what(), c->id);
  } catch (const std::exception& e) {
    try {
      c->chan->send(FrameType::kError, encode_error({e.what()}));
    } catch (const NetError&) {
    }
    log_event("campaign_error", e.what(), c->id);
  }
}

namespace {

std::atomic<Server*> g_signal_server{nullptr};

void handle_stop_signal(int) {
  Server* s = g_signal_server.load(std::memory_order_relaxed);
  if (s != nullptr) s->request_stop();
}

}  // namespace

int run_serve(const ServeOptions& opts, obs::RunLog* log, std::ostream& err) {
  Server server(opts, log);
  if (!server.ok()) {
    err << "serve: " << server.last_error() << "\n";
    return 1;
  }
  err << "serve: listening on 127.0.0.1:" << server.port() << "\n";

  g_signal_server.store(&server, std::memory_order_relaxed);
  struct sigaction sa;
  sa.sa_handler = handle_stop_signal;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = 0;  // no SA_RESTART: interrupt blocking calls promptly
  struct sigaction old_int, old_term;
  sigaction(SIGINT, &sa, &old_int);
  sigaction(SIGTERM, &sa, &old_term);

  const int code = server.run();

  sigaction(SIGINT, &old_int, nullptr);
  sigaction(SIGTERM, &old_term, nullptr);
  g_signal_server.store(nullptr, std::memory_order_relaxed);
  return code;
}

}  // namespace ge::net

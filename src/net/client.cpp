#include "net/client.hpp"

#include <atomic>
#include <chrono>
#include <optional>
#include <thread>

#include "core/json_scan.hpp"
#include "io/campaign_state.hpp"
#include "net/session.hpp"
#include "obs/run_log.hpp"
#include "obs/telemetry.hpp"

namespace ge::net {

namespace {

FrameChannel connect_channel(const std::string& host, int port,
                             const std::string& what) {
  std::string error;
  Socket sock = connect_to(host, port, &error);
  if (!sock.valid()) {
    throw NetError(what + ": " + error);
  }
  return FrameChannel(std::move(sock), what);
}

void sleep_ms_interruptible(int ms, const std::atomic<bool>& stop) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(ms);
  while (!stop.load(std::memory_order_relaxed) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
}

/// At --log-level >= 1, render a streamed heartbeat row as a progress
/// line: the server's trials/s + ETA, shown on the submit terminal that
/// would otherwise stay silent for the whole campaign.
void maybe_print_progress(const std::string& row, std::ostream& err) {
  if (obs::log_level() < 1) return;
  if (row.find("\"type\":\"heartbeat\"") == std::string::npos) return;
  const auto rec = core::jsonscan::parse_record(row);
  if (!rec.has_value()) return;
  const auto done = core::jsonscan::get_num(*rec, "done");
  const auto total = core::jsonscan::get_num(*rec, "total");
  const auto tps = core::jsonscan::get_num(*rec, "trials_per_sec");
  const auto eta = core::jsonscan::get_num(*rec, "eta_seconds");
  if (!done.has_value() || !total.has_value()) return;
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "submit: %lld/%lld trials, %.1f trials/s, eta %.1fs",
                static_cast<long long>(*done), static_cast<long long>(*total),
                tps.value_or(0.0), eta.value_or(0.0));
  err << buf << "\n";
}

}  // namespace

int run_submit(const SubmitOptions& opts, obs::RunLog* report,
               std::ostream& out, std::ostream& err) {
  // Root of the distributed trace. With tracing off the context stays
  // {0,0}: the spec encodes byte-identically to an untraced submit and
  // every downstream span records id-free, exactly as before.
  obs::TraceContextScope trace_scope(obs::TraceContext{
      obs::tracing_enabled() ? obs::make_trace_id() : 0, 0});
  obs::Span root_span("net", "submit", opts.spec.format_spec);

  FrameChannel chan = connect_channel(opts.host, opts.port, "submit");
  chan.send(FrameType::kHello,
            encode_hello({HelloMsg::kRoleSubmit, opts.client_name}));
  CampaignSpecMsg spec = opts.spec;
  const obs::TraceContext ctx = root_span.context();
  spec.trace_id = ctx.trace_id;
  spec.parent_span_id = ctx.span_id;
  chan.send(FrameType::kSubmit, encode_campaign_spec(spec));

  for (;;) {
    std::optional<Frame> f = chan.recv();
    if (!f.has_value()) {
      err << "submit: server closed the connection before the campaign "
             "resolved\n";
      return 1;
    }
    switch (f->type) {
      case FrameType::kLogRow: {
        const std::string row(f->payload.begin(), f->payload.end());
        if (report != nullptr) report->raw_line(row);
        maybe_print_progress(row, err);
        break;
      }
      case FrameType::kDone: {
        // The summary is render_campaign_summary's text, digest line
        // included: exactly what an offline `campaign` prints.
        out << decode_done(f->payload, chan.context()).summary;
        return 0;
      }
      case FrameType::kCheckpointed: {
        const CheckpointedMsg cp =
            decode_checkpointed(f->payload, chan.context());
        // Graceful drain, resumable offline — mirrors the offline CLI's
        // incomplete-shard exit: progress reported, exit 0.
        out << "campaign progress: " << cp.completed_trials << "/"
            << cp.total_trials << " trials (server drained)\n";
        out << "progress saved: " << cp.path << "\n";
        return 0;
      }
      case FrameType::kError: {
        const ErrorMsg e = decode_error(f->payload, chan.context());
        err << "submit: server error: " << e.message << "\n";
        return 1;
      }
      default:
        throw NetError(chan.context() + ": unexpected " +
                       std::string(frame_type_name(f->type)) + " frame");
    }
  }
}

int run_worker(const WorkerOptions& opts, std::ostream& out,
               std::ostream& err) {
  FrameChannel chan = connect_channel(opts.host, opts.port, "worker");
  chan.send(FrameType::kHello,
            encode_hello({HelloMsg::kRoleWorker, opts.client_name}));

  // The prepared campaign (model, batch and session), keyed by campaign id.
  std::optional<std::pair<uint64_t, PreparedCampaign>> cached;
  int64_t executed = 0;
  int64_t dropped = 0;
  int64_t stalled = 0;
  auto last_work = std::chrono::steady_clock::now();

  for (;;) {
    chan.send(FrameType::kLeaseRequest, {});
    std::optional<Frame> f = chan.recv();
    if (!f.has_value()) {
      err << "worker: server closed the connection\n";
      return 1;
    }
    switch (f->type) {
      case FrameType::kNoWork: {
        if (opts.idle_timeout_ms > 0 &&
            std::chrono::steady_clock::now() - last_work >
                std::chrono::milliseconds(opts.idle_timeout_ms)) {
          out << "worker: idle, exiting after " << executed << " leases\n";
          return 0;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(opts.poll_ms));
        break;
      }
      case FrameType::kShutdown: {
        out << "worker: server draining, exiting after " << executed
            << " leases\n";
        return 0;
      }
      case FrameType::kError: {
        const ErrorMsg e = decode_error(f->payload, chan.context());
        err << "worker: server error: " << e.message << "\n";
        return 1;
      }
      case FrameType::kLeaseGrant: {
        const LeaseGrantMsg grant =
            decode_lease_grant(f->payload, chan.context());
        last_work = std::chrono::steady_clock::now();

        if (opts.stall_leases > 0) {
          // Drill mode: hold the grant without heartbeating and keep the
          // connection open. The server cannot see an EOF, so the lease
          // must die the slow way — straggler flag, then expiry reclaim.
          ++stalled;
          out << "worker: stalling lease " << grant.lease_id << " ["
              << grant.lo << "," << grant.hi << ")\n";
          if (stalled >= opts.stall_leases) {
            for (;;) {
              bool timed_out = false;
              std::optional<Frame> g = chan.recv_wait(250, &timed_out);
              if (timed_out) continue;
              if (!g.has_value() || g->type == FrameType::kShutdown) {
                out << "worker: stalled " << stalled
                    << " lease(s) until shutdown\n";
                return 0;
              }
              // anything else (a late grant) stays unanswered — stuck
            }
          }
          break;
        }

        if (opts.drop_leases > 0) {
          // Drill mode: hold the grant, never run it, and once enough
          // grants are held, die abruptly. The server must notice the
          // EOF and reclaim every held range.
          ++dropped;
          out << "worker: dropping lease " << grant.lease_id << " ["
              << grant.lo << "," << grant.hi << ")\n";
          if (dropped >= opts.drop_leases) {
            out << "worker: dying with " << dropped << " leases held\n";
            return 0;
          }
          break;
        }

        // Join the campaign's distributed trace: the grant's spec carries
        // the submit client's context, so this lease's spans (and every
        // campaign/pool span recorded while it runs) parent under the
        // same root as the server's execute span.
        obs::TraceContextScope trace_ctx(obs::TraceContext{
            grant.spec.trace_id, grant.spec.parent_span_id});
        obs::Span lease_span("net", "worker_lease",
                             std::to_string(grant.lo) + "-" +
                                 std::to_string(grant.hi));

        // Renew the lease from the grant on, prepare included: a prepare
        // that must train (cold cache) or shares a busy pool can outlast
        // the lease timeout, and a lease lost there is re-run and its
        // result discarded. The campaign thread owns the channel reads,
        // the heartbeat thread only sends (the channel serializes
        // writers). The guard joins it on every exit path.
        struct Heartbeat {
          std::atomic<bool> stop{false};
          std::thread thread;
          ~Heartbeat() {
            stop.store(true, std::memory_order_relaxed);
            if (thread.joinable()) thread.join();
          }
        } hb;
        hb.thread = std::thread([&] {
          const int interval =
              std::max<int>(1, static_cast<int>(grant.heartbeat_ms));
          for (;;) {
            sleep_ms_interruptible(interval, hb.stop);
            if (hb.stop.load(std::memory_order_relaxed)) return;
            try {
              chan.send(FrameType::kHeartbeat,
                        encode_heartbeat(
                            {grant.campaign_id, grant.lease_id}));
            } catch (const NetError&) {
              return;  // server gone; the main loop will find out too
            }
          }
        });

        // One prepared campaign, and so one session, for every lease of
        // the same campaign.
        if (!cached.has_value() || cached->first != grant.campaign_id) {
          cached.reset();
          cached.emplace(grant.campaign_id,
                         prepare_campaign(grant.spec, opts.cache_dir));
        }
        LineFrameStream row_stream(chan);
        obs::RunLog row_log(row_stream);
        core::CampaignRunOptions ropts;
        ropts.model_name = grant.spec.model_name;
        ropts.eval_samples = grant.spec.samples;
        ropts.lease_lo = static_cast<int64_t>(grant.lo);
        ropts.lease_hi = static_cast<int64_t>(grant.hi);
        ropts.run_log = &row_log;
        const core::CampaignProgress part = cached->second.session->run(ropts);
        LeaseResultMsg res;
        res.campaign_id = grant.campaign_id;
        res.lease_id = grant.lease_id;
        res.progress = io::encode_campaign_progress(part);
        chan.send(FrameType::kLeaseResult, encode_lease_result(res));
        ++executed;
        out << "worker: completed lease " << grant.lease_id << " ["
            << grant.lo << "," << grant.hi << ")\n";
        if (opts.max_leases > 0 && executed >= opts.max_leases) {
          out << "worker: lease budget reached, exiting after " << executed
              << " leases\n";
          return 0;
        }
        break;
      }
      default:
        throw NetError(chan.context() + ": unexpected " +
                       std::string(frame_type_name(f->type)) + " frame");
    }
  }
}

}  // namespace ge::net

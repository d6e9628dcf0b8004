// ge::net session plumbing shared by the server and the clients:
//
//  - FrameChannel: one connection with a serialized writer. Several
//    threads write frames to the same socket (the executor streaming
//    trial rows while worker-forwarders splice in theirs; a worker's
//    campaign thread racing its heartbeat thread), so sends take a mutex.
//    Reads don't: every channel has exactly one reader thread.
//  - LineFrameStream: an ostream whose every '\n'-terminated line leaves
//    as one kLogRow frame. Wrapping it in obs::RunLog(std::ostream&)
//    turns a campaign run's report stream into live row streaming —
//    the rows on the wire are the exact bytes an offline --report run
//    would have written.
//  - the campaign front door: campaign_spec_reason checks a spec's
//    values, prepare_campaign builds the campaign from it, and
//    render_campaign_summary prints the result. `goldeneye campaign`,
//    `goldeneye submit` (through the CLI's flag reader), the server's
//    executor and every worker go through these three, so offline and
//    served campaigns are checked, built and printed by the same code.
//    prepare_campaign loads only what a campaign reads: the cached
//    weights and the first `samples` test images (a cache miss trains
//    first). The spec's trace context rides along untouched: callers that
//    want their spans in the submit client's trace install an
//    obs::TraceContextScope from spec.trace_id/parent_span_id first
//    (telemetry only — results are bitwise independent of tracing).
//    Deterministic synthetic training makes the weights bitwise identical
//    across processes, and the golden-digest check in
//    merge_campaign_progress turns any divergence into a diagnosed error
//    instead of silently mixed statistics.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <ostream>
#include <streambuf>
#include <string>
#include <vector>

#include "core/campaign.hpp"
#include "data/dataloader.hpp"
#include "net/codec.hpp"
#include "net/frame.hpp"
#include "net/socket.hpp"

namespace ge::net {

/// One protocol connection: single reader thread, any number of writers.
class FrameChannel {
 public:
  FrameChannel(Socket sock, std::string context)
      : sock_(std::move(sock)), context_(std::move(context)) {}

  /// Thread-safe frame write; throws NetError when the peer is gone.
  void send(FrameType type, std::vector<uint8_t> payload);
  /// Single-reader frame read; nullopt on clean EOF.
  std::optional<Frame> recv();
  /// As recv(), but gives up after `timeout_ms` with *timed_out = true —
  /// the polling form server session threads use so a blocked read can
  /// never outlive a shutdown request.
  std::optional<Frame> recv_wait(int timeout_ms, bool* timed_out);

  const std::string& context() const noexcept { return context_; }
  bool valid() const noexcept { return sock_.valid(); }
  /// Close the socket out from under any blocked reader (shutdown path).
  void shutdown();

 private:
  std::mutex send_mu_;
  Socket sock_;
  std::string context_;
};

/// std::streambuf turning each completed line into a kLogRow frame.
class LineFrameBuf : public std::streambuf {
 public:
  explicit LineFrameBuf(FrameChannel& chan) : chan_(&chan) {}

 protected:
  int overflow(int ch) override;
  std::streamsize xsputn(const char* s, std::streamsize n) override;

 private:
  void emit_line();

  FrameChannel* chan_;
  std::string line_;
};

/// The ostream face of LineFrameBuf (what obs::RunLog wraps).
class LineFrameStream : public std::ostream {
 public:
  explicit LineFrameStream(FrameChannel& chan)
      : std::ostream(&buf_), buf_(chan) {}

 private:
  LineFrameBuf buf_;
};

/// The CLI words of each core::InjectionSite and core::ErrorModel,
/// indexed by the enum's wire byte: what `--site` and `--error-model`
/// read (the last two models come from `--inject-scope row|channel`), and
/// what render_campaign_summary and the campaign report rows print.
inline constexpr std::array<const char*, 3> kSiteWords = {"value", "weight",
                                                          "metadata"};
inline constexpr std::array<const char*, 7> kErrorModelWords = {
    "flip", "sa0", "sa1", "ber", "burst", "row_burst", "channel"};

/// Why `spec` cannot run, or "" when it can: every value rule of a
/// campaign, each reason naming the CLI flag it concerns (format, site and
/// error-model bytes in range, a known model, injections, samples, epochs,
/// sites per trial and burst length in range, a ber in range for its model,
/// zoo models at the value site only, and a site that selects some layer).
/// The CLI's flag reader raises it as a usage error before connecting or
/// loading anything; prepare_campaign raises it again for library clients.
std::string campaign_spec_reason(const CampaignSpecMsg& spec);

/// A campaign reconstructed from its wire spec: trained model, evaluation
/// batch, the CampaignConfig (with replica factory), and the session that
/// holds the model instrumented — run trials through `session`, not on
/// `model`. The session is declared after the model, so it restores the
/// model before the model goes.
struct PreparedCampaign {
  std::unique_ptr<nn::Module> model;
  data::Batch batch;
  core::CampaignConfig cfg;
  std::unique_ptr<core::CampaignSession> session;
  int64_t total_trials = 0;  ///< campaigned layers * injections_per_layer
};

/// Build the campaign `spec` names: the model from `cache_dir` (trained
/// and cached on a miss), its first `samples` test images, the config with
/// its replica factory, and the session. The one builder: `goldeneye
/// campaign`, the server's executor and every worker call it. Throws
/// NetError("campaign spec: " + campaign_spec_reason(spec)) on an invalid
/// spec, before any model is loaded.
PreparedCampaign prepare_campaign(const CampaignSpecMsg& spec,
                                  const std::string& cache_dir);

/// What `goldeneye campaign` prints for a finished campaign: the header in
/// CLI words, the clean emulated accuracy, the per-layer table, the network
/// mean ΔLoss (5 decimals) and the digest line. The served kDone summary is
/// this text, and submit prints it verbatim, so served stdout equals
/// offline stdout. `spec` must have passed campaign_spec_reason.
std::string render_campaign_summary(const CampaignSpecMsg& spec,
                                    const core::CampaignResult& result);

}  // namespace ge::net

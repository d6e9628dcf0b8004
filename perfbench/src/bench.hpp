// Shared pieces of the GoldenEye benchmark binary: the fixed benchmark
// matrix, statistics, the pinned-digest table, the trained-weight cache,
// a report-row sink, and the Workload interface every workload implements.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <ostream>
#include <streambuf>
#include <string>
#include <vector>

#include "core/campaign.hpp"
#include "core/emulator.hpp"
#include "data/dataloader.hpp"
#include "data/synthetic.hpp"
#include "nn/module.hpp"
#include "obs/profiler.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

double ms_between(Clock::time_point a, Clock::time_point b);
double ms_since(Clock::time_point t0);
/// Steady-clock time at static initialisation, the start of `setup_s`.
Clock::time_point process_start();

double median(std::vector<double> v);
/// Linear-interpolated quantile, q in [0, 1]; 0 for an empty sample.
double quantile(std::vector<double> v, double q);

struct Metric {
  double value = 0.0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

inline void put(Metrics& m, const std::string& name, double value,
                const char* unit) {
  m[name] = Metric{value, unit};
}

/// Operations attempted and failed. An operation is one forward (inference
/// workloads) or one campaign trial; it fails if it throws or if an output
/// check covering it fails.
struct Tally {
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> errors;  ///< first few failure reasons
  void record(int64_t ops, bool ok, const std::string& why = "");
};

// --- the fixed benchmark matrix --------------------------------------------

/// Models of the emulated-inference matrix (the paper's Fig. 3 set plus the
/// transformer).
extern const std::vector<std::string> kInferModels;
/// The eight emulated formats of the matrix; "native" runs beside them.
extern const std::vector<std::string> kSpecs;
/// Module kinds whose profiler self time is reported per forward.
extern const std::vector<std::string> kKinds;
constexpr int64_t kInferBatch = 32;
constexpr int64_t kCampaignSamples = 16;
/// The workload seed selects one of this many input variants (which test
/// batches a pass starts from, which campaign seed). Every variant's
/// expected output digests are pinned in pins.txt.
constexpr int kVariants = 16;
constexpr uint64_t kCampaignSeedBase = 1234;

struct Options {
  std::string mode;  ///< run | prepare | pin
  std::string workload;
  uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string cache_dir;    ///< trained-weight cache (prepared once)
  std::string pins_path;    ///< pinned output digests
  std::string scratch_dir;  ///< files the service may write
  int threads = 1;
};

// --- pinned digests ----------------------------------------------------------

/// "key 0xDIGEST" lines. Keys name the exact computation (model, format,
/// batch or campaign parameters), so a stale pin cannot match by accident.
class Pins {
 public:
  void load(const std::string& path);
  std::optional<uint64_t> find(const std::string& key) const;

 private:
  std::map<std::string, uint64_t> map_;
};

uint64_t logits_digest(const ge::Tensor& logits);
std::string hex(uint64_t v);

/// Everything a workload needs besides its own state.
struct Context {
  Options opt;
  Pins pins;
  int variant = 0;  ///< seed % kVariants
};

// --- trained-weight cache ----------------------------------------------------

/// Train every benchmark model once into `cache_dir`: the .gew files the
/// service's ensure_trained path reads, plus .gec model checkpoints that
/// set-up loads through io::load_model.
void prepare_cache(const std::string& cache_dir);
std::string checkpoint_path(const std::string& cache_dir,
                            const std::string& model);
std::unique_ptr<ge::nn::Module> load_trained(const std::string& cache_dir,
                                             const std::string& model);

/// One (model, format) configuration of the inference matrix: its own
/// model instance, with the emulator attached unless spec is "native".
/// Member order matters: the emulator detaches before the model dies.
struct InferCell {
  std::string model;
  std::string spec;
  std::unique_ptr<ge::nn::Module> net;
  std::unique_ptr<ge::core::Emulator> emu;
};
InferCell make_cell(const std::string& cache_dir, const std::string& model,
                    const std::string& spec);

/// Fill nn.self_ms.<kind> and emulator.site_ms.<spec> from a profile of
/// `forwards` matrix forwards, `per_spec` of them under each format.
void attribute_forward_profile(const std::vector<ge::obs::SpanStats>& prof,
                               double forwards, double per_spec, Metrics& out);

// --- campaign report rows ----------------------------------------------------

/// What a stream of schema-v2 campaign report rows contained.
struct RowStats {
  bool have_first = false;
  Clock::time_point first_row{};
  int64_t bytes = 0;
  int64_t trials = 0;
  /// layer path -> (trial rows, summed "affected")
  std::map<std::string, std::pair<int64_t, int64_t>> per_layer;
};

/// std::ostream receiving report rows (one JSON object per line): it keeps
/// counts instead of text, and the arrival time of the first row.
class RowStream : public std::ostream {
 public:
  RowStream() : std::ostream(&buf_) {}
  const RowStats& stats() const { return buf_.stats; }

 private:
  struct Buf : std::streambuf {
    RowStats stats;
    std::string line;
    int overflow(int ch) override;
    std::streamsize xsputn(const char* s, std::streamsize n) override;
    void take(char c);
    void on_line();
  };
  Buf buf_;
};

// --- campaigns -----------------------------------------------------------------

/// One campaign request: a model plus the exact CampaignConfig the CLI
/// would build for it (replica factory included).
struct CampaignCase {
  std::string model;
  ge::core::CampaignConfig cfg;
  /// Pin key; identifies every input of the campaign digest.
  std::string key() const;
};
CampaignCase make_case(const std::string& model, const std::string& spec,
                       ge::core::InjectionSite site,
                       ge::core::ErrorModel error_model, int64_t injections,
                       uint64_t seed, double ber = 0.0);

/// The campaign evaluation batch, as the CLI and the service take it.
ge::data::Batch campaign_batch(const ge::data::SyntheticVision& data);

// --- workloads -----------------------------------------------------------------

/// One round: a whole pass over the workload's request mix.
struct RoundStats {
  double items = 0.0;   ///< throughput numerator: samples or trials
  double wall_s = 0.0;
  std::vector<double> latency_ms;    ///< per request
  std::vector<double> first_row_ms;  ///< per request, start -> first result
};

/// Result of one timed closed loop. End-to-end metrics are medians over its
/// rounds, so a burst of load from outside moves at most a few rounds.
struct LoopResult {
  std::vector<RoundStats> per_round;
  int64_t ops = 0;  ///< forwards or trials completed
  double wall_s = 0.0;
  int64_t rounds() const { return static_cast<int64_t>(per_round.size()); }
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Dataset, model load, emulator attach and golden pass (timed as
  /// setup_s). Output checks of the golden pass go to `tally`.
  virtual void setup(Tally& tally) = 0;
  /// Untimed: warm-up pass and the output checks that cannot run inside
  /// the timed region.
  virtual void prepare_run(Tally& tally) = 0;
  /// Timed closed loop over whole rounds: stops once `seconds` elapsed, or
  /// after exactly `rounds` rounds when rounds > 0.
  virtual LoopResult run(double seconds, int64_t rounds, Tally& tally) = 0;
  /// Per-layer numbers measured by a traced loop (`traced`), with the
  /// untraced loop of the same work in `plain`.
  virtual void attribute(const LoopResult& plain, const LoopResult& traced,
                         Metrics& out) = 0;

  double dataset_ms = 0.0;
};

std::unique_ptr<Workload> make_fig3(const Context& ctx);
std::unique_ptr<Workload> make_campaign_flip(const Context& ctx);
std::unique_ptr<Workload> make_campaign_ber(const Context& ctx);
std::unique_ptr<Workload> make_served_flip(const Context& ctx);

/// The per-layer probe battery: direct timed calls into each layer's public
/// functions at fixed inputs. Reports every per-layer metric; the caller
/// keeps the workload's own traced-loop value where it has one.
void run_probes(const Context& ctx, Metrics& out, Tally& tally);

/// Print every pinned digest this build computes (the pins.txt format).
void print_pins(const Context& ctx);
void print_fig3_pins(const Context& ctx);

/// Served campaign helpers shared by the served workload and the net probe.
struct ServedRun {
  bool ok = false;
  std::string error;
  uint64_t digest = 0;
  double latency_ms = 0.0;    ///< submit -> done
  double first_row_ms = 0.0;  ///< submit -> first streamed row
  RowStats rows;
};
/// Start an in-process net::Server and one in-process run_worker, submit
/// `c` as whole campaigns one after another (a submit connection each, so
/// exactly two loopback connections are open at any time) until `seconds`
/// passed, or exactly `campaigns` times when campaigns > 0; then stop both.
std::vector<ServedRun> run_served(const Context& ctx, const CampaignCase& c,
                                  double seconds, int64_t campaigns);
/// net.* per-layer numbers from the telemetry recorded while `campaigns`
/// served campaigns ran (tracing on, for the queue-wait spans).
void net_attribution(int64_t campaigns, const RowStats& rows, Metrics& out);

}  // namespace perfbench

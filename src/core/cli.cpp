#include "core/cli.hpp"

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>

#include "core/campaign.hpp"
#include "core/dse.hpp"
#include "core/emulator.hpp"
#include "core/goldeneye.hpp"
#include "core/report.hpp"
#include "core/trace_merge.hpp"
#include "data/dataloader.hpp"
#include "formats/format_registry.hpp"
#include "io/campaign_state.hpp"
#include "io/model_io.hpp"
#include "models/model_factory.hpp"
#include "net/client.hpp"
#include "net/frame.hpp"
#include "net/server.hpp"
#include "net/session.hpp"
#include "nn/loss.hpp"
#include "obs/metrics_server.hpp"
#include "obs/perf_counters.hpp"
#include "obs/profiler.hpp"
#include "obs/run_log.hpp"
#include "obs/telemetry.hpp"
#include "parallel/thread_pool.hpp"
#include "tensor/arena.hpp"

namespace ge::core {

namespace {

/// Bad command-line input: message printed to stderr, exit code 2. Keeps
/// user errors distinct from internal failures (exit 1).
struct UsageError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

struct ParsedArgs {
  std::string command;
  std::map<std::string, std::string> options;
};

/// "--key value" pairs after the command word; returns nullopt on
/// malformed input (a --key without a value, or a stray positional).
std::optional<ParsedArgs> parse(const std::vector<std::string>& args) {
  if (args.empty()) return std::nullopt;
  ParsedArgs out;
  out.command = args[0];
  for (size_t i = 1; i < args.size(); ++i) {
    const std::string& a = args[i];
    if (a.rfind("--", 0) != 0 || a.size() <= 2) return std::nullopt;
    if (i + 1 >= args.size()) return std::nullopt;
    out.options[a.substr(2)] = args[++i];
  }
  return out;
}

std::string get(const ParsedArgs& p, const std::string& key,
                const std::string& fallback) {
  const auto it = p.options.find(key);
  return it != p.options.end() ? it->second : fallback;
}

/// Integer option with full-string validation: "--samples abc" and
/// "--samples 12x" are usage errors, not crashes or silent truncation.
int64_t get_int(const ParsedArgs& p, const std::string& key,
                int64_t fallback) {
  const auto it = p.options.find(key);
  if (it == p.options.end()) return fallback;
  const std::string& s = it->second;
  int64_t value = 0;
  const auto [ptr, ec] =
      std::from_chars(s.data(), s.data() + s.size(), value);
  if (ec != std::errc{} || ptr != s.data() + s.size()) {
    throw UsageError("invalid value '" + s + "' for --" + key +
                     " (expected an integer)");
  }
  return value;
}

/// As get_int for a 32-bit field: a value that does not fit is refused,
/// not wrapped (--burst-len 4294967297 would otherwise run as 1).
int32_t get_int32(const ParsedArgs& p, const std::string& key,
                  int32_t fallback) {
  const int64_t value = get_int(p, key, fallback);
  if (value < std::numeric_limits<int32_t>::min() ||
      value > std::numeric_limits<int32_t>::max()) {
    throw UsageError("invalid value '" + p.options.at(key) + "' for --" +
                     key + " (expected a 32-bit integer)");
  }
  return static_cast<int32_t>(value);
}

/// --samples for the commands that slice the synthetic test split: a value
/// the split cannot provide is a usage error, caught before any model is
/// prepared. `all_allowed` also accepts -1, the whole split.
int64_t get_samples(const ParsedArgs& p, int64_t fallback,
                    bool all_allowed = false) {
  const int64_t samples = get_int(p, "samples", fallback);
  if (all_allowed && samples == -1) return samples;
  const int64_t limit = data::SyntheticVisionConfig{}.test_count;
  if (samples < 1 || samples > limit) {
    throw UsageError(std::string("--samples must be ") +
                     (all_allowed ? "-1 (all) or " : "") + "in [1, " +
                     std::to_string(limit) + "]");
  }
  return samples;
}

/// As get_int for real-valued options (e.g. --threshold). NaN and the
/// infinities are refused too: every range check downstream compares, and
/// a NaN fails each comparison it should have tripped.
double get_num(const ParsedArgs& p, const std::string& key, double fallback) {
  const auto it = p.options.find(key);
  if (it == p.options.end()) return fallback;
  const std::string& s = it->second;
  char* end = nullptr;
  const double value = std::strtod(s.c_str(), &end);
  if (end == s.c_str() || *end != '\0' || !std::isfinite(value)) {
    throw UsageError("invalid value '" + s + "' for --" + key +
                     " (expected a finite number)");
  }
  return value;
}

// --- one table for dispatch, validation and usage() ------------------------
// Every command, option and help line lives here; usage() renders it, and
// option validation walks it, so the docs cannot drift from the code.

struct OptionDesc {
  const char* flag;   ///< option name without the leading "--"
  const char* value;  ///< value placeholder for the usage line
  const char* help;
};

struct CommandDesc {
  const char* name;
  const char* summary;
  std::vector<OptionDesc> options;
  bool model_command;  ///< accepts the common model/training options
};

const std::vector<OptionDesc>& common_options() {
  static const std::vector<OptionDesc> kCommon = {
      {"model", "M", "model name (mlp|simple_cnn|tiny_resnet|tiny_deit)"},
      {"cache", "DIR", "trained-weight cache directory"},
      {"epochs", "N", "training epochs when the cache is cold"},
      {"samples", "N", "evaluation samples"},
  };
  return kCommon;
}

/// The campaign spec flags, read by parse_campaign_spec. `campaign` and
/// `submit` both take this list.
const std::vector<OptionDesc>& campaign_spec_options() {
  static const std::vector<OptionDesc> kSpec = {
      {"model", "M", "model name (mlp|simple_cnn|tiny_resnet|tiny_deit)"},
      {"epochs", "N", "training epochs when the weight cache is cold"},
      {"samples", "N", "evaluation samples"},
      {"format", "F", "format spec (see 'formats')"},
      {"site", "S", "injection site: value|weight|metadata"},
      {"error-model", "E", "flip|sa0|sa1|ber|burst"},
      {"inject-scope", "S", "layer (classic single-element) | channel | "
                            "row: hit a whole activation channel/row"},
      {"ber", "X", "bit error rate in (0,1]: required for --error-model "
                   "ber, optional thinning for channel/row scopes"},
      {"burst-len", "N", "contiguous bits flipped by --error-model burst "
                         "(default 2)"},
      {"injections", "N", "injections per layer"},
      {"seed", "S", "campaign RNG seed"},
      {"prefix-cache", "on|off", "golden-prefix suffix-replay cache "
                                 "(default on; bitwise-identical results)"},
      {"sites-per-trial", "K", "faults per trial: 1 classic, >1 adds "
                               "companion faults at later layers"},
  };
  return kSpec;
}

/// `head` followed by `tail`, for commands that share an option list.
std::vector<OptionDesc> concat(std::vector<OptionDesc> head,
                               const std::vector<OptionDesc>& tail) {
  head.insert(head.end(), tail.begin(), tail.end());
  return head;
}

const std::vector<OptionDesc>& global_options() {
  static const std::vector<OptionDesc> kGlobal = {
      {"trace", "FILE", "write a Chrome trace_event JSON timeline"},
      {"report", "FILE", "write a JSONL structured run report"},
      {"metrics-port", "N", "serve Prometheus /metrics on 127.0.0.1:N "
                            "(0 = ephemeral port, printed to stderr)"},
      {"log-level", "N", "stderr verbosity: 0 silent, 1 progress, 2 debug"},
      {"threads", "N", "worker threads (overrides GE_NUM_THREADS)"},
  };
  return kGlobal;
}

const std::vector<CommandDesc>& command_table() {
  static const std::vector<CommandDesc> kCommands = {
      {"accuracy",
       "baseline vs format-emulated accuracy",
       {{"format", "F", "format spec or 'native'"}},
       true},
      {"campaign",
       "per-layer fault-injection campaign",
       concat(campaign_spec_options(),
              {{"cache", "DIR", "trained-weight cache directory"},
               {"checkpoint", "FILE", "progress .gec file (written "
                                      "atomically)"},
               {"checkpoint-every", "N", "checkpoint after every N trials "
                                         "(N >= 1)"},
               {"resume", "FILE", "continue from a progress .gec file"},
               {"shards", "N", "partition the trial space into N shards"},
               {"shard-index", "I", "which shard this process runs "
                                    "(0-based)"},
               {"abort-after", "N", "stop after N trials (fault-tolerance "
                                    "drill)"}}),
       false},
      {"train",
       "train (or load) a model; save/restore .gec checkpoints",
       {{"save", "FILE", "write the weights to a .gec model checkpoint"},
        {"load", "FILE", "load weights from a .gec instead of training"}},
       true},
      {"merge",
       "fold sharded campaign .gec files into one result",
       {{"inputs", "A,B,..", "comma-separated campaign .gec files"},
        {"output", "FILE", "write the merged progress as a .gec file"}},
       false},
      {"report",
       "render analytics tables from JSONL run reports",
       {{"inputs", "A,B,..", "comma-separated --report JSONL files "
                             "(shards of one campaign merge)"}},
       false},
      {"dse",
       "binary-tree design-space exploration",
       {{"family", "F", "format family: fp|fxp|int|bfp|afp|posit"},
        {"threshold", "X", "allowed accuracy drop vs baseline"}},
       true},
      {"profile",
       "self-profile an emulated forward pass (span attribution)",
       {{"format", "F", "format spec or 'native' (default native)"},
        {"iterations", "N", "timed forward passes (default 8)"},
        {"flame", "FILE", "write flamegraph collapsed stacks"},
        {"perf", "on|off", "hardware counters via perf_event_open "
                           "(default on; degrades gracefully)"}},
       true},
      {"serve",
       "multi-tenant campaign daemon (submit/worker clients connect)",
       {{"port", "N", "bind 127.0.0.1:N (0 = ephemeral, printed to stderr)"},
        {"cache", "DIR", "trained-weight cache directory"},
        {"checkpoint-dir", "DIR", "where drained campaigns checkpoint "
                                  "(campaign_<id>.gec)"},
        {"chunk", "N", "trials per worker lease (0 = auto: total/8)"},
        {"lease-timeout", "MS", "reclaim a lease not heartbeat within MS"},
        {"drain-timeout", "MS", "on SIGINT/SIGTERM checkpoint the active "
                                "campaign after MS (0 = drain fully)"},
        {"max-campaigns", "N", "exit after N campaigns (tests; 0 = forever)"},
        {"straggler-fraction", "X", "flag live leases below X x the fleet "
                                    "median throughput (0 = off; default 0.5)"}},
       false},
      {"submit",
       "send a campaign to a serve daemon; stream rows, print the summary",
       concat({{"host", "H", "server address (default 127.0.0.1)"},
               {"port", "N", "server port (required)"}},
              campaign_spec_options()),
       false},
      {"worker",
       "lease trial ranges from a serve daemon and execute them",
       {{"host", "H", "server address (default 127.0.0.1)"},
        {"port", "N", "server port (required)"},
        {"cache", "DIR", "trained-weight cache directory"},
        {"max-leases", "N", "exit 0 after N leases (0 = keep going)"},
        {"idle-timeout", "MS", "exit 0 after MS with no work (0 = wait)"},
        {"poll", "MS", "idle poll interval (default 200)"},
        {"drop-leases", "N", "fault drill: accept N grants, run none, "
                             "drop the connection"},
        {"stall-leases", "N", "fault drill: accept N grants, run none, "
                              "hang without heartbeating until shutdown"}},
       false},
      {"trace",
       "merge per-process --trace files into one cross-process timeline",
       {{"merge", "A,B,..", "comma-separated --trace JSON files (any order)"},
        {"out", "FILE", "write the merged Chrome trace_event JSON"},
        {"flame", "FILE", "write merged flamegraph collapsed stacks"}},
       false},
      {"range",
       "Table-I dynamic range of one format",
       {{"format", "F", "format spec"}},
       false},
      {"features", "Table-II feature matrix", {}, false},
      {"formats", "format spec grammar and aliases", {}, false},
  };
  return kCommands;
}

const CommandDesc* find_command(const std::string& name) {
  for (const auto& c : command_table()) {
    if (name == c.name) return &c;
  }
  return nullptr;
}

void render_option(std::ostream& err, const OptionDesc& o) {
  std::string flag = "--" + std::string(o.flag) + " " + o.value;
  err << "    " << std::left << std::setw(22) << flag << o.help << "\n";
}

int usage(std::ostream& err) {
  err << "usage: goldeneye <command> [--key value ...]\n";
  for (const auto& c : command_table()) {
    err << "  " << std::left << std::setw(10) << c.name << c.summary << "\n";
    for (const auto& o : c.options) render_option(err, o);
  }
  err << "common (model commands):\n";
  for (const auto& o : common_options()) render_option(err, o);
  err << "telemetry (all commands; GE_TRACE/GE_REPORT env fallbacks):\n";
  for (const auto& o : global_options()) render_option(err, o);
  return 2;
}

/// Reject options the command table does not list — the same table that
/// renders usage(), so an undocumented option cannot exist.
void validate_options(const CommandDesc& cmd, const ParsedArgs& p) {
  auto known = [&](const std::string& key) {
    for (const auto& o : cmd.options) {
      if (key == o.flag) return true;
    }
    if (cmd.model_command) {
      for (const auto& o : common_options()) {
        if (key == o.flag) return true;
      }
    }
    for (const auto& o : global_options()) {
      if (key == o.flag) return true;
    }
    return false;
  };
  for (const auto& [key, value] : p.options) {
    if (!known(key)) {
      throw UsageError("unknown option '--" + key + "' (see usage)");
    }
  }
}

std::string env_or(const char* name, const std::string& fallback) {
  const char* v = std::getenv(name);
  return v != nullptr ? v : fallback;
}

/// "A,B,C" -> {"A","B","C"}; empty segments are dropped.
std::vector<std::string> split_csv(const std::string& s) {
  std::vector<std::string> out;
  for (size_t pos = 0; pos <= s.size();) {
    const size_t comma = std::min(s.find(',', pos), s.size());
    if (comma > pos) out.push_back(s.substr(pos, comma - pos));
    pos = comma + 1;
  }
  return out;
}

/// --epochs for every command that may train a model on a cold cache. The
/// cache key holds no epoch count, so a model cached untrained would be
/// read silently by every later command: < 1 is a usage error, raised
/// before any model is built.
int64_t get_epochs(const ParsedArgs& p) {
  const int64_t epochs = get_int(p, "epochs", 6);
  if (epochs < 1) throw UsageError("--epochs must be >= 1");
  return epochs;
}

/// The --model network from the --cache weights (trained and cached on a
/// miss). Commands that only evaluate it pair it with a dataset of just the
/// test images they slice (data::eval_config).
std::unique_ptr<nn::Module> prepare_model(const ParsedArgs& p) {
  models::TrainConfig tc;
  tc.epochs = get_epochs(p);
  return models::load_or_train(get(p, "model", "simple_cnn"),
                               get(p, "cache", "/tmp/goldeneye_model_cache"),
                               tc);
}

/// The one reader of the campaign flags (campaign_spec_options()), for
/// `campaign` and `submit` alike. It keeps the rules only flags can
/// express: a --ber or --burst-len that the error model ignores, and a
/// spatial --inject-scope combined with another --error-model. Every value
/// rule is net::campaign_spec_reason's, raised here as a usage error, so a
/// bad spec exits 2 before any connection or model load.
net::CampaignSpecMsg parse_campaign_spec(const ParsedArgs& p) {
  // The index of `word` in a CLI word table, or -1.
  const auto code_of = [](const auto& words, const std::string& word) {
    const auto it = std::find(words.begin(), words.end(), word);
    return it == words.end() ? -1 : static_cast<int>(it - words.begin());
  };
  net::CampaignSpecMsg spec;
  spec.model_name = get(p, "model", "simple_cnn");
  spec.epochs = get_epochs(p);
  spec.samples = get_int(p, "samples", 16);
  spec.format_spec = get(p, "format", "");
  const std::string site = get(p, "site", "value");
  const int site_code = code_of(net::kSiteWords, site);
  if (site_code < 0) throw UsageError("unknown --site '" + site + "'");
  // --error-model names the single-element models; the spatial ones are
  // --inject-scope's.
  const std::string em = get(p, "error-model", "flip");
  int model_code = code_of(net::kErrorModelWords, em);
  if (model_code < 0 || model_code > static_cast<int>(ErrorModel::kBurst)) {
    throw UsageError("unknown --error-model '" + em + "'");
  }
  const std::string scope = get(p, "inject-scope", "layer");
  if (scope == "channel" || scope == "row") {
    if (em != "flip") {
      throw UsageError("--inject-scope " + scope +
                       " selects its own error model; drop --error-model");
    }
    model_code = static_cast<int>(scope == "channel" ? ErrorModel::kChannel
                                                     : ErrorModel::kRowBurst);
  } else if (scope != "layer") {
    throw UsageError("unknown --inject-scope '" + scope + "'");
  }
  const auto model = static_cast<ErrorModel>(model_code);
  if (p.options.count("ber") != 0 && model != ErrorModel::kBerUniform &&
      model != ErrorModel::kChannel && model != ErrorModel::kRowBurst) {
    throw UsageError("--ber applies only to --error-model ber or "
                     "--inject-scope channel|row");
  }
  if (p.options.count("burst-len") != 0 && model != ErrorModel::kBurst) {
    throw UsageError("--burst-len applies only to --error-model burst");
  }
  spec.site = static_cast<uint8_t>(site_code);
  spec.error_model = static_cast<uint8_t>(model_code);
  spec.ber = get_num(p, "ber", 0.0);
  spec.burst_len = get_int32(p, "burst-len", 2);
  spec.injections_per_layer = get_int(p, "injections", 50);
  spec.seed = static_cast<uint64_t>(get_int(p, "seed", 1234));
  const std::string prefix_cache = get(p, "prefix-cache", "on");
  if (prefix_cache != "on" && prefix_cache != "off") {
    throw UsageError("--prefix-cache must be 'on' or 'off'");
  }
  spec.prefix_cache = prefix_cache == "on" ? 1 : 0;
  spec.sites_per_trial = get_int32(p, "sites-per-trial", 1);
  if (const std::string why = net::campaign_spec_reason(spec); !why.empty()) {
    throw UsageError(why);
  }
  return spec;
}

/// Standard first report row: what ran, with what inputs, on how many
/// threads — enough to reproduce the run.
void write_run_header(obs::RunLog* log, const ParsedArgs& p,
                      const std::string& format_or_family, int64_t samples,
                      bool resumed = false) {
  if (log == nullptr) return;
  obs::JsonObject row;
  row.str("command", p.command)
      .str("model", get(p, "model", "simple_cnn"))
      .str("format", format_or_family)
      .num("seed", get_int(p, "seed", 1234))
      .num("threads", static_cast<int64_t>(parallel::num_threads()))
      .num("samples", samples);
  // Only resumed runs carry the marker, so pre-v2 report consumers (and
  // fresh-run byte layouts) are unchanged.
  if (resumed) row.boolean("resumed", true);
  log->event("run_header", row);
}

int cmd_accuracy(const ParsedArgs& p, std::ostream& out, std::ostream& err,
                 obs::RunLog* log) {
  const std::string spec = get(p, "format", "");
  if (spec != "native" && !fmt::is_valid_spec(spec)) {
    err << "accuracy: bad or missing --format '" << spec << "'\n";
    return 2;
  }
  const int64_t samples = get_samples(p, 256, /*all_allowed=*/true);
  write_run_header(log, p, spec, samples);
  const auto model = prepare_model(p);
  const data::SyntheticVision data{data::eval_config(samples)};
  GoldenEye eye(*model, data);
  const float baseline = eye.baseline_accuracy(samples);
  const float accuracy = eye.format_accuracy(spec, samples);
  out << "model:    " << get(p, "model", "simple_cnn") << "\n"
      << "baseline: " << baseline << "\n"
      << "format:   " << spec << "\n"
      << "accuracy: " << accuracy << "\n";
  if (log != nullptr) {
    obs::JsonObject row;
    row.str("format", spec)
        .num("baseline", static_cast<double>(baseline))
        .num("accuracy", static_cast<double>(accuracy))
        .num("samples", samples);
    log->event("accuracy_result", row);
  }
  return 0;
}

int cmd_campaign(const ParsedArgs& p, std::ostream& out, obs::RunLog* log) {
  const net::CampaignSpecMsg spec = parse_campaign_spec(p);

  // Persistence / sharding options (DESIGN.md §9). All misuse is a
  // UsageError so scripts can rely on exit 2 for their own mistakes.
  CampaignRunOptions ropts;
  ropts.shards = static_cast<int>(get_int(p, "shards", 1));
  ropts.shard_index = static_cast<int>(get_int(p, "shard-index", 0));
  if (ropts.shards < 1) {
    throw UsageError("--shards must be >= 1");
  }
  if (ropts.shard_index < 0 || ropts.shard_index >= ropts.shards) {
    throw UsageError("--shard-index must be in [0, --shards)");
  }
  ropts.checkpoint_path = get(p, "checkpoint", "");
  if (p.options.count("checkpoint-every") != 0) {
    ropts.checkpoint_every = get_int(p, "checkpoint-every", 0);
    if (ropts.checkpoint_every < 1) {
      throw UsageError("--checkpoint-every must be >= 1");
    }
    if (ropts.checkpoint_path.empty()) {
      throw UsageError("--checkpoint-every requires --checkpoint FILE");
    }
  }
  ropts.abort_after = get_int(p, "abort-after", 0);
  if (ropts.abort_after < 0) {
    throw UsageError("--abort-after must be >= 0");
  }
  if (ropts.abort_after > 0 && ropts.checkpoint_path.empty()) {
    throw UsageError("--abort-after requires --checkpoint FILE");
  }
  if (ropts.shards > 1 && ropts.checkpoint_path.empty()) {
    throw UsageError(
        "--shards > 1 requires --checkpoint FILE (shard results are "
        "merged from their .gec files)");
  }
  write_run_header(log, p, spec.format_spec, spec.samples,
                   p.options.count("resume") != 0);

  // The campaign the server's executor and every worker would build.
  const net::PreparedCampaign prep = net::prepare_campaign(
      spec, get(p, "cache", "/tmp/goldeneye_model_cache"));
  ropts.model_name = spec.model_name;
  ropts.eval_samples = spec.samples;
  ropts.run_log = log;  // per-trial "trial" + "heartbeat" records
  // Loading the resume file can throw io::IoError (missing, corrupt,
  // wrong campaign) — run_cli maps that to exit 2.
  std::optional<CampaignProgress> resumed;
  const std::string resume_path = get(p, "resume", "");
  if (!resume_path.empty()) {
    resumed = io::load_campaign_progress(resume_path);
    ropts.resume_from = &*resumed;
  }

  const CampaignProgress prog = prep.session->run(ropts);
  if (!ropts.checkpoint_path.empty()) {
    io::save_campaign_progress(ropts.checkpoint_path, prog);
  }
  if (!prog.complete()) {
    // A shard (or an aborted drill): no statistics yet — they only exist
    // once every shard's trials are merged.
    out << "campaign progress: " << prog.completed_trials() << "/"
        << prog.total_trials() << " trials";
    if (ropts.shards > 1) {
      out << " (shard " << ropts.shard_index << " of " << ropts.shards << ")";
    }
    out << "\n";
    out << "progress saved: " << ropts.checkpoint_path << "\n";
    if (log != nullptr) {
      obs::JsonObject row;
      row.str("format", spec.format_spec)
          .num("completed_trials", prog.completed_trials())
          .num("total_trials", prog.total_trials())
          .num("shards", static_cast<int64_t>(ropts.shards))
          .num("shard_index", static_cast<int64_t>(ropts.shard_index));
      log->event("campaign_progress", row);
    }
    return 0;
  }
  const CampaignResult r = finalize_campaign(prog);
  out << net::render_campaign_summary(spec, r);
  if (log != nullptr) {
    for (const auto& l : r.layers) {
      obs::JsonObject row;
      row.str("layer", l.layer)
          .num("injections", l.injections)
          .num("sdc", l.sdc_count)
          .num("mean_delta_loss", l.mean_delta_loss)
          .num("max_delta_loss", l.max_delta_loss)
          .num("ci95_delta_loss", l.ci95_delta_loss)
          .num("mean_mismatch_rate", l.mean_mismatch_rate);
      log->event("campaign_layer", row);
    }
    obs::JsonObject row;
    row.str("format", spec.format_spec)
        .str("site", net::kSiteWords[spec.site])
        .str("error_model", net::kErrorModelWords[spec.error_model])
        .num("golden_accuracy", static_cast<double>(r.golden_accuracy))
        .num("network_mean_delta_loss", r.network_mean_delta_loss());
    log->event("campaign_summary", row);
  }
  return 0;
}

/// FNV-1a over raw logit bytes: the cross-process witness that a loaded
/// model evaluates bitwise-identically to the one that was saved.
uint64_t eval_digest(const Tensor& logits) {
  return fnv1a(kFnv1aBasis, logits.data(),
               static_cast<size_t>(logits.numel()) * sizeof(float));
}

int cmd_train(const ParsedArgs& p, std::ostream& out, std::ostream& err,
              obs::RunLog* log) {
  const std::string save_path = get(p, "save", "");
  const std::string load_path = get(p, "load", "");
  models::TrainConfig tc;
  tc.epochs = get_epochs(p);
  const int64_t samples = get_samples(p, 256);
  std::string model_name = get(p, "model", "simple_cnn");
  write_run_header(log, p, "native", samples);
  data::SyntheticVision data{data::SyntheticVisionConfig{}};

  std::unique_ptr<nn::Module> model;
  if (!load_path.empty()) {
    // The checkpoint names its own architecture; an explicit --model must
    // agree (load_model would reject the graft anyway, but say it plainly).
    const io::ModelMeta meta = io::read_model_meta(load_path);
    if (p.options.count("model") != 0 && model_name != meta.model_name) {
      err << "train: checkpoint '" << load_path << "' holds a '"
          << meta.model_name << "', not a '" << model_name << "'\n";
      return 2;
    }
    model_name = meta.model_name;
    model = models::make_model(model_name, data::SyntheticVisionConfig{}, 0);
    io::load_model(load_path, *model);
    out << "loaded: " << load_path << " (" << model_name << ", "
        << meta.parameter_count << " parameters)\n";
  } else {
    auto tm = models::ensure_trained(
        model_name, data, get(p, "cache", "/tmp/goldeneye_model_cache"), tc);
    model = std::move(tm.model);
    out << "trained: " << model_name << " (test accuracy "
        << tm.test_accuracy << ")\n";
  }

  model->eval();
  const auto batch = data::take(data.test(), 0, samples);
  const Tensor logits = (*model)(batch.images);
  const float acc = nn::accuracy(logits, batch.labels);
  const uint64_t digest = eval_digest(logits);
  out << "eval accuracy: " << acc << "\n";
  out << "eval digest: 0x" << std::hex << digest << std::dec << "\n";
  if (!save_path.empty()) {
    io::save_model(save_path, *model, model_name);
    out << "saved: " << save_path << "\n";
  }
  if (log != nullptr) {
    obs::JsonObject row;
    row.str("model", model_name)
        .num("eval_accuracy", static_cast<double>(acc))
        .num("samples", samples)
        .boolean("loaded", !load_path.empty())
        .boolean("saved", !save_path.empty());
    log->event("train_result", row);
  }
  return 0;
}

int cmd_merge(const ParsedArgs& p, std::ostream& out, std::ostream& err,
              obs::RunLog* log) {
  const std::string inputs = get(p, "inputs", "");
  if (inputs.empty()) {
    throw UsageError("--inputs A.gec,B.gec,... is required");
  }
  const std::vector<std::string> paths = split_csv(inputs);
  if (paths.empty()) {
    throw UsageError("--inputs names no files");
  }
  std::vector<CampaignProgress> parts;
  parts.reserve(paths.size());
  for (const std::string& path : paths) {
    parts.push_back(io::load_campaign_progress(path));
  }
  const CampaignProgress merged = merge_campaign_progress(parts);
  const std::string output = get(p, "output", "");
  if (!output.empty()) {
    io::save_campaign_progress(output, merged);
    out << "merged " << parts.size() << " file(s) -> " << output << "\n";
  }
  if (!merged.complete()) {
    err << "merge: merged progress is incomplete ("
        << merged.completed_trials() << "/" << merged.total_trials()
        << " trials; a shard file is missing)\n";
    // Written --output (if any) is still a valid partial state others can
    // resume or re-merge; the missing statistics make this a failure.
    return output.empty() ? 2 : 0;
  }
  const CampaignResult r = finalize_campaign(merged);
  out << "campaign: " << merged.format_spec
      << " injections/layer=" << merged.injections_per_layer << "\n";
  out << "clean emulated accuracy: " << r.golden_accuracy << "\n";
  out << "network mean dLoss: " << r.network_mean_delta_loss() << "\n";
  out << "campaign digest: 0x" << std::hex << campaign_digest(r) << std::dec
      << "\n";
  if (log != nullptr) {
    obs::JsonObject row;
    row.str("format", merged.format_spec)
        .num("inputs", static_cast<int64_t>(parts.size()))
        .num("golden_accuracy", static_cast<double>(r.golden_accuracy))
        .num("network_mean_delta_loss", r.network_mean_delta_loss());
    log->event("merge_summary", row);
  }
  return 0;
}

int cmd_report(const ParsedArgs& p, std::ostream& out, std::ostream& err) {
  const std::string inputs = get(p, "inputs", "");
  if (inputs.empty()) {
    throw UsageError("--inputs A.jsonl,B.jsonl,... is required");
  }
  const std::vector<std::string> paths = split_csv(inputs);
  if (paths.empty()) {
    throw UsageError("--inputs names no files");
  }
  // Unreadable files / mismatched headers are io::IoError — bad input,
  // exit 2 via run_cli, same class as a bad .gec file. A log with zero
  // trial rows renders an explicit "no trials" note and exits 0.
  render_campaign_report(paths, out, err);
  return 0;
}

int cmd_dse(const ParsedArgs& p, std::ostream& out, std::ostream& err,
            obs::RunLog* log) {
  DseConfig cfg;
  cfg.family = get(p, "family", "fp");
  cfg.accuracy_drop_threshold =
      static_cast<float>(get_num(p, "threshold", 0.01));
  const int64_t samples = get_samples(p, 256);
  write_run_header(log, p, cfg.family, samples);
  const auto model = prepare_model(p);
  const data::SyntheticVision data{data::eval_config(samples)};
  const auto batch = data::take(data.test(), 0, samples);
  DseResult r;
  try {
    r = run_dse(*model, batch, cfg);
  } catch (const std::invalid_argument& e) {
    err << "dse: " << e.what() << "\n";
    return 2;
  }
  out << "baseline accuracy: " << r.baseline_accuracy << "\n";
  for (const auto& n : r.nodes) {
    out << "node " << n.id << " " << n.spec << " acc=" << n.accuracy << " "
        << (n.pass ? "PASS" : "fail") << "\n";
    if (log != nullptr) {
      obs::JsonObject row;
      row.num("id", static_cast<int64_t>(n.id))
          .str("spec", n.spec)
          .num("bitwidth", static_cast<int64_t>(n.bitwidth))
          .str("phase", n.phase)
          .num("accuracy", static_cast<double>(n.accuracy))
          .boolean("pass", n.pass);
      log->event("dse_node", row);
    }
  }
  if (r.best_spec.empty()) {
    out << "no configuration met the threshold\n";
  } else {
    out << "selected: " << r.best_spec << " (" << r.best_bitwidth
        << " bits, acc " << r.best_accuracy << ")\n";
  }
  if (log != nullptr) {
    obs::JsonObject row;
    row.str("family", cfg.family)
        .num("baseline_accuracy", static_cast<double>(r.baseline_accuracy))
        .str("best_spec", r.best_spec)
        .num("best_bitwidth", static_cast<int64_t>(r.best_bitwidth))
        .num("best_accuracy", static_cast<double>(r.best_accuracy))
        .num("nodes", static_cast<int64_t>(r.nodes.size()));
    log->event("dse_summary", row);
  }
  return 0;
}

/// Human-readable byte count for the watermark section.
std::string fmt_bytes(uint64_t b) {
  char buf[64];
  if (b >= 1024ull * 1024ull) {
    std::snprintf(buf, sizeof(buf), "%.1f MiB",
                  static_cast<double>(b) / (1024.0 * 1024.0));
  } else if (b >= 1024ull) {
    std::snprintf(buf, sizeof(buf), "%.1f KiB", static_cast<double>(b) / 1024.0);
  } else {
    std::snprintf(buf, sizeof(buf), "%llu B", static_cast<unsigned long long>(b));
  }
  return buf;
}

int cmd_profile(const ParsedArgs& p, std::ostream& out, std::ostream& err,
                obs::RunLog* log) {
  const std::string spec = get(p, "format", "native");
  if (spec != "native" && !fmt::is_valid_spec(spec)) {
    err << "profile: bad --format '" << spec << "'\n";
    return 2;
  }
  const int64_t iterations = get_int(p, "iterations", 8);
  if (iterations < 1) {
    throw UsageError("--iterations must be >= 1");
  }
  const std::string perf_opt = get(p, "perf", "on");
  if (perf_opt != "on" && perf_opt != "off") {
    throw UsageError("--perf must be 'on' or 'off'");
  }
  // Restore the process-wide default on exit: other commands profile too
  // (whenever metrics are on), and must not inherit a stale opt-out.
  struct PerfToggle {
    explicit PerfToggle(bool on) { obs::perf::set_enabled(on); }
    ~PerfToggle() { obs::perf::set_enabled(true); }
  } perf_toggle(perf_opt == "on");
  const int64_t samples = get_samples(p, 64);
  write_run_header(log, p, spec, samples);

  const auto model = prepare_model(p);
  model->eval();
  const data::SyntheticVision data{data::eval_config(samples)};
  const auto batch = data::take(data.test(), 0, samples);

  std::optional<Emulator> emu;
  if (spec != "native") {
    EmulatorConfig cfg;
    cfg.format_spec = spec;
    emu.emplace(*model, cfg);
  }

  // Warmup pass: trains the arena freelists and faults pages in so the
  // timed loop measures steady state; the reset below discards its spans
  // (and the model-preparation ones) from the attribution.
  (void)(*model)(batch.images);
  obs::reset_all();
  arena::reset_peak_live_bytes();

  const auto t0 = std::chrono::steady_clock::now();
  for (int64_t i = 0; i < iterations; ++i) {
    obs::AttrScope attr(spec, "");
    obs::Span span("profile", "forward");
    (void)(*model)(batch.images);
  }
  const double wall_ns = std::chrono::duration<double, std::nano>(
                             std::chrono::steady_clock::now() - t0)
                             .count();

  const std::vector<obs::SpanStats> stats = obs::profile_snapshot();
  // The root "profile/forward" span brackets each iteration's work on the
  // calling thread, so its total over the loop is the wall time the
  // profiler can attribute; everything beneath partitions it as self time.
  uint64_t root_total_ns = 0;
  uint64_t sum_self_ns = 0;
  for (const auto& s : stats) {
    sum_self_ns += s.self_ns;
    if (s.category == "profile" && s.name == "forward") {
      root_total_ns += s.total_ns;
    }
  }
  const double attributed_pct =
      wall_ns > 0.0 ? 100.0 * static_cast<double>(root_total_ns) / wall_ns
                    : 0.0;

  char buf[256];
  out << "profile: " << get(p, "model", "simple_cnn") << " format=" << spec
      << " iterations=" << iterations << " samples=" << samples
      << " threads=" << parallel::num_threads() << "\n";
  std::snprintf(buf, sizeof(buf),
                "wall: %.3f ms (%.3f ms/iteration)\n"
                "attributed: %.3f ms in root spans (%.1f%% of wall)\n\n",
                wall_ns * 1e-6,
                wall_ns * 1e-6 / static_cast<double>(iterations),
                static_cast<double>(root_total_ns) * 1e-6, attributed_pct);
  out << buf;

  out << "span attribution (self time, all threads)\n";
  std::snprintf(buf, sizeof(buf), "%-9s %-22s %-14s %-14s %7s %10s %6s %10s %9s %9s\n",
                "category", "span", "format", "layer", "count", "self ms",
                "self%", "total ms", "p50 us", "p99 us");
  out << buf;
  for (const auto& s : stats) {
    const double self_pct =
        sum_self_ns > 0 ? 100.0 * static_cast<double>(s.self_ns) /
                              static_cast<double>(sum_self_ns)
                        : 0.0;
    std::snprintf(buf, sizeof(buf),
                  "%-9s %-22s %-14s %-14s %7llu %10.3f %5.1f%% %10.3f %9.1f %9.1f\n",
                  s.category.c_str(), s.name.c_str(), s.format.c_str(),
                  s.layer.c_str(), static_cast<unsigned long long>(s.count),
                  static_cast<double>(s.self_ns) * 1e-6, self_pct,
                  static_cast<double>(s.total_ns) * 1e-6, s.p50_us, s.p99_us);
    out << buf;
  }
  out << "\n";

  out << "hardware counters (perf_event_open): "
      << obs::perf::availability_note() << "\n";
  if (obs::perf::available()) {
    std::snprintf(buf, sizeof(buf), "%-9s %-22s %8s %14s %14s %6s %12s\n",
                  "category", "span", "samples", "cycles", "instructions",
                  "IPC", "cache-miss");
    out << buf;
    for (const auto& s : stats) {
      if (s.perf_samples == 0) continue;
      const double ipc = s.cycles > 0 ? static_cast<double>(s.instructions) /
                                            static_cast<double>(s.cycles)
                                      : 0.0;
      std::snprintf(buf, sizeof(buf),
                    "%-9s %-22s %8llu %14llu %14llu %6.2f %12llu\n",
                    s.category.c_str(), s.name.c_str(),
                    static_cast<unsigned long long>(s.perf_samples),
                    static_cast<unsigned long long>(s.cycles),
                    static_cast<unsigned long long>(s.instructions), ipc,
                    static_cast<unsigned long long>(s.cache_misses));
      out << buf;
    }
  }
  out << "\n";

  const obs::MemoryWatermarks mem = obs::sample_memory();
  out << "memory watermarks\n"
      << "  rss:          " << fmt_bytes(mem.rss_bytes)
      << "  (peak " << fmt_bytes(mem.peak_rss_bytes) << ")\n"
      << "  arena live:   " << fmt_bytes(mem.arena_live_bytes)
      << "  (peak " << fmt_bytes(mem.arena_peak_bytes) << ")\n"
      << "  cow copies:   " << fmt_bytes(mem.cow_bytes) << "\n"
      << "  prefix cache: " << fmt_bytes(mem.prefix_cache_bytes) << "\n";

  const std::string flame_path = get(p, "flame", "");
  if (!flame_path.empty()) {
    // run_cli turned tracing on for --flame, so the timed loop's spans are
    // in the trace buffers; fold them into collapsed stacks.
    std::ofstream f(flame_path, std::ios::trunc);
    if (f) f << obs::collapsed_stacks(obs::collect_trace());
    if (!f) {
      err << "profile: cannot write --flame file '" << flame_path << "'\n";
      return 1;
    }
    out << "flamegraph stacks: " << flame_path
        << " (flamegraph.pl or speedscope)\n";
  }

  if (log != nullptr) {
    obs::JsonObject row;
    row.str("format", spec)
        .num("iterations", iterations)
        .num("samples", samples)
        .num("wall_ms", wall_ns * 1e-6)
        .num("attributed_pct", attributed_pct)
        .num("rss_bytes", mem.rss_bytes)
        .num("arena_peak_bytes", mem.arena_peak_bytes)
        .boolean("perf_available", obs::perf::available());
    log->event("profile_summary", row);
  }
  return 0;
}

int cmd_range(const ParsedArgs& p, std::ostream& out, std::ostream& err,
              obs::RunLog* log) {
  const std::string spec = get(p, "format", "");
  if (!fmt::is_valid_spec(spec)) {
    err << "range: bad or missing --format\n";
    return 2;
  }
  const auto row = dynamic_range_row(spec, spec);
  out << "format:  " << row.label << "\n"
      << "abs max: " << row.abs_max << "\n"
      << "abs min: " << row.abs_min << "\n"
      << "range:   " << row.range_db << " dB\n";
  if (log != nullptr) {
    obs::JsonObject jrow;
    jrow.str("format", spec)
        .num("abs_max", row.abs_max)
        .num("abs_min", row.abs_min)
        .num("range_db", row.range_db);
    log->event("range_row", jrow);
  }
  return 0;
}

int cmd_features(std::ostream& out) {
  for (const auto& f : table2_features()) {
    out << (f.goldeneye ? "[x] " : "[ ] ") << f.feature << "\n";
  }
  return 0;
}

int cmd_formats(std::ostream& out) {
  out << "spec grammar:\n"
         "  fp_e<E>m<M>[_nodn][_sat]   parameterised float\n"
         "  fxp_1_<I>_<F>              fixed point\n"
         "  int<N>                     symmetric integer quantisation\n"
         "  bfp_e<E>m<M>_b<B|tensor>   block floating point\n"
         "  afp_e<E>m<M>[_dn]          AdaptivFloat\n"
         "  posit_<N>_<ES>             posit\n"
         "aliases:";
  for (const auto& a : fmt::known_aliases()) out << " " << a;
  out << "\n";
  return 0;
}

// --- service layer (serve / submit / worker) -------------------------------

/// Validated TCP port. `required` distinguishes clients (must name their
/// server) from the daemon (0 = ephemeral is the test-friendly default).
int parse_port(const ParsedArgs& p, bool required) {
  if (required && p.options.count("port") == 0) {
    throw UsageError("--port is required (the serve daemon's port)");
  }
  const int64_t port = get_int(p, "port", 0);
  if (port < (required ? 1 : 0) || port > 65535) {
    throw UsageError("--port must be in [" +
                     std::string(required ? "1" : "0") + ", 65535]");
  }
  return static_cast<int>(port);
}

int cmd_serve(const ParsedArgs& p, std::ostream& err, obs::RunLog* log) {
  net::ServeOptions so;
  so.port = parse_port(p, /*required=*/false);
  so.cache_dir = get(p, "cache", "/tmp/goldeneye_model_cache");
  so.checkpoint_dir = get(p, "checkpoint-dir", "/tmp");
  so.lease_chunk = get_int(p, "chunk", 0);
  if (so.lease_chunk < 0) {
    throw UsageError("--chunk must be >= 0 (0 = auto)");
  }
  so.lease_timeout_ms = static_cast<int>(get_int(p, "lease-timeout", 5000));
  if (so.lease_timeout_ms < 1) {
    throw UsageError("--lease-timeout must be >= 1 ms");
  }
  so.drain_timeout_ms = static_cast<int>(get_int(p, "drain-timeout", 0));
  if (so.drain_timeout_ms < 0) {
    throw UsageError("--drain-timeout must be >= 0 (0 = drain fully)");
  }
  so.max_campaigns = get_int(p, "max-campaigns", 0);
  if (so.max_campaigns < 0) {
    throw UsageError("--max-campaigns must be >= 0 (0 = forever)");
  }
  so.straggler_fraction = get_num(p, "straggler-fraction", 0.5);
  if (so.straggler_fraction > 1.0) {
    throw UsageError("--straggler-fraction must be <= 1 (a lease at the "
                     "median is not a straggler)");
  }
  return net::run_serve(so, log, err);
}

int cmd_submit(const ParsedArgs& p, std::ostream& out, std::ostream& err,
               obs::RunLog* log) {
  net::SubmitOptions so;
  so.host = get(p, "host", "127.0.0.1");
  so.port = parse_port(p, /*required=*/true);
  so.spec = parse_campaign_spec(p);
  write_run_header(log, p, so.spec.format_spec, so.spec.samples);
  return net::run_submit(so, log, out, err);
}

int cmd_worker(const ParsedArgs& p, std::ostream& out, std::ostream& err) {
  net::WorkerOptions wo;
  wo.host = get(p, "host", "127.0.0.1");
  wo.port = parse_port(p, /*required=*/true);
  wo.cache_dir = get(p, "cache", "/tmp/goldeneye_model_cache");
  wo.max_leases = get_int(p, "max-leases", 0);
  if (wo.max_leases < 0) {
    throw UsageError("--max-leases must be >= 0 (0 = keep going)");
  }
  wo.drop_leases = get_int(p, "drop-leases", 0);
  if (wo.drop_leases < 0) {
    throw UsageError("--drop-leases must be >= 0");
  }
  wo.stall_leases = get_int(p, "stall-leases", 0);
  if (wo.stall_leases < 0) {
    throw UsageError("--stall-leases must be >= 0");
  }
  wo.idle_timeout_ms = static_cast<int>(get_int(p, "idle-timeout", 0));
  if (wo.idle_timeout_ms < 0) {
    throw UsageError("--idle-timeout must be >= 0 (0 = wait forever)");
  }
  wo.poll_ms = static_cast<int>(get_int(p, "poll", 200));
  if (wo.poll_ms < 1) {
    throw UsageError("--poll must be >= 1 ms");
  }
  return net::run_worker(wo, out, err);
}

int cmd_trace(const ParsedArgs& p, std::ostream& out, std::ostream& err) {
  const std::string inputs = get(p, "merge", "");
  if (inputs.empty()) {
    throw UsageError("--merge A.json,B.json,... is required");
  }
  const std::vector<std::string> paths = split_csv(inputs);
  if (paths.empty()) {
    throw UsageError("--merge names no files");
  }
  TraceMergeResult r;
  try {
    r = merge_trace_files(paths);
  } catch (const std::runtime_error& e) {
    // Unreadable or non-trace inputs are bad *input*, same exit class as a
    // bad .gec file.
    err << e.what() << "\n";
    return 2;
  }
  out << "merged " << r.processes.size() << " process(es), " << r.event_count
      << " event(s), " << r.trace_count << " trace(s)\n";
  for (size_t i = 0; i < r.processes.size(); ++i) {
    out << "  pid " << i + 1 << "  " << r.processes[i].label << "  ("
        << r.processes[i].event_count << " events)\n";
  }
  out << r.attribution;
  const std::string out_path = get(p, "out", "");
  if (!out_path.empty()) {
    std::ofstream f(out_path, std::ios::trunc);
    if (f) f << r.chrome_json << '\n';
    if (!f) {
      err << "trace: cannot write --out file '" << out_path << "'\n";
      return 1;
    }
    out << "merged trace: " << out_path << "\n";
  }
  const std::string flame_path = get(p, "flame", "");
  if (!flame_path.empty()) {
    std::ofstream f(flame_path, std::ios::trunc);
    if (f) f << r.collapsed;
    if (!f) {
      err << "trace: cannot write --flame file '" << flame_path << "'\n";
      return 1;
    }
    out << "flamegraph stacks: " << flame_path << "\n";
  }
  return 0;
}

/// Restores the global log level when a CLI invocation ends (run_cli is
/// re-entrant in tests; telemetry flags get the same treatment from
/// obs::TelemetryScope).
struct LogLevelGuard {
  int saved = obs::log_level();
  ~LogLevelGuard() { obs::set_log_level(saved); }
};

/// Restores the pool worker count likewise: --threads is per-invocation
/// state, not a process-wide setting an embedding caller has to undo.
struct ThreadCountGuard {
  int saved = parallel::num_threads();
  ~ThreadCountGuard() { parallel::set_num_threads(saved); }
};

}  // namespace

int run_cli(const std::vector<std::string>& args, std::ostream& out,
            std::ostream& err) {
  const auto parsed = parse(args);
  if (!parsed) return usage(err);
  const CommandDesc* cmd = find_command(parsed->command);
  if (cmd == nullptr) {
    err << "unknown command '" << parsed->command << "'\n";
    return usage(err);
  }
  try {
    validate_options(*cmd, *parsed);

    // Telemetry wiring: flags win, GE_TRACE/GE_REPORT env fall back, and
    // everything is restored on return so embedding callers (and tests)
    // see no global-state leakage.
    const std::string trace_path = get(*parsed, "trace", env_or("GE_TRACE", ""));
    const std::string report_path =
        get(*parsed, "report", env_or("GE_REPORT", ""));
    LogLevelGuard log_guard;
    obs::set_log_level(static_cast<int>(get_int(*parsed, "log-level", 0)));
    ThreadCountGuard thread_guard;
    if (parsed->options.count("threads") != 0) {
      const int64_t threads = get_int(*parsed, "threads", 0);
      if (threads < 1 || threads > 256) {
        throw UsageError("invalid value '" + parsed->options.at("threads") +
                         "' for --threads (expected an integer in [1, 256])");
      }
      parallel::set_num_threads(static_cast<int>(threads));
    }
    int64_t metrics_port = -1;
    if (parsed->options.count("metrics-port") != 0) {
      metrics_port = get_int(*parsed, "metrics-port", 0);
      if (metrics_port < 0 || metrics_port > 65535) {
        throw UsageError("--metrics-port must be in [0, 65535] (0 = "
                         "ephemeral)");
      }
    }
    // `profile` needs the trace buffers for its --flame export, and the
    // aggregator is on whenever metrics are: every --report run gets
    // span_stat rows, and /metrics grows the ge_span_* series for free.
    const bool profile_cmd = parsed->command == "profile";
    const bool flame = profile_cmd && parsed->options.count("flame") != 0;
    const bool tracing = !trace_path.empty() || flame;
    const bool metrics =
        tracing || !report_path.empty() || metrics_port >= 0 || profile_cmd;
    obs::TelemetryScope scope(tracing, metrics);
    obs::ProfilingScope pscope(metrics);
    if (metrics) obs::reset_all();
    // The trace file's metadata names this process by its command, so a
    // `trace --merge` of submit/serve/worker files labels each timeline row.
    if (tracing) obs::set_trace_process_label(parsed->command);

    // The /metrics endpoint lives for the whole invocation: it reads the
    // same counters/gauges/histograms the report snapshot does, so a
    // long campaign can be watched live with curl or Prometheus.
    std::unique_ptr<obs::MetricsServer> server;
    if (metrics_port >= 0) {
      server =
          std::make_unique<obs::MetricsServer>(static_cast<int>(metrics_port));
      if (!server->ok()) {
        err << parsed->command << ": cannot serve --metrics-port "
            << metrics_port << ": " << server->last_error() << "\n";
        return 2;
      }
      err << "[ge] metrics: http://127.0.0.1:" << server->port()
          << "/metrics\n";
    }

    std::unique_ptr<obs::RunLog> log;
    if (!report_path.empty()) {
      // A resumed campaign continues its report stream instead of
      // clobbering the rows the interrupted run already paid for.
      const bool append = parsed->command == "campaign" &&
                          parsed->options.count("resume") != 0;
      log = std::make_unique<obs::RunLog>(
          report_path, append ? obs::RunLog::OpenMode::kAppend
                              : obs::RunLog::OpenMode::kTruncate);
      if (!log->ok()) {
        err << parsed->command << ": cannot open --report file '"
            << report_path << "'\n";
        return 2;
      }
    }

    int code = 0;
    if (parsed->command == "accuracy") {
      code = cmd_accuracy(*parsed, out, err, log.get());
    } else if (parsed->command == "campaign") {
      code = cmd_campaign(*parsed, out, log.get());
    } else if (parsed->command == "train") {
      code = cmd_train(*parsed, out, err, log.get());
    } else if (parsed->command == "merge") {
      code = cmd_merge(*parsed, out, err, log.get());
    } else if (parsed->command == "report") {
      code = cmd_report(*parsed, out, err);
    } else if (parsed->command == "dse") {
      code = cmd_dse(*parsed, out, err, log.get());
    } else if (parsed->command == "profile") {
      code = cmd_profile(*parsed, out, err, log.get());
    } else if (parsed->command == "serve") {
      code = cmd_serve(*parsed, err, log.get());
    } else if (parsed->command == "submit") {
      code = cmd_submit(*parsed, out, err, log.get());
    } else if (parsed->command == "worker") {
      code = cmd_worker(*parsed, out, err);
    } else if (parsed->command == "trace") {
      code = cmd_trace(*parsed, out, err);
    } else if (parsed->command == "range") {
      code = cmd_range(*parsed, out, err, log.get());
    } else if (parsed->command == "features") {
      code = cmd_features(out);
    } else {
      code = cmd_formats(out);
    }

    if (code == 0 && log) log->metrics_snapshot();
    if (code == 0 && !trace_path.empty() &&
        !obs::write_chrome_trace(trace_path)) {
      err << parsed->command << ": cannot write --trace file '" << trace_path
          << "'\n";
      return 1;
    }
    return code;
  } catch (const UsageError& e) {
    err << parsed->command << ": " << e.what() << "\n";
    return 2;
  } catch (const io::IoError& e) {
    // Missing/corrupt/mismatched .gec files are bad *input*, same class
    // as a bad flag value — never an internal failure.
    err << parsed->command << ": " << e.what() << "\n";
    return 2;
  } catch (const net::NetError& e) {
    // An unreachable server or a protocol violation is likewise a
    // diagnosed environment error, not an internal crash.
    err << parsed->command << ": " << e.what() << "\n";
    return 2;
  } catch (const std::exception& e) {
    err << parsed->command << ": " << e.what() << "\n";
    return 1;
  }
}

}  // namespace ge::core

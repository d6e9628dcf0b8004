#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "bench.hpp"
#include "core/metrics.hpp"
#include "io/model_io.hpp"
#include "models/model_factory.hpp"

namespace perfbench {

namespace {
const Clock::time_point g_process_start = Clock::now();
}  // namespace

const std::vector<std::string> kInferModels = {"simple_cnn", "tiny_resnet",
                                               "tiny_deit"};
const std::vector<std::string> kSpecs = {
    "fp_e8m23", "fp_e5m10",     "fp_e8m7",  "fxp_1_3_12",
    "int8",     "bfp_e8m7_b16", "afp_e4m3", "posit_8_1"};
const std::vector<std::string> kKinds = {
    "Conv2d", "Linear", "MultiheadSelfAttention", "LayerNorm",
    "BatchNorm2d", "GELU", "ReLU"};

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

double ms_since(Clock::time_point t0) { return ms_between(t0, Clock::now()); }

Clock::time_point process_start() { return g_process_start; }

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

void Tally::record(int64_t ops, bool ok, const std::string& why) {
  attempted += ops;
  if (ok) return;
  failed += ops;
  if (errors.size() < 8) errors.push_back(why);
}

void Pins::load(const std::string& path) {
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    const size_t sp = line.rfind(' ');
    if (line.empty() || line[0] == '#' || sp == std::string::npos) continue;
    map_[line.substr(0, sp)] =
        std::strtoull(line.c_str() + sp + 1, nullptr, 16);
  }
}

std::optional<uint64_t> Pins::find(const std::string& key) const {
  const auto it = map_.find(key);
  if (it == map_.end()) return std::nullopt;
  return it->second;
}

uint64_t logits_digest(const ge::Tensor& logits) {
  return ge::core::fnv1a(ge::core::kFnv1aBasis, logits.cdata(),
                         static_cast<size_t>(logits.numel()) * sizeof(float));
}

std::string hex(uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

// --- trained-weight cache ----------------------------------------------------

std::string checkpoint_path(const std::string& cache_dir,
                            const std::string& model) {
  return cache_dir + "/" + model + ".gec";
}

void prepare_cache(const std::string& cache_dir) {
  const ge::data::SyntheticVision data{ge::data::SyntheticVisionConfig{}};
  for (const std::string& model : kInferModels) {
    // The CLI's and the service's defaults (6 epochs), so the served
    // workload's ensure_trained finds exactly these weights.
    ge::models::TrainConfig tc;
    tc.epochs = 6;
    auto tm = ge::models::ensure_trained(model, data, cache_dir, tc);
    ge::io::save_model(checkpoint_path(cache_dir, model), *tm.model, model);
    std::fprintf(stderr, "perfbench: prepared %s (test accuracy %.4f)\n",
                 model.c_str(), tm.test_accuracy);
  }
}

std::unique_ptr<ge::nn::Module> load_trained(const std::string& cache_dir,
                                             const std::string& model) {
  auto net = ge::models::make_model(model, ge::data::SyntheticVisionConfig{},
                                    /*seed=*/42);
  ge::io::load_model(checkpoint_path(cache_dir, model), *net);
  net->eval();
  return net;
}

InferCell make_cell(const std::string& cache_dir, const std::string& model,
                    const std::string& spec) {
  InferCell cell;
  cell.model = model;
  cell.spec = spec;
  cell.net = load_trained(cache_dir, model);
  if (spec != "native") {
    ge::core::EmulatorConfig cfg;
    cfg.format_spec = spec;
    cell.emu = std::make_unique<ge::core::Emulator>(*cell.net, cfg);
  }
  return cell;
}

void attribute_forward_profile(const std::vector<ge::obs::SpanStats>& prof,
                               double forwards, double per_spec, Metrics& out) {
  for (const std::string& kind : kKinds) {
    double ns = 0.0;
    for (const auto& s : prof) {
      if (s.category == "nn" && s.name == kind) ns += double(s.self_ns);
    }
    put(out, "nn.self_ms." + kind, ns / 1e6 / forwards, "ms");
  }
  for (const std::string& spec : kSpecs) {
    double ns = 0.0;
    for (const auto& s : prof) {
      if (s.category == "emulator" && s.name == "site" && s.format == spec) {
        ns += double(s.self_ns);
      }
    }
    put(out, "emulator.site_ms." + spec, ns / 1e6 / per_spec, "ms");
  }
}

// --- report rows -------------------------------------------------------------

int RowStream::Buf::overflow(int ch) {
  if (ch != traits_type::eof()) take(static_cast<char>(ch));
  return ch;
}

std::streamsize RowStream::Buf::xsputn(const char* s, std::streamsize n) {
  for (std::streamsize i = 0; i < n; ++i) take(s[i]);
  return n;
}

void RowStream::Buf::take(char c) {
  if (c != '\n') {
    line.push_back(c);
    return;
  }
  on_line();
  line.clear();
}

void RowStream::Buf::on_line() {
  if (!stats.have_first) {
    stats.first_row = Clock::now();
    stats.have_first = true;
  }
  stats.bytes += static_cast<int64_t>(line.size()) + 1;
  if (line.find("\"type\":\"trial\"") == std::string::npos) return;
  ++stats.trials;
  std::string layer;
  static constexpr char kLayer[] = "\"layer\":\"";
  if (const size_t p = line.find(kLayer); p != std::string::npos) {
    const size_t b = p + sizeof(kLayer) - 1;
    layer = line.substr(b, line.find('"', b) - b);
  }
  int64_t affected = 0;
  static constexpr char kAffected[] = "\"affected\":";
  if (const size_t p = line.find(kAffected); p != std::string::npos) {
    affected = std::strtoll(line.c_str() + p + sizeof(kAffected) - 1,
                            nullptr, 10);
  }
  auto& entry = stats.per_layer[layer];
  entry.first += 1;
  entry.second += affected;
}

// --- campaigns -------------------------------------------------------------------

std::string CampaignCase::key() const {
  std::ostringstream k;
  k << "campaign " << model << ' ' << cfg.format_spec << ' '
    << ge::core::to_string(cfg.site) << ' '
    << ge::core::to_string(cfg.model) << " n" << cfg.injections_per_layer
    << " seed" << cfg.seed << " ber" << cfg.ber << " samples"
    << kCampaignSamples;
  return k.str();
}

CampaignCase make_case(const std::string& model, const std::string& spec,
                       ge::core::InjectionSite site,
                       ge::core::ErrorModel error_model, int64_t injections,
                       uint64_t seed, double ber) {
  CampaignCase c;
  c.model = model;
  c.cfg.format_spec = spec;
  c.cfg.site = site;
  c.cfg.model = error_model;
  c.cfg.injections_per_layer = injections;
  c.cfg.seed = seed;
  c.cfg.ber = ber;
  c.cfg.use_prefix_cache = true;
  // The replica factory core/cli.cpp and net/session.cpp install, so trials
  // fan out across pool workers as users' campaigns do.
  c.cfg.make_replica = [model]() {
    return ge::models::make_model(model, ge::data::SyntheticVisionConfig{}, 0);
  };
  return c;
}

ge::data::Batch campaign_batch(const ge::data::SyntheticVision& data) {
  return ge::data::take(data.test(), 0, kCampaignSamples);
}

}  // namespace perfbench

#include "net/session.hpp"

#include <algorithm>
#include <iomanip>
#include <sstream>

#include "core/injector.hpp"
#include "formats/format_registry.hpp"
#include "models/model_factory.hpp"
#include "obs/telemetry.hpp"

namespace ge::net {

void FrameChannel::send(FrameType type, std::vector<uint8_t> payload) {
  std::lock_guard<std::mutex> lock(send_mu_);
  send_frame(sock_, Frame{type, std::move(payload)}, context_);
  obs::add(obs::Counter::kNetFramesSent);
}

std::optional<Frame> FrameChannel::recv() {
  std::optional<Frame> f = recv_frame(sock_, context_);
  if (f.has_value()) obs::add(obs::Counter::kNetFramesReceived);
  return f;
}

std::optional<Frame> FrameChannel::recv_wait(int timeout_ms, bool* timed_out) {
  const int rc = sock_.wait_readable(timeout_ms);
  if (rc == 0) {
    *timed_out = true;
    return std::nullopt;
  }
  *timed_out = false;
  if (rc < 0) throw NetError(context_ + ": poll failed");
  return recv();
}

void FrameChannel::shutdown() { sock_.close(); }

int LineFrameBuf::overflow(int ch) {
  if (ch == traits_type::eof()) return 0;
  if (ch == '\n') {
    emit_line();
  } else {
    line_.push_back(static_cast<char>(ch));
  }
  return ch;
}

std::streamsize LineFrameBuf::xsputn(const char* s, std::streamsize n) {
  for (std::streamsize i = 0; i < n; ++i) {
    if (s[i] == '\n') {
      emit_line();
    } else {
      line_.push_back(s[i]);
    }
  }
  return n;
}

void LineFrameBuf::emit_line() {
  chan_->send(FrameType::kLogRow,
              std::vector<uint8_t>(line_.begin(), line_.end()));
  line_.clear();
}

std::string campaign_spec_reason(const CampaignSpecMsg& spec) {
  if (!fmt::is_valid_spec(spec.format_spec)) {
    return "bad or missing --format '" + spec.format_spec + "'";
  }
  if (spec.site >= kSiteWords.size()) {
    return "unknown --site byte " + std::to_string(spec.site);
  }
  if (spec.error_model >= kErrorModelWords.size()) {
    return "unknown --error-model byte " + std::to_string(spec.error_model);
  }
  const std::vector<std::string> models = models::model_names();
  if (std::find(models.begin(), models.end(), spec.model_name) ==
      models.end()) {
    return "unknown --model '" + spec.model_name + "'";
  }
  if (spec.injections_per_layer < 1) return "--injections must be >= 1";
  const int64_t max_samples = data::SyntheticVisionConfig{}.test_count;
  if (spec.samples < 1 || spec.samples > max_samples) {
    return "--samples must be in [1, " + std::to_string(max_samples) + "]";
  }
  if (spec.epochs < 1) return "--epochs must be >= 1";
  if (spec.sites_per_trial < 1) return "--sites-per-trial must be >= 1";
  if (spec.burst_len < 1) return "--burst-len must be >= 1";
  // Written so that a NaN fails: it is false under every comparison.
  const auto model = static_cast<core::ErrorModel>(spec.error_model);
  if (model == core::ErrorModel::kBerUniform) {
    if (!(spec.ber > 0.0 && spec.ber <= 1.0)) {
      return "--error-model ber requires --ber in (0, 1]";
    }
  } else if (!(spec.ber >= 0.0 && spec.ber <= 1.0)) {
    return "--ber must be in [0, 1]";
  }
  const auto site = static_cast<core::InjectionSite>(spec.site);
  if (core::is_zoo_model(model) &&
      site != core::InjectionSite::kActivationValue) {
    return std::string("error model '") + kErrorModelWords[spec.error_model] +
           "' requires --site value (activations only)";
  }
  return core::no_layer_reason(spec.format_spec, site);
}

PreparedCampaign prepare_campaign(const CampaignSpecMsg& spec,
                                  const std::string& cache_dir) {
  if (const std::string why = campaign_spec_reason(spec); !why.empty()) {
    throw NetError("campaign spec: " + why);
  }
  core::CampaignConfig cfg;
  cfg.format_spec = spec.format_spec;
  cfg.site = static_cast<core::InjectionSite>(spec.site);
  cfg.model = static_cast<core::ErrorModel>(spec.error_model);
  cfg.injections_per_layer = spec.injections_per_layer;
  cfg.seed = spec.seed;
  cfg.sites_per_trial = spec.sites_per_trial;
  cfg.ber = spec.ber;
  cfg.burst_len = spec.burst_len;
  cfg.use_prefix_cache = spec.prefix_cache != 0;

  PreparedCampaign out;
  models::TrainConfig tc;
  tc.epochs = spec.epochs;
  out.model = models::load_or_train(spec.model_name, cache_dir, tc);
  const data::SyntheticVision data{data::eval_config(spec.samples)};
  out.batch = data::take(data.test(), 0, spec.samples);
  // Replicas let trials fan out across pool workers; the session copies
  // the trained weights into them, so the init seed here is irrelevant.
  const std::string model_name = spec.model_name;
  cfg.make_replica = [model_name]() {
    return models::make_model(model_name, data::SyntheticVisionConfig{}, 0);
  };
  out.cfg = std::move(cfg);
  out.session =
      std::make_unique<core::CampaignSession>(*out.model, out.batch, out.cfg);
  out.total_trials =
      out.session->layer_count() * out.cfg.injections_per_layer;
  return out;
}

std::string render_campaign_summary(const CampaignSpecMsg& spec,
                                    const core::CampaignResult& result) {
  std::ostringstream out;
  out << "campaign: " << spec.format_spec << " site=" << kSiteWords[spec.site]
      << " error-model=" << kErrorModelWords[spec.error_model]
      << " injections/layer=" << spec.injections_per_layer << "\n";
  out << "clean emulated accuracy: " << result.golden_accuracy << "\n";
  out << std::left << std::setw(28) << "layer" << std::right << std::setw(12)
      << "mean dLoss" << std::setw(10) << "SDC" << "\n";
  out << std::fixed << std::setprecision(5);
  for (const auto& l : result.layers) {
    out << std::left << std::setw(28) << l.layer << std::right
        << std::setw(12) << l.mean_delta_loss << std::setw(9) << l.sdc_count
        << "/" << l.injections << "\n";
  }
  out << "network mean dLoss: " << result.network_mean_delta_loss() << "\n";
  out << "campaign digest: 0x" << std::hex << core::campaign_digest(result)
      << "\n";
  return out.str();
}

}  // namespace ge::net

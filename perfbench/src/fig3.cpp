// fig3_infer: batch-32 emulated inference over the paper's Fig. 3 matrix —
// three models, each natively and under the eight emulated formats —
// scheduled round-robin so machine drift hits every configuration alike.
// Every forward's logits are checked against a digest pinned in pins.txt.
#include "bench.hpp"

namespace perfbench {

namespace {

constexpr int kBatches = 512 / kInferBatch;  // the whole synthetic test split

std::string fig3_key(const std::string& model, const std::string& spec,
                     int batch) {
  return "fig3 " + model + ' ' + spec + " b" + std::to_string(batch);
}

std::vector<std::string> matrix_specs() {
  std::vector<std::string> specs = {"native"};
  specs.insert(specs.end(), kSpecs.begin(), kSpecs.end());
  return specs;
}

class Fig3Infer final : public Workload {
 public:
  explicit Fig3Infer(const Context& ctx) : ctx_(ctx) {}

  void setup(Tally& tally) override {
    const auto t0 = Clock::now();
    data_ = std::make_unique<ge::data::SyntheticVision>(
        ge::data::SyntheticVisionConfig{});
    dataset_ms = ms_since(t0);
    batches_.clear();
    for (int b = 0; b < kBatches; ++b) {
      batches_.push_back(
          ge::data::take(data_->test(), b * kInferBatch, kInferBatch));
    }
    cells_.clear();
    pins_.clear();
    for (const std::string& spec : matrix_specs()) {
      for (const std::string& model : kInferModels) {
        cells_.push_back(make_cell(ctx_.opt.cache_dir, model, spec));
        std::vector<std::optional<uint64_t>> row;
        for (int b = 0; b < kBatches; ++b) {
          row.push_back(ctx_.pins.find(fig3_key(model, spec, b)));
        }
        pins_.push_back(std::move(row));
      }
    }
    // Golden pass: one forward per configuration on the first batch.
    for (size_t i = 0; i < cells_.size(); ++i) forward_checked(i, 0, tally);
  }

  void prepare_run(Tally& tally) override {
    // Discarded warm-up pass: arenas, pool threads and format caches warm
    // up here, not in whichever configuration happens to run first.
    run(0.0, 1, tally);
  }

  LoopResult run(double seconds, int64_t rounds, Tally& tally) override {
    LoopResult r;
    const auto t0 = Clock::now();
    for (int64_t p = 0;; ++p) {
      if (rounds > 0 ? p >= rounds : p > 0 && ms_since(t0) >= seconds * 1e3) {
        break;
      }
      const int b = static_cast<int>((ctx_.variant + p) % kBatches);
      RoundStats& round = r.per_round.emplace_back();
      const auto pass_t0 = Clock::now();
      for (size_t i = 0; i < cells_.size(); ++i) {
        const auto f0 = Clock::now();
        forward_checked(i, b, tally);
        const auto f1 = Clock::now();
        round.latency_ms.push_back(ms_between(f0, f1));
        if (i == 0) round.first_row_ms.push_back(ms_between(pass_t0, f1));
      }
      round.wall_s = ms_since(pass_t0) / 1e3;
      round.items = static_cast<double>(cells_.size() * kInferBatch);
      r.ops += static_cast<int64_t>(cells_.size());
    }
    r.wall_s = ms_since(t0) / 1e3;
    return r;
  }

  void attribute(const LoopResult& /*plain*/, const LoopResult& traced,
                 Metrics& out) override {
    attribute_forward_profile(
        ge::obs::profile_snapshot(), static_cast<double>(traced.ops),
        static_cast<double>(traced.rounds()) * double(kInferModels.size()),
        out);
  }

 private:
  void forward_checked(size_t i, int b, Tally& tally) {
    InferCell& c = cells_[i];
    try {
      const ge::Tensor logits = (*c.net)(batches_[b].images);
      const auto& pin = pins_[i][b];
      if (pin.has_value() && *pin == logits_digest(logits)) {
        tally.record(1, true);
      } else {
        tally.record(1, false,
                     (pin ? "digest mismatch: " : "digest not pinned: ") +
                         fig3_key(c.model, c.spec, b));
      }
    } catch (const std::exception& e) {
      tally.record(1, false, e.what());
    }
  }

  const Context& ctx_;
  std::unique_ptr<ge::data::SyntheticVision> data_;
  std::vector<ge::data::Batch> batches_;
  std::vector<InferCell> cells_;
  /// pins_[cell][batch], resolved at set-up so the timed loop does no
  /// string work.
  std::vector<std::vector<std::optional<uint64_t>>> pins_;
};

}  // namespace

std::unique_ptr<Workload> make_fig3(const Context& ctx) {
  return std::make_unique<Fig3Infer>(ctx);
}

void print_fig3_pins(const Context& ctx) {
  const ge::data::SyntheticVision data{ge::data::SyntheticVisionConfig{}};
  for (const std::string& spec : matrix_specs()) {
    for (const std::string& model : kInferModels) {
      InferCell c = make_cell(ctx.opt.cache_dir, model, spec);
      for (int b = 0; b < kBatches; ++b) {
        const auto batch =
            ge::data::take(data.test(), b * kInferBatch, kInferBatch);
        std::printf("%s %s\n", fig3_key(model, spec, b).c_str(),
                    hex(logits_digest((*c.net)(batch.images))).c_str());
      }
    }
  }
}

}  // namespace perfbench

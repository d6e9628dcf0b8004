// Error-model zoo throughput (§IV-C): campaign trials/s under the classic
// single-bit flip versus the two headline zoo models — uniform BER over the
// whole activation tensor and channel-correlated faults — on the two
// "real" topologies (tiny_resnet, tiny_deit).
//
// Expected shape: a flip reaches one sample, so its trial replays the
// suffix from its site for that sample alone (sample-sliced replay,
// DESIGN.md §10) and costs a fraction of a batch forward. A channel fault
// reaches every sample and replays the suffix at full batch; injection is
// a rounding error next to that replay. ber_uniform also replays at full
// batch; it draws one geometric gap per flip and encodes only the hit
// elements, so its injection cost scales with the expected number of
// flips, not with the tensor's bit count.
// The JSON rows feed the CI perf gate (bench/baselines/inject_models.json).
#include <cstdio>

#include "core/campaign.hpp"
#include "harness.hpp"

int main() {
  using namespace ge;
  bench::BenchReport report("inject_models");
  const auto batch = data::take(bench::dataset().test(), 0, 16);
  const int64_t n_inj = bench::injections_per_layer();

  struct Case {
    const char* label;
    core::ErrorModel model;
    double ber;
  };
  const Case cases[] = {
      {"flip", core::ErrorModel::kBitFlip, 0.0},
      {"ber_1e-3", core::ErrorModel::kBerUniform, 1e-3},
      {"channel", core::ErrorModel::kChannel, 0.0},
  };

  std::printf("=== error-model injection throughput (%lld inj/layer) ===\n\n",
              (long long)n_inj);

  for (const char* model_name : {"tiny_resnet", "tiny_deit"}) {
    auto tm = bench::trained(model_name);
    tm.model->eval();
    std::printf("--- %s ---\n", model_name);
    std::printf("%-10s %10s %12s %12s %10s\n", "model", "trials", "wall_ms",
                "trials/s", "SDC");
    for (const Case& c : cases) {
      core::CampaignConfig cfg;
      cfg.format_spec = "fp_e5m10";
      cfg.model = c.model;
      cfg.ber = c.ber;
      cfg.injections_per_layer = n_inj;
      cfg.seed = 777;
      bench::ScopedMs timer;
      const auto r = core::run_campaign(*tm.model, batch, cfg);
      const double wall_ms = timer.elapsed_ms();
      int64_t trials = 0, sdc = 0;
      for (const auto& l : r.layers) {
        trials += l.injections;
        sdc += l.sdc_count;
      }
      const double tps = trials / (wall_ms / 1000.0);
      std::printf("%-10s %10lld %12.1f %12.1f %9.1f%%\n", c.label,
                  (long long)trials, wall_ms, tps,
                  100.0 * double(sdc) / double(trials));
      obs::JsonObject jrow;
      jrow.str("name", std::string(model_name) + "/" + c.label)
          .num("trials", double(trials))
          .num("wall_ms", wall_ms)
          .num("trials_per_sec", tps)
          .num("sdc_rate", double(sdc) / double(trials))
          .num("delta_loss", r.network_mean_delta_loss());
      report.row(jrow);
    }
    std::printf("\n");
  }
  return 0;
}

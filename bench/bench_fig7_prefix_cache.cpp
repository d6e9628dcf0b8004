// Fig. 7 companion — golden-prefix cache ablation (DESIGN.md §10).
//
// Runs the same per-layer injection campaign with the suffix-replay cache
// off (every trial is a full forward) and on (each trial replays only from
// its injection site), and reports trial throughput for both. The cache is
// a pure speed knob, so the campaign digests must match bitwise — this
// binary asserts that and exits non-zero on any divergence.
//
// Expected shape: the cache skips the prefix before each trial's site
// (about half the layers on average) and, because a value flip reaches one
// sample, replays the suffix for that sample alone (sample-sliced replay).
// The speedup is therefore well past the ~2x a full-batch suffix replay
// gives; it is largest where a batch-1 forward is cheapest against the
// batch of 16.
#include <cstdio>
#include <cstdlib>

#include "core/campaign.hpp"
#include "harness.hpp"

int main() {
  using namespace ge;
  const auto batch = data::take(bench::dataset().test(), 0, 16);
  const int64_t n_inj = bench::injections_per_layer();

  bench::BenchReport report("fig7_prefix_cache");

  std::printf("=== Fig. 7 ablation: golden-prefix cache on vs off ===\n");
  std::printf("(%lld injections/layer, value site, fp_e5m10)\n\n",
              (long long)n_inj);
  std::printf("%-14s %10s %12s %12s %9s %8s\n", "model", "trials",
              "off(ms)", "on(ms)", "speedup", "digest");

  bool all_equal = true;
  for (const char* model_name : {"tiny_resnet", "tiny_deit"}) {
    auto tm = bench::trained(model_name);
    tm.model->eval();

    core::CampaignConfig cfg;
    cfg.format_spec = "fp_e5m10";
    cfg.injections_per_layer = n_inj;
    cfg.seed = 1234;

    cfg.use_prefix_cache = false;
    bench::ScopedMs t_off;
    const auto r_off = core::run_campaign(*tm.model, batch, cfg);
    const double ms_off = t_off.elapsed_ms();

    cfg.use_prefix_cache = true;
    bench::ScopedMs t_on;
    const auto r_on = core::run_campaign(*tm.model, batch, cfg);
    const double ms_on = t_on.elapsed_ms();

    const uint64_t d_off = core::campaign_digest(r_off);
    const uint64_t d_on = core::campaign_digest(r_on);
    const bool equal = d_off == d_on;
    all_equal = all_equal && equal;

    const int64_t trials =
        n_inj * static_cast<int64_t>(r_on.layers.size());
    const double speedup = ms_on > 0.0 ? ms_off / ms_on : 0.0;
    std::printf("%-14s %10lld %12.1f %12.1f %8.2fx %8s\n", model_name,
                (long long)trials, ms_off, ms_on, speedup,
                equal ? "equal" : "DIFFER");

    obs::JsonObject jrow;
    jrow.str("name", model_name)
        .num("trials", trials)
        .num("injections_per_layer", n_inj)
        .num("wall_ms_cache_off", ms_off)
        .num("wall_ms_cache_on", ms_on)
        .num("trials_per_sec_cache_off",
             ms_off > 0.0 ? 1000.0 * double(trials) / ms_off : 0.0)
        .num("trials_per_sec_cache_on",
             ms_on > 0.0 ? 1000.0 * double(trials) / ms_on : 0.0)
        .num("speedup", speedup)
        .boolean("digest_equal", equal);
    report.row(jrow);
  }

  if (!all_equal) {
    std::fprintf(stderr,
                 "FAIL: cache-on and cache-off campaign digests differ\n");
    return 1;
  }
  std::printf("\nall digests equal: suffix replay is bitwise exact\n");
  return 0;
}

// Fig. 7 companion — golden-prefix cache ablation (DESIGN.md §10).
//
// Runs the same per-layer injection campaign with the suffix-replay cache
// off (every trial is a full forward) and on (each trial replays only from
// its injection site), and reports trial throughput for both. The cache is
// a pure speed knob, so the campaign digests must match bitwise — this
// binary asserts that and exits non-zero on any divergence.
//
// Two campaigns per model: fp_e5m10 value flips (rows named after the
// model) and bfp_e8m7_b16 shared-exponent flips (rows "<model>/bfp_e8m7_b16
// metadata", the paper's Fig. 7 metadata fault).
//
// Expected shape: the cache skips the prefix before each trial's site
// (about half the layers on average) and, because a value flip or one
// block's exponent reaches one sample, replays the suffix for that sample
// alone (sample-sliced replay). Under bfp_e8m7_b16 the replay widens back
// to the batch at the 10-class head, the one site whose blocks straddle
// samples, so only head trials replay at full batch. The speedup is
// therefore well past the ~2x a full-batch suffix replay gives; it is
// largest where a batch-1 forward is cheapest against the batch of 16.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "core/campaign.hpp"
#include "harness.hpp"

int main() {
  using namespace ge;
  const auto batch = data::take(bench::dataset().test(), 0, 16);
  const int64_t n_inj = bench::injections_per_layer();

  bench::BenchReport report("fig7_prefix_cache");

  std::printf("=== Fig. 7 ablation: golden-prefix cache on vs off ===\n");
  std::printf("(%lld injections/layer; fp_e5m10 value site, bfp_e8m7_b16 "
              "metadata site)\n\n",
              (long long)n_inj);
  std::printf("%-34s %8s %12s %12s %9s %8s\n", "campaign", "trials",
              "off(ms)", "on(ms)", "speedup", "digest");

  struct Case {
    const char* format;
    core::InjectionSite site;
    const char* suffix;  ///< row name after the model's
  };
  const Case cases[] = {
      {"fp_e5m10", core::InjectionSite::kActivationValue, ""},
      {"bfp_e8m7_b16", core::InjectionSite::kMetadata,
       "/bfp_e8m7_b16 metadata"},
  };
  bool all_equal = true;
  for (const char* model_name : {"tiny_resnet", "tiny_deit"}) {
    auto tm = bench::trained(model_name);
    tm.model->eval();
    for (const Case& c : cases) {
      const std::string name = std::string(model_name) + c.suffix;
      core::CampaignConfig cfg;
      cfg.format_spec = c.format;
      cfg.site = c.site;
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
      std::printf("%-34s %8lld %12.1f %12.1f %8.2fx %8s\n", name.c_str(),
                  (long long)trials, ms_off, ms_on, speedup,
                  equal ? "equal" : "DIFFER");

      obs::JsonObject jrow;
      jrow.str("name", name)
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
  }

  if (!all_equal) {
    std::fprintf(stderr,
                 "FAIL: cache-on and cache-off campaign digests differ\n");
    return 1;
  }
  std::printf("\nall digests equal: suffix replay is bitwise exact\n");
  return 0;
}

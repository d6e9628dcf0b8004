// perfbench — the GoldenEye benchmark binary.
//
//   perfbench prepare --cache DIR
//       Train the benchmark models into DIR (run once, before any timed run).
//   perfbench pin --cache DIR [--threads N]
//       Print the output digests of every input variant (pins.txt format).
//   perfbench run --workload W --seed N --seconds S --trace 0|1
//                 --cache DIR --pins FILE --scratch DIR --threads N
//       Run one workload and print one JSON result as the last line: the
//       end-to-end metrics (trace 0) or the per-layer metrics (trace 1).
//
// perfbench/run.py builds this binary, prepares the cache and calls `run`.
#include <sched.h>
#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <stdexcept>

#include "bench.hpp"
#include "obs/telemetry.hpp"
#include "parallel/thread_pool.hpp"

namespace perfbench {
namespace {

/// Set-up repetitions per run; setup_s is their median.
constexpr int kSetups = 5;

Options parse(int argc, char** argv) {
  if (argc < 2) throw std::invalid_argument("missing mode");
  Options o;
  o.mode = argv[1];
  for (int i = 2; i < argc; i += 2) {
    const std::string key = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + key);
    const std::string val = argv[i + 1];
    if (key == "--workload") {
      o.workload = val;
    } else if (key == "--seed") {
      o.seed = std::stoull(val);
    } else if (key == "--seconds") {
      o.seconds = std::stod(val);
    } else if (key == "--trace") {
      o.trace = val == "1";
    } else if (key == "--cache") {
      o.cache_dir = val;
    } else if (key == "--pins") {
      o.pins_path = val;
    } else if (key == "--scratch") {
      o.scratch_dir = val;
    } else if (key == "--threads") {
      o.threads = std::stoi(val);
    } else {
      throw std::invalid_argument("unknown option " + key);
    }
  }
  if (o.cache_dir.empty()) throw std::invalid_argument("--cache is required");
  if (o.threads < 1) throw std::invalid_argument("--threads must be >= 1");
  return o;
}

int usable_cpus() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 0;
  return CPU_COUNT(&set);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::unique_ptr<Workload> make_workload(const Context& ctx) {
  const std::string& w = ctx.opt.workload;
  if (w == "fig3_infer") return make_fig3(ctx);
  if (w == "campaign_flip") return make_campaign_flip(ctx);
  if (w == "campaign_ber") return make_campaign_ber(ctx);
  if (w == "served_flip") return make_served_flip(ctx);
  throw std::invalid_argument("unknown workload '" + w + "'");
}

std::string json_number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void print_result(const Context& ctx, const Tally& tally, const Metrics& m) {
  std::printf(
      "{\"perfbench\": {\"workload\": \"%s\", \"seed\": %llu, \"variant\": %d, "
      "\"trace\": %d, \"seconds\": %s, \"threads\": %d, \"nproc\": %d, "
      "\"build_type\": \"%s\"}}\n",
      ctx.opt.workload.c_str(), static_cast<unsigned long long>(ctx.opt.seed),
      ctx.variant, ctx.opt.trace ? 1 : 0, json_number(ctx.opt.seconds).c_str(),
      ge::parallel::num_threads(), usable_cpus(), PERFBENCH_BUILD_TYPE);
  for (const std::string& e : tally.errors) {
    std::fprintf(stderr, "perfbench: check failed: %s\n", e.c_str());
  }
  std::string metrics;
  for (const auto& [name, metric] : m) {
    if (!metrics.empty()) metrics += ", ";
    metrics += "\"" + name + "\": {\"value\": " + json_number(metric.value) +
               ", \"unit\": \"" + metric.unit + "\"}";
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
      "\"metrics\": {%s}}\n",
      tally.failed == 0 && tally.attempted > 0 ? "true" : "false",
      static_cast<long long>(tally.attempted),
      static_cast<long long>(tally.failed), metrics.c_str());
  std::fflush(stdout);
}

/// Per-layer numbers every workload's traced loop measures directly.
void loop_attribution(const LoopResult& plain, const LoopResult& traced,
                      Metrics& out) {
  using ge::obs::Counter;
  const double ops = static_cast<double>(std::max<int64_t>(traced.ops, 1));
  double chunk_ns = 0.0;
  for (const auto& s : ge::obs::profile_snapshot()) {
    if (s.category == "pool" && s.name == "chunk") chunk_ns += double(s.self_ns);
  }
  put(out, "parallel.jobs_per_op",
      double(ge::obs::counter_value(Counter::kPoolJobs)) / ops, "count");
  put(out, "parallel.chunk_self_ms_per_op", chunk_ns / 1e6 / ops, "ms");
  put(out, "tensor.cow_copies_per_op",
      double(ge::obs::counter_value(Counter::kCowCopies)) / ops, "count");
  put(out, "tensor.arena_reuses_per_op",
      double(ge::obs::counter_value(Counter::kArenaReuses)) / ops, "count");
  put(out, "tensor.allocations_avoided_per_op",
      double(ge::obs::counter_value(Counter::kAllocationsAvoided)) / ops,
      "count");
  put(out, "obs.trace_overhead_frac",
      (traced.wall_s / double(traced.rounds())) /
              (plain.wall_s / double(plain.rounds())) -
          1.0,
      "frac");
}

int run(const Options& opt) {
  Context ctx;
  ctx.opt = opt;
  ctx.pins.load(opt.pins_path);
  ctx.variant = static_cast<int>(opt.seed % kVariants);
  ge::parallel::set_num_threads(opt.threads);

  Tally tally;
  std::vector<double> setup_s, dataset_ms;
  std::unique_ptr<Workload> w;
  for (int k = 0; k < kSetups; ++k) {
    w.reset();
    const auto t0 = k == 0 ? process_start() : Clock::now();
    w = make_workload(ctx);
    w->setup(tally);
    setup_s.push_back(ms_since(t0) / 1e3);
    dataset_ms.push_back(w->dataset_ms);
  }
  w->prepare_run(tally);

  Metrics m;
  const LoopResult plain = w->run(opt.seconds, 0, tally);
  if (!opt.trace) {
    std::vector<double> rate, p50, p90, first_row;
    for (const RoundStats& r : plain.per_round) {
      rate.push_back(r.items / r.wall_s);
      p50.push_back(quantile(r.latency_ms, 0.5));
      p90.push_back(quantile(r.latency_ms, 0.9));
      first_row.insert(first_row.end(), r.first_row_ms.begin(),
                       r.first_row_ms.end());
    }
    put(m, "setup_s", median(setup_s), "s");
    put(m, "throughput_per_s", median(rate), "1/s");
    put(m, "latency_ms_p50", median(p50), "ms");
    put(m, "latency_ms_p90", median(p90), "ms");
    put(m, "first_row_ms", median(first_row), "ms");
    put(m, "peak_rss_mb", peak_rss_mb(), "MB");
    put(m, "success_rate",
        tally.attempted > 0
            ? double(tally.attempted - tally.failed) / double(tally.attempted)
            : 0.0,
        "frac");
    print_result(ctx, tally, m);
    return 0;
  }

  // Traced repeat of exactly the same rounds: profiler, counters and span
  // recording on. The values stay readable after the scopes close.
  ge::obs::reset_all();
  LoopResult traced;
  {
    ge::obs::TelemetryScope telemetry(true, true);
    ge::obs::ProfilingScope profiling(true);
    traced = w->run(0.0, plain.rounds(), tally);
  }
  put(m, "data.dataset_ms", median(dataset_ms), "ms");
  loop_attribution(plain, traced, m);
  w->attribute(plain, traced, m);
  ge::obs::reset_all();
  Metrics probes;
  run_probes(ctx, probes, tally);
  m.insert(probes.begin(), probes.end());  // keeps the loop's own values
  print_result(ctx, tally, m);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  try {
    const Options opt = parse(argc, argv);
    if (opt.mode == "prepare") {
      prepare_cache(opt.cache_dir);
      return 0;
    }
    if (opt.mode == "pin") {
      Context ctx;
      ctx.opt = opt;
      ge::parallel::set_num_threads(opt.threads);
      print_pins(ctx);
      return 0;
    }
    if (opt.mode == "run") return run(opt);
    throw std::invalid_argument("unknown mode '" + opt.mode + "'");
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}

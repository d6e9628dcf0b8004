// perf_gate — the CI perf-regression comparator.
//
//   perf_gate --baseline bench/baselines/fig3_runtime.json
//             --current  BENCH_fig3_runtime.json
//             [--metrics wall_ms[,trials_per_sec_cache_on,...]]
//             [--threshold 15]
//
// Exit status: 0 pass (or GE_PERF_GATE=off), 1 a cell regressed beyond
// the threshold, 2 usage / IO / parse error. The threshold is a percent:
// --threshold 15 fails when any compared (row, metric) cell's
// current/baseline ratio exceeds 1.15. Every failing cell is named.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <vector>

#include "core/perf_gate.hpp"

namespace {

void usage(std::FILE* to) {
  std::fprintf(to,
               "usage: perf_gate --baseline FILE --current FILE\n"
               "                 [--metrics NAME[,NAME...]] (default wall_ms)\n"
               "                 [--threshold PCT]          (default 15)\n"
               "\n"
               "Compares two BENCH_<name>.json files (bench/harness.hpp\n"
               "format) row-by-row and exits 1 when any (row, metric)\n"
               "cell's current/baseline ratio exceeds 1 + PCT/100.\n"
               "Set GE_PERF_GATE=off to skip the gate (always exits 0).\n");
}

std::vector<std::string> split_csv(const std::string& csv) {
  std::vector<std::string> out;
  size_t start = 0;
  while (start <= csv.size()) {
    const size_t comma = csv.find(',', start);
    const std::string item = csv.substr(
        start, comma == std::string::npos ? std::string::npos : comma - start);
    if (!item.empty()) out.push_back(item);
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  std::string baseline_path;
  std::string current_path;
  std::string metrics_csv = "wall_ms";
  double threshold_pct = 15.0;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "perf_gate: %s needs a value\n", flag);
        usage(stderr);
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--baseline") {
      baseline_path = next("--baseline");
    } else if (arg == "--current") {
      current_path = next("--current");
    } else if (arg == "--metrics") {
      metrics_csv = next("--metrics");
    } else if (arg == "--threshold") {
      char* end = nullptr;
      threshold_pct = std::strtod(next("--threshold"), &end);
      if (end == nullptr || *end != '\0' || threshold_pct < 0.0) {
        std::fprintf(stderr, "perf_gate: bad --threshold\n");
        return 2;
      }
    } else if (arg == "--help" || arg == "-h") {
      usage(stdout);
      return 0;
    } else {
      std::fprintf(stderr, "perf_gate: unknown option '%s'\n", arg.c_str());
      usage(stderr);
      return 2;
    }
  }
  if (baseline_path.empty() || current_path.empty()) {
    usage(stderr);
    return 2;
  }
  const std::vector<std::string> metrics = split_csv(metrics_csv);
  if (metrics.empty()) {
    std::fprintf(stderr, "perf_gate: --metrics selected nothing\n");
    return 2;
  }

  // The escape hatch: a known-noisy runner or an intentional perf trade
  // can disable the gate for one run without editing CI.
  if (const char* env = std::getenv("GE_PERF_GATE")) {
    if (std::strcmp(env, "off") == 0 || std::strcmp(env, "0") == 0) {
      std::printf("perf_gate: disabled via GE_PERF_GATE=%s — skipping\n", env);
      return 0;
    }
  }

  try {
    namespace pg = ge::core::perf_gate;
    const pg::BenchFile base = pg::load_bench_json(baseline_path);
    const pg::BenchFile cur = pg::load_bench_json(current_path);
    if (base.bench != cur.bench) {
      std::fprintf(stderr,
                   "perf_gate: bench mismatch — baseline is '%s', current is "
                   "'%s'\n",
                   base.bench.c_str(), cur.bench.c_str());
      return 2;
    }
    const pg::GateResult r =
        pg::compare_bench(base, cur, metrics, threshold_pct / 100.0);

    std::printf("perf gate: %s (threshold +%.0f%%)\n", base.bench.c_str(),
                threshold_pct);
    std::printf("%-56s %-12s %12s %12s %8s\n", "case", "metric", "baseline",
                "current", "ratio");
    for (const auto& c : r.rows) {
      std::printf("%-56s %-12s %12.4f %12.4f %7.3fx\n", c.row.c_str(),
                  c.metric.c_str(), c.baseline, c.current, c.ratio);
    }
    for (const auto& m : r.missing) {
      std::printf("  [not compared] %s\n", m.c_str());
    }
    if (r.rows.empty()) {
      std::fprintf(stderr,
                   "perf_gate: no comparable rows — check --metrics and that "
                   "both files come from the same bench\n");
      return 2;
    }
    for (const auto& c : r.failed) {
      std::printf("  [over threshold] %s %s %.3fx\n", c.row.c_str(),
                  c.metric.c_str(), c.ratio);
    }
    std::printf("median ratio: %.3fx   worst: %.3fx   -> %s\n",
                r.median_ratio, r.worst_ratio, r.pass ? "PASS" : "FAIL");
    return r.pass ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perf_gate: %s\n", e.what());
    return 2;
  }
}

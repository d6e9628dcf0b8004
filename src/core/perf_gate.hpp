// ge::core::perf_gate — the CI perf-regression gate's comparison engine.
//
// Inputs are two BENCH_<name>.json files as written by bench/harness.hpp's
// BenchReport ({"bench": ..., "rows": [...]}, one row object per line): a
// checked-in baseline (bench/baselines/) and a fresh run. The gate
// compares every metric column present in both files row-by-row (rows
// matched on their "name" field) and fails when any compared cell's
// current/baseline ratio exceeds 1 + threshold.
//
// Each cell is gated on its own: a regression confined to a few rows (one
// error model's campaign, one format's kernel) fails the build even when
// the median across all rows does not move. The median and the worst
// ratio are still reported. Rows present on only one side are reported but
// never fail the gate (bench sets grow across PRs).
#pragma once

#include <map>
#include <string>
#include <vector>

namespace ge::core::perf_gate {

/// One bench case: its name plus every numeric field of its row.
struct BenchRow {
  std::string name;
  std::map<std::string, double> metrics;
};

/// A parsed BENCH_<name>.json file.
struct BenchFile {
  std::string bench;            ///< the "bench" field ("fig3_runtime", ...)
  std::vector<BenchRow> rows;   ///< file order
};

/// Parse a BenchReport JSON file. Throws std::runtime_error on missing or
/// malformed input (a gate that silently passes on bad data is worse than
/// one that errors).
BenchFile load_bench_json(const std::string& path);

/// One compared (row, metric) cell.
struct Comparison {
  std::string row;       ///< bench-case name
  std::string metric;    ///< metric column ("wall_ms", ...)
  double baseline = 0.0;
  double current = 0.0;
  double ratio = 0.0;    ///< current / baseline (1.0 when baseline == 0)
};

struct GateResult {
  std::vector<Comparison> rows;      ///< every compared cell, file order
  std::vector<Comparison> failed;    ///< cells over 1 + threshold, file order
  std::vector<std::string> missing;  ///< names on one side only (informative)
  double median_ratio = 1.0;         ///< median of rows[].ratio
  double worst_ratio = 1.0;          ///< max of rows[].ratio
  bool pass = true;                  ///< failed.empty()
};

/// Compare `current` against `baseline` over the named metrics (for each
/// metric, only rows where both sides carry it numerically participate).
/// `threshold` is fractional: 0.15 fails when any cell regresses >15%.
GateResult compare_bench(const BenchFile& baseline, const BenchFile& current,
                         const std::vector<std::string>& metrics,
                         double threshold);

}  // namespace ge::core::perf_gate

// ge::core::perf_gate (core/perf_gate.cpp): BenchReport JSON parsing and
// the per-cell gate semantics the CI perf job relies on — pass on
// identical runs, fail on a uniform 2x slowdown and on a single slow row,
// report (never fail on) rows present on only one side.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/perf_gate.hpp"

namespace ge::core::perf_gate {
namespace {

std::string tmp_path(const std::string& name) {
  return "/tmp/ge_test_perf_gate_" + name + ".json";
}

// Write a BenchReport-shaped file (bench/harness.hpp format): header line
// opens the rows array, one row object per line with trailing commas.
std::string write_bench(const std::string& name, const std::string& bench,
                        const std::vector<std::string>& rows) {
  const std::string path = tmp_path(name);
  std::ofstream f(path, std::ios::trunc);
  f << "{\"bench\":\"" << bench << "\",\"rows\":[\n";
  for (size_t i = 0; i < rows.size(); ++i) {
    f << rows[i] << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  f << "]}\n";
  return path;
}

std::string row(const std::string& name, double wall_ms,
                double trials_per_sec = 0.0) {
  char buf[256];
  if (trials_per_sec > 0.0) {
    std::snprintf(buf, sizeof(buf),
                  "{\"name\":\"%s\",\"wall_ms\":%.4f,\"iterations\":3,"
                  "\"trials_per_sec\":%.2f}",
                  name.c_str(), wall_ms, trials_per_sec);
  } else {
    std::snprintf(buf, sizeof(buf),
                  "{\"name\":\"%s\",\"wall_ms\":%.4f,\"iterations\":3}",
                  name.c_str(), wall_ms);
  }
  return buf;
}

TEST(PerfGate, LoadsBenchNameRowsAndMetrics) {
  const std::string path = write_bench(
      "load", "fig3_runtime",
      {row("simple_cnn/int8", 12.5, 480.0), row("simple_cnn/fp_e5m10", 31.25)});
  const BenchFile f = load_bench_json(path);
  EXPECT_EQ(f.bench, "fig3_runtime");
  ASSERT_EQ(f.rows.size(), 2u);
  EXPECT_EQ(f.rows[0].name, "simple_cnn/int8");
  EXPECT_DOUBLE_EQ(f.rows[0].metrics.at("wall_ms"), 12.5);
  EXPECT_DOUBLE_EQ(f.rows[0].metrics.at("trials_per_sec"), 480.0);
  EXPECT_DOUBLE_EQ(f.rows[0].metrics.at("iterations"), 3.0);
  EXPECT_EQ(f.rows[1].name, "simple_cnn/fp_e5m10");
  EXPECT_EQ(f.rows[1].metrics.count("trials_per_sec"), 0u);
  std::remove(path.c_str());
}

TEST(PerfGate, MissingOrMalformedFileThrows) {
  EXPECT_THROW(load_bench_json("/tmp/ge_test_perf_gate_no_such.json"),
               std::runtime_error);
  const std::string path = tmp_path("malformed");
  {
    std::ofstream f(path, std::ios::trunc);
    f << "this is not a bench report\n";
  }
  EXPECT_THROW(load_bench_json(path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(PerfGate, IdenticalRunsPass) {
  const std::string base = write_bench(
      "ident_a", "fig3_runtime", {row("a", 10.0), row("b", 20.0)});
  const std::string cur = write_bench(
      "ident_b", "fig3_runtime", {row("a", 10.0), row("b", 20.0)});
  const GateResult r = compare_bench(load_bench_json(base),
                                     load_bench_json(cur), {"wall_ms"}, 0.15);
  ASSERT_EQ(r.rows.size(), 2u);
  EXPECT_DOUBLE_EQ(r.median_ratio, 1.0);
  EXPECT_DOUBLE_EQ(r.worst_ratio, 1.0);
  EXPECT_TRUE(r.pass);
  std::remove(base.c_str());
  std::remove(cur.c_str());
}

TEST(PerfGate, UniformTwoXSlowdownFails) {
  const std::string base = write_bench(
      "slow_a", "fig3_runtime", {row("a", 10.0), row("b", 20.0), row("c", 5.0)});
  const std::string cur = write_bench(
      "slow_b", "fig3_runtime", {row("a", 20.0), row("b", 40.0), row("c", 10.0)});
  const GateResult r = compare_bench(load_bench_json(base),
                                     load_bench_json(cur), {"wall_ms"}, 0.15);
  EXPECT_DOUBLE_EQ(r.median_ratio, 2.0);
  EXPECT_FALSE(r.pass);
  std::remove(base.c_str());
  std::remove(cur.c_str());
}

TEST(PerfGate, SingleSlowRowFailsAndIsNamed) {
  // One 3x row among five steady rows: the median stays 1.0, yet the gate
  // fails and names the row — a regression confined to one bench case
  // (say, one error model's campaign) must not hide behind the others.
  const std::string base =
      write_bench("noise_a", "fig7_prefix_cache",
                  {row("a", 10.0), row("b", 10.0), row("c", 10.0),
                   row("d", 10.0), row("e", 10.0)});
  const std::string cur =
      write_bench("noise_b", "fig7_prefix_cache",
                  {row("a", 10.0), row("b", 30.0), row("c", 10.0),
                   row("d", 10.0), row("e", 10.0)});
  const GateResult r = compare_bench(load_bench_json(base),
                                     load_bench_json(cur), {"wall_ms"}, 0.15);
  EXPECT_DOUBLE_EQ(r.median_ratio, 1.0);
  EXPECT_DOUBLE_EQ(r.worst_ratio, 3.0);
  EXPECT_FALSE(r.pass);
  ASSERT_EQ(r.failed.size(), 1u);
  EXPECT_EQ(r.failed[0].row, "b");
  EXPECT_EQ(r.failed[0].metric, "wall_ms");
  std::remove(base.c_str());
  std::remove(cur.c_str());
}

TEST(PerfGate, ThresholdBoundaryIsInclusive) {
  // a ratio of exactly 1 + threshold passes; just above fails
  const std::string base = write_bench("bound_a", "x", {row("a", 100.0)});
  const std::string at = write_bench("bound_b", "x", {row("a", 115.0)});
  const std::string over = write_bench("bound_c", "x", {row("a", 115.1)});
  const BenchFile b = load_bench_json(base);
  EXPECT_TRUE(compare_bench(b, load_bench_json(at), {"wall_ms"}, 0.15).pass);
  EXPECT_FALSE(compare_bench(b, load_bench_json(over), {"wall_ms"}, 0.15).pass);
  std::remove(base.c_str());
  std::remove(at.c_str());
  std::remove(over.c_str());
}

TEST(PerfGate, RowsOnOneSideAreReportedNotCompared) {
  const std::string base = write_bench(
      "miss_a", "x", {row("shared", 10.0), row("only_base", 1.0)});
  const std::string cur = write_bench(
      "miss_b", "x", {row("shared", 10.0), row("only_cur", 99.0)});
  const GateResult r = compare_bench(load_bench_json(base),
                                     load_bench_json(cur), {"wall_ms"}, 0.15);
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0].row, "shared");
  ASSERT_EQ(r.missing.size(), 2u);
  EXPECT_TRUE(r.pass);
  std::remove(base.c_str());
  std::remove(cur.c_str());
}

TEST(PerfGate, MultipleMetricsEachContributeARatio) {
  // wall_ms regresses 2x but trials_per_sec is only carried by one row;
  // metrics present on one side only are skipped per-cell.
  const std::string base = write_bench(
      "multi_a", "x", {row("a", 10.0, 100.0), row("b", 10.0)});
  const std::string cur = write_bench(
      "multi_b", "x", {row("a", 20.0, 50.0), row("b", 20.0)});
  const GateResult r = compare_bench(
      load_bench_json(base), load_bench_json(cur),
      {"wall_ms", "trials_per_sec"}, 0.15);
  // cells: a/wall 2.0, b/wall 2.0, a/tps 0.5 -> median 2.0
  ASSERT_EQ(r.rows.size(), 3u);
  EXPECT_DOUBLE_EQ(r.median_ratio, 2.0);
  EXPECT_FALSE(r.pass);
  std::remove(base.c_str());
  std::remove(cur.c_str());
}

TEST(PerfGate, ZeroBaselineComparesAsNeutral) {
  const std::string base = write_bench("zero_a", "x", {row("a", 0.0)});
  const std::string cur = write_bench("zero_b", "x", {row("a", 42.0)});
  const GateResult r = compare_bench(load_bench_json(base),
                                     load_bench_json(cur), {"wall_ms"}, 0.15);
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_DOUBLE_EQ(r.rows[0].ratio, 1.0);
  EXPECT_TRUE(r.pass);
  std::remove(base.c_str());
  std::remove(cur.c_str());
}

}  // namespace
}  // namespace ge::core::perf_gate

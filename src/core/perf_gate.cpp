#include "core/perf_gate.hpp"

#include <algorithm>
#include <fstream>
#include <stdexcept>

#include "core/json_scan.hpp"

namespace ge::core::perf_gate {

namespace {

using jsonscan::Record;

/// Trim trailing spaces, tabs, carriage returns, and one trailing comma —
/// BenchReport writes every row except the last with a `,` suffix.
std::string trim_row_line(std::string line) {
  while (!line.empty() &&
         (line.back() == ' ' || line.back() == '\t' || line.back() == '\r')) {
    line.pop_back();
  }
  if (!line.empty() && line.back() == ',') line.pop_back();
  return line;
}

}  // namespace

BenchFile load_bench_json(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw std::runtime_error("perf_gate: cannot open '" + path + "'");
  }
  BenchFile out;
  std::string line;
  bool saw_header = false;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    if (!saw_header) {
      // First line: {"bench":"<name>","rows":[ — close it into a complete
      // object so the flat scanner can extract the bench name.
      const auto header = jsonscan::parse_record(line + "]}");
      if (!header) {
        throw std::runtime_error("perf_gate: '" + path +
                                 "' is not a BenchReport file (bad header)");
      }
      out.bench = jsonscan::get_str(*header, "bench");
      if (out.bench.empty()) {
        throw std::runtime_error("perf_gate: '" + path +
                                 "' has no \"bench\" field");
      }
      saw_header = true;
      continue;
    }
    const std::string trimmed = trim_row_line(line);
    if (trimmed.empty() || trimmed == "]}") continue;
    const auto rec = jsonscan::parse_record(trimmed);
    if (!rec) {
      throw std::runtime_error("perf_gate: '" + path +
                               "' has an unparseable row: " + trimmed);
    }
    BenchRow row;
    row.name = jsonscan::get_str(*rec, "name");
    if (row.name.empty()) continue;  // label-only rows carry no measurements
    for (const auto& field : *rec) {
      if (field.first == "name") continue;
      if (const auto v = jsonscan::get_num(*rec, field.first.c_str())) {
        row.metrics[field.first] = *v;
      }
    }
    out.rows.push_back(std::move(row));
  }
  if (!saw_header) {
    throw std::runtime_error("perf_gate: '" + path + "' is empty");
  }
  return out;
}

GateResult compare_bench(const BenchFile& baseline, const BenchFile& current,
                         const std::vector<std::string>& metrics,
                         double threshold) {
  GateResult out;
  std::map<std::string, const BenchRow*> base_by_name;
  for (const auto& r : baseline.rows) base_by_name[r.name] = &r;
  std::map<std::string, bool> base_seen;
  for (const auto& r : baseline.rows) base_seen[r.name] = false;

  for (const auto& cur : current.rows) {
    const auto it = base_by_name.find(cur.name);
    if (it == base_by_name.end()) {
      out.missing.push_back(cur.name + " (current only)");
      continue;
    }
    base_seen[cur.name] = true;
    const BenchRow& base = *it->second;
    for (const std::string& metric : metrics) {
      const auto bi = base.metrics.find(metric);
      const auto ci = cur.metrics.find(metric);
      if (bi == base.metrics.end() || ci == cur.metrics.end()) continue;
      Comparison c;
      c.row = cur.name;
      c.metric = metric;
      c.baseline = bi->second;
      c.current = ci->second;
      c.ratio = bi->second > 0.0 ? ci->second / bi->second : 1.0;
      if (c.ratio > 1.0 + threshold) out.failed.push_back(c);
      out.rows.push_back(std::move(c));
    }
  }
  for (const auto& [name, seen] : base_seen) {
    if (!seen) out.missing.push_back(name + " (baseline only)");
  }

  if (!out.rows.empty()) {
    std::vector<double> ratios;
    ratios.reserve(out.rows.size());
    for (const auto& c : out.rows) ratios.push_back(c.ratio);
    std::sort(ratios.begin(), ratios.end());
    const size_t n = ratios.size();
    out.median_ratio = n % 2 == 1
                           ? ratios[n / 2]
                           : 0.5 * (ratios[n / 2 - 1] + ratios[n / 2]);
    out.worst_ratio = ratios.back();
  }
  out.pass = out.failed.empty();
  return out;
}

}  // namespace ge::core::perf_gate

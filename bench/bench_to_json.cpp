// bench_to_json — aggregate per-binary --json outputs (pf_sim and
// pf_sim suite records, Google Benchmark documents) into one
// BENCH_*.json trajectory document:
//
//   bench_to_json --out BENCH_all.json paper_figs.json micro.json ...
//
// polarfly-run/1 inputs are parsed record by record (the util/json
// reader) and re-emitted per file with identical run keys deduplicated
// across the whole aggregate — reruns of the same scenario collapse to
// the first occurrence. Google Benchmark's --benchmark_out documents
// are summarized into the same runs[] shape (one synthetic record per
// iteration row: label = benchmark name, pattern = the bench's SetLabel
// tag, cycles/s and real_time folded into perf) so pf_sim keys/diff/
// report can read microbenchmark trajectories too. Any other valid
// JSON is parsed for validity and embedded under "raw".
#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "exp/results.hpp"
#include "util/json.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: bench_to_json --out <path> <run.json> [...]\n");
  return 2;
}

std::string basename_of(const std::string& path) {
  const auto slash = path.find_last_of('/');
  return slash == std::string::npos ? path : path.substr(slash + 1);
}

double seconds_of(double value, const std::string& unit) {
  if (unit == "ns") return value * 1e-9;
  if (unit == "us") return value * 1e-6;
  if (unit == "ms") return value * 1e-3;
  return value;  // "s" (or unknown: leave unscaled)
}

/// One Google Benchmark iteration row -> a synthetic RunRecord that
/// round-trips through parse_bench_aggregate: the benchmark name keys
/// the record, its engine label (SetLabel) lands in `pattern`, and the
/// throughput counter + per-iteration wall time land in perf.
pf::exp::RunRecord summarize_gbench_row(const pf::util::JsonValue& row) {
  pf::exp::RunRecord record;
  record.label = row.at("name").as_string();
  if (const auto* label = row.find("label");
      label != nullptr && label->is_string()) {
    record.pattern = label->as_string();
  }
  std::string unit = "ns";
  if (const auto* u = row.find("time_unit");
      u != nullptr && u->is_string()) {
    unit = u->as_string();
  }
  if (const auto* rt = row.find("real_time"); rt != nullptr) {
    record.perf.wall_seconds = seconds_of(rt->as_double(), unit);
  }
  if (const auto* rate = row.find("cycles/s"); rate != nullptr) {
    record.perf.cycles_per_sec = rate->as_double();
  }
  return record;
}

bool is_gbench_document(const pf::util::JsonValue& parsed) {
  const auto* benchmarks = parsed.find("benchmarks");
  return benchmarks != nullptr && benchmarks->is_array();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace pf;
  std::string out_path;
  std::vector<std::string> inputs;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--out") {
      if (i + 1 >= argc) return usage();
      out_path = argv[++i];
    } else if (arg == "--help" || arg == "-h") {
      return usage();
    } else {
      inputs.push_back(arg);
    }
  }
  if (out_path.empty() || inputs.empty()) return usage();

  util::JsonWriter runs_json;
  runs_json.begin_array();
  util::JsonWriter raw_json;
  raw_json.begin_array();

  std::set<std::string> seen_keys;
  std::size_t records_kept = 0, duplicates = 0, raw_count = 0;
  int failures = 0;
  for (const auto& path : inputs) {
    std::string content;
    if (!util::read_text_file(path, content)) {
      std::fprintf(stderr, "bench_to_json: cannot read %s\n", path.c_str());
      ++failures;
      continue;
    }
    util::JsonValue parsed;
    try {
      parsed = util::json_parse(content);
    } catch (const util::JsonError& e) {
      std::fprintf(stderr, "bench_to_json: %s: %s, skipped\n", path.c_str(),
                   e.what());
      ++failures;
      continue;
    }
    const util::JsonValue* schema = parsed.find("schema");
    if (schema != nullptr && schema->is_string() &&
        schema->as_string() == "polarfly-run/1") {
      exp::RunDocument doc;
      try {
        doc = exp::parse_run_document(parsed);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "bench_to_json: %s: %s, skipped\n",
                     path.c_str(), e.what());
        ++failures;
        continue;
      }
      runs_json.begin_object();
      runs_json.key("file").value(basename_of(path));
      runs_json.key("tool").value(doc.tool);
      runs_json.key("records").begin_array();
      for (const auto& record : doc.records) {
        if (!seen_keys.insert(exp::record_key(record)).second) {
          ++duplicates;
          continue;
        }
        exp::append_record_json(runs_json, record);
        ++records_kept;
      }
      runs_json.end_array();
      runs_json.end_object();
    } else if (is_gbench_document(parsed)) {
      // Google Benchmark --benchmark_out document: summarize each
      // iteration row as a synthetic record so keys/diff/report can
      // read microbenchmark trajectories (aggregate rows — mean/
      // median/stddev under repetitions — are skipped; the iteration
      // rows carry the counters).
      runs_json.begin_object();
      runs_json.key("file").value(basename_of(path));
      runs_json.key("tool").value("google-benchmark");
      runs_json.key("records").begin_array();
      for (const auto& row : parsed.at("benchmarks").items()) {
        if (const auto* rt = row.find("run_type");
            rt != nullptr && rt->is_string() &&
            rt->as_string() != "iteration") {
          continue;
        }
        const exp::RunRecord record = summarize_gbench_row(row);
        if (!seen_keys.insert(exp::record_key(record)).second) {
          ++duplicates;
          continue;
        }
        exp::append_record_json(runs_json, record);
        ++records_kept;
      }
      runs_json.end_array();
      runs_json.end_object();
    } else {
      // Foreign but valid JSON: embed as parsed.
      raw_json.begin_object();
      raw_json.key("file").value(basename_of(path));
      raw_json.key("data");
      parsed.write(raw_json);
      raw_json.end_object();
      ++raw_count;
    }
  }
  runs_json.end_array();
  raw_json.end_array();

  util::JsonWriter json;
  json.begin_object();
  json.key("schema").value("polarfly-bench-aggregate/2");
  json.key("runs").raw(runs_json.str());
  json.key("raw").raw(raw_json.str());
  json.end_object();

  if (!util::write_text_file(out_path, json.str() + "\n")) {
    std::fprintf(stderr, "bench_to_json: cannot write %s\n",
                 out_path.c_str());
    return 1;
  }
  std::printf(
      "bench_to_json: %zu record(s) (%zu duplicate key(s) dropped), "
      "%zu raw document(s) -> %s\n",
      records_kept, duplicates, raw_count, out_path.c_str());
  return failures == 0 ? 0 : 1;
}

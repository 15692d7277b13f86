// Machine-readable bench output.
//
// Every bench binary accepts `--smoke` (a fast, reduced-workload run).  A
// bench whose headline numbers are deterministic then writes them to
// `BENCH_<name>.json` in the current directory, next to the usual
// human-readable tables.  Each such file is an exact ctest golden
// (tests/golden/bench/, golden_bench_<name>), so only virtual-time results
// belong here: a number that depends on the OS scheduler or the wall clock
// stays in the printed table.
//
// File shape (deterministic key order, one metric per row):
//
//   {"bench":"transitions","smoke":true,"metrics":[
//     {"name":"ecall_ns.unpatched","value":4205,"unit":"ns"}, ...]}
#pragma once

#include <cstdio>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "support/json.hpp"

namespace bench {

/// True when `--smoke` is among the arguments.
inline bool smoke_flag(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--smoke") return true;
  }
  return false;
}

/// Accumulates named scalar results; write() emits BENCH_<name>.json.
class JsonReport {
 public:
  JsonReport(std::string name, bool smoke) : name_(std::move(name)), smoke_(smoke) {}

  void metric(std::string_view metric, double value, std::string_view unit = "") {
    rows_.push_back({std::string(metric), value, std::string(unit)});
  }

  /// Writes `BENCH_<name>.json` into the current directory.  Returns false
  /// (and reports to stderr) on IO failure so the bench can exit nonzero.
  [[nodiscard]] bool write() const {
    support::json::Writer w;
    w.begin_object();
    w.kv("schema_version", support::json::kSchemaVersion);
    w.kv("bench", name_);
    w.kv("smoke", smoke_);
    w.key("metrics");
    w.begin_array();
    for (const auto& row : rows_) {
      w.begin_object();
      w.kv("name", row.name);
      w.kv("value", row.value);
      w.kv("unit", row.unit);
      w.end_object();
    }
    w.end_array();
    w.end_object();

    const std::string path = "BENCH_" + name_ + ".json";
    std::FILE* f = std::fopen(path.c_str(), "wb");
    if (f == nullptr) {
      std::fprintf(stderr, "bench: cannot open %s for writing\n", path.c_str());
      return false;
    }
    const std::string& text = w.str();
    const bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size() &&
                    std::fputc('\n', f) != EOF && std::fclose(f) == 0;
    if (!ok) std::fprintf(stderr, "bench: short write to %s\n", path.c_str());
    else std::printf("bench results written to %s\n", path.c_str());
    return ok;
  }

 private:
  struct Row {
    std::string name;
    double value = 0.0;
    std::string unit;
  };

  std::string name_;
  bool smoke_;
  std::vector<Row> rows_;
};

}  // namespace bench

#include "perf/report.hpp"

#include <algorithm>
#include <map>
#include <set>

#include "support/strutil.hpp"

namespace perf {

using support::format;
using tracedb::CallKey;
using tracedb::CallType;

std::string render_text(const AnalysisReport& report) {
  std::string out;
  out += "================ sgx-perf analysis report ================\n\n";

  for (const auto& ov : report.overviews) {
    out += format("enclave %llu%s%s\n", static_cast<unsigned long long>(ov.enclave_id),
                  ov.name.empty() ? "" : " — ", ov.name.c_str());
    if (ov.ecalls_defined > 0 || ov.ocalls_defined > 0) {
      out += format("  interface: %zu ecalls, %zu ocalls defined\n", ov.ecalls_defined,
                    ov.ocalls_defined);
    }
    out += format("  observed:  %zu ecalls called %zu times, %zu ocalls called %zu times\n",
                  ov.ecalls_called, ov.ecall_instances, ov.ocalls_called, ov.ocall_instances);
    out += format("  short:     %.2f%% of ecalls and %.2f%% of ocalls were shorter than 10us\n",
                  100.0 * ov.ecalls_below_10us, 100.0 * ov.ocalls_below_10us);
    if (ov.page_ins + ov.page_outs > 0) {
      out += format("  paging:    %zu page-ins, %zu page-outs\n", ov.page_ins, ov.page_outs);
    }
    out += "\n";
  }

  out += "---- general statistics (top call sites by count) ----\n";
  out += format("%-48s %10s %10s %10s %10s %10s %10s %8s\n", "call", "count", "mean[us]",
                "p50[us]", "p90[us]", "p99[us]", "p99.9[us]", "aex");
  const std::size_t limit = std::min<std::size_t>(report.stats.size(), 40);
  for (std::size_t i = 0; i < limit; ++i) {
    const auto& s = report.stats[i];
    const char* type = s.key.type == CallType::kEcall ? "E" : "O";
    out += format("%s %-46s %10zu %10.2f %10.2f %10.2f %10.2f %10.2f %8llu\n", type,
                  s.name.c_str(), s.duration_ns.count, s.duration_ns.mean / 1e3,
                  static_cast<double>(s.p50_ns) / 1e3, static_cast<double>(s.p90_ns) / 1e3,
                  static_cast<double>(s.p99_ns) / 1e3, static_cast<double>(s.p999_ns) / 1e3,
                  static_cast<unsigned long long>(s.aex_total));
  }
  if (report.stats.size() > limit) {
    out += format("  ... and %zu more call sites\n", report.stats.size() - limit);
  }
  if (report.dropped_events > 0) {
    out += format(
        "WARNING: %llu event(s) were dropped by sealed trace shards during "
        "recording — this trace is incomplete and the statistics above "
        "undercount.\n",
        static_cast<unsigned long long>(report.dropped_events));
  }
  if (report.stream_dropped > 0) {
    out += format(
        "note: %llu event(s) were dropped by live streaming subscribers — the "
        "recorded trace itself is complete, only live consumers lagged.\n",
        static_cast<unsigned long long>(report.stream_dropped));
  }
  out += "\n";

  out += format("---- findings (%zu) ----\n", report.findings.size());
  std::size_t n = 0;
  for (const auto& f : report.findings) {
    out += format("[%zu] %s: %s", ++n, to_string(f.kind), f.subject_name.c_str());
    if (f.partner) out += format(" (with %s)", f.partner_name.c_str());
    out += "\n";
    out += format("     %s\n", f.detail.c_str());
    for (const auto& r : f.recommendations) {
      out += format("     -> %s", to_string(r.action));
      if (!r.scenario.empty() || r.predicted_speedup != 1.0) {
        out += format(" [predicted %.2fx", r.predicted_speedup);
        if (r.best_workers > 0) out += format(", %zu worker(s)", r.best_workers);
        out += "]";
      }
      out += "\n";
    }
  }
  if (report.findings.empty()) {
    out += "  no problems detected — the enclave interface looks well designed\n";
  }
  return out;
}

std::string render_callgraph_dot(const tracedb::TraceDatabase& db) {
  const auto& calls = db.calls();
  const auto indirect = tracedb::indirect_parents(db);

  // Aggregate direct and indirect edges by (parent key, child key).
  std::map<std::pair<CallKey, CallKey>, std::uint64_t> direct_edges;
  std::map<std::pair<CallKey, CallKey>, std::uint64_t> indirect_edges;
  std::set<CallKey> nodes;

  for (std::size_t i = 0; i < calls.size(); ++i) {
    const auto& c = calls[i];
    const CallKey ck{c.enclave_id, c.type, c.call_id};
    nodes.insert(ck);
    if (c.parent != tracedb::kNoParent) {
      const auto& p = calls[static_cast<std::size_t>(c.parent)];
      ++direct_edges[{CallKey{p.enclave_id, p.type, p.call_id}, ck}];
    }
    if (indirect[i] != tracedb::kNoParent) {
      const auto& p = calls[static_cast<std::size_t>(indirect[i])];
      ++indirect_edges[{CallKey{p.enclave_id, p.type, p.call_id}, ck}];
    }
  }

  auto node_id = [](const CallKey& k) {
    return format("%s_%llu_%u", k.type == CallType::kEcall ? "e" : "o",
                  static_cast<unsigned long long>(k.enclave_id), k.call_id);
  };

  std::string out = "digraph calls {\n  rankdir=TB;\n  node [fontsize=10];\n";
  for (const auto& k : nodes) {
    const std::string name = db.name_of(k.enclave_id, k.type, k.call_id);
    // Square nodes are ecalls, round nodes are ocalls (Figure 5).
    out += format("  %s [label=\"[%u] %s\", shape=%s];\n", node_id(k).c_str(), k.call_id,
                  name.c_str(), k.type == CallType::kEcall ? "box" : "ellipse");
  }
  for (const auto& [edge, count] : direct_edges) {
    out += format("  %s -> %s [label=\"%llu\", style=solid];\n", node_id(edge.first).c_str(),
                  node_id(edge.second).c_str(), static_cast<unsigned long long>(count));
  }
  for (const auto& [edge, count] : indirect_edges) {
    out += format("  %s -> %s [label=\"%llu\", style=dashed];\n", node_id(edge.first).c_str(),
                  node_id(edge.second).c_str(), static_cast<unsigned long long>(count));
  }
  out += "}\n";
  return out;
}

support::Histogram duration_histogram(const tracedb::TraceDatabase& db, const CallKey& key,
                                      std::size_t bins) {
  const auto durations = tracedb::durations_of(db, key);
  std::vector<double> us;
  us.reserve(durations.size());
  for (const auto d : durations) us.push_back(static_cast<double>(d) / 1e3);
  return support::Histogram::from_values(us, bins);
}

std::string scatter_csv(const tracedb::TraceDatabase& db, const CallKey& key) {
  std::string out = "time_since_start_ns,duration_ns\n";
  const auto points = tracedb::scatter_of(db, key);
  if (points.empty()) return out;
  const std::uint64_t t0 = points.front().first;
  for (const auto& [start, duration] : points) {
    out += format("%llu,%llu\n", static_cast<unsigned long long>(start - t0),
                  static_cast<unsigned long long>(duration));
  }
  return out;
}

std::string render_scatter_ascii(const tracedb::TraceDatabase& db, const CallKey& key,
                                 std::size_t width, std::size_t height) {
  const auto points = tracedb::scatter_of(db, key);
  if (points.empty()) return "(no data)\n";

  std::uint64_t t_min = points.front().first;
  std::uint64_t t_max = t_min;
  std::uint64_t d_min = points.front().second;
  std::uint64_t d_max = d_min;
  for (const auto& [t, d] : points) {
    t_min = std::min(t_min, t);
    t_max = std::max(t_max, t);
    d_min = std::min(d_min, d);
    d_max = std::max(d_max, d);
  }
  const double t_span = std::max<double>(1.0, static_cast<double>(t_max - t_min));
  const double d_span = std::max<double>(1.0, static_cast<double>(d_max - d_min));

  std::vector<std::string> grid(height, std::string(width, ' '));
  for (const auto& [t, d] : points) {
    const auto x = static_cast<std::size_t>(static_cast<double>(t - t_min) / t_span *
                                            static_cast<double>(width - 1));
    const auto y = static_cast<std::size_t>(static_cast<double>(d - d_min) / d_span *
                                            static_cast<double>(height - 1));
    char& cell = grid[height - 1 - y][x];
    cell = cell == ' ' ? '.' : (cell == '.' ? 'o' : '#');
  }

  std::string out = format("duration [%s .. %s] over time [0 .. %s]\n",
                           support::format_duration_ns(d_min).c_str(),
                           support::format_duration_ns(d_max).c_str(),
                           support::format_duration_ns(t_max - t_min).c_str());
  for (const auto& row : grid) out += "|" + row + "|\n";
  return out;
}

}  // namespace perf

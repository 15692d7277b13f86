// E4 — §5.2.2 / Figure 6 (left): minidb (SQLite stand-in) insert throughput.
//
// Replays synthetic git commits (one transaction per commit) into a
// persistent database in three builds:
//   native      — engine runs untrusted
//   enclavised  — engine inside the enclave, syscalls naively as ocalls
//   optimised   — lseek+write merged into one pwrite ocall (sgx-perf's
//                 recommendation after detecting the SDSC pair)
// and at three patch levels for the Figure 6 normalisation.  Also verifies
// the analyser flags the lseek->write merge and prints the top-3 ocalls by
// total time (paper: lseek, write and fsync each ~33% of ocall time).
#include <cstdio>
#include <map>

#include "bench_json.hpp"
#include "minidb/enclave_db.hpp"
#include "minidb/workload.hpp"
#include "perf/analyzer.hpp"
#include "perf/logger.hpp"

namespace {

using namespace minidb;

std::uint64_t kCommits = 400;  // --smoke: 100

struct RunResult {
  double requests_per_s = 0.0;
  std::uint64_t records = 0;
};

/// One run: replay kCommits commits, report records/s in virtual time.
RunResult run_native(sgxsim::Urts& urts) {
  HostVfs vfs(urts.clock());
  Database db(vfs, "/bench-native.db");
  CommitGenerator gen;
  RunResult result;
  const auto t0 = urts.clock().now();
  for (std::uint64_t i = 0; i < kCommits; ++i) result.records += replay_commit(db, gen.make(i));
  const auto elapsed = urts.clock().now() - t0;
  result.requests_per_s =
      static_cast<double>(result.records) / (static_cast<double>(elapsed) / 1e9);
  return result;
}

RunResult run_enclavised(sgxsim::Urts& urts, WriteMode mode) {
  HostVfs vfs(urts.clock());
  DbEnclave db(urts, vfs, mode);
  db.open("/bench-enclave.db");
  CommitGenerator gen;
  RunResult result;
  const auto t0 = urts.clock().now();
  for (std::uint64_t i = 0; i < kCommits; ++i) {
    db.begin();
    for (const auto& [k, v] : gen.make(i).to_records()) {
      db.put_in_txn(k, v);
      ++result.records;
    }
    db.commit();
  }
  const auto elapsed = urts.clock().now() - t0;
  result.requests_per_s =
      static_cast<double>(result.records) / (static_cast<double>(elapsed) / 1e9);
  db.close_db();
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = bench::smoke_flag(argc, argv);
  bench::JsonReport json("sqlite", smoke);
  if (smoke) kCommits = 100;
  std::printf("=== E4: minidb insert throughput (paper §5.2.2, Fig. 6 left) ===\n");
  std::printf("paper: native 23,087 req/s; enclavised 13,160 (0.57x); merged 17,483 (+33%%)\n\n");

  std::printf("%-16s %14s %14s %14s %12s %12s\n", "patch level", "native[req/s]", "enclave",
              "optimised", "encl/nat", "opt/encl");
  for (const auto lvl : {sgxsim::PatchLevel::kUnpatched, sgxsim::PatchLevel::kSpectre,
                         sgxsim::PatchLevel::kSpectreL1tf}) {
    sgxsim::Urts urts(sgxsim::CostModel::preset(lvl));
    const RunResult native = run_native(urts);
    const RunResult enclave = run_enclavised(urts, WriteMode::kSeekThenWrite);
    const RunResult optimised = run_enclavised(urts, WriteMode::kMergedPwrite);
    std::printf("%-16s %14.0f %14.0f %14.0f %11.2fx %11.2fx\n", sgxsim::to_string(lvl),
                native.requests_per_s, enclave.requests_per_s, optimised.requests_per_s,
                enclave.requests_per_s / native.requests_per_s,
                optimised.requests_per_s / enclave.requests_per_s);
    const std::string lvl_name = sgxsim::to_string(lvl);
    json.metric("native_req_per_s." + lvl_name, native.requests_per_s, "req/s");
    json.metric("enclave_req_per_s." + lvl_name, enclave.requests_per_s, "req/s");
    json.metric("optimised_req_per_s." + lvl_name, optimised.requests_per_s, "req/s");
    json.metric("merge_speedup." + lvl_name,
                optimised.requests_per_s / enclave.requests_per_s, "x");
  }

  // --- the analysis pass that motivates the merge ------------------------------
  sgxsim::Urts urts;
  tracedb::TraceDatabase trace;
  perf::Logger logger(trace);
  logger.attach(urts);
  (void)run_enclavised(urts, WriteMode::kSeekThenWrite);
  logger.detach();

  perf::Analyzer analyzer(trace);
  analyzer.set_interface(1, sgxsim::edl::parse(kDbEdl));
  const auto report = analyzer.analyze();

  std::printf("\n--- ocalls by share of total ocall time (paper: lseek/write/fsync ~33%% each) ---\n");
  double total_ocall_ns = 0;
  for (const auto& s : report.stats) {
    if (s.key.type == tracedb::CallType::kOcall) total_ocall_ns += s.duration_ns.sum;
  }
  std::printf("%-28s %10s %12s %10s\n", "ocall", "count", "mean[us]", "share");
  for (const auto& s : report.stats) {
    if (s.key.type != tracedb::CallType::kOcall) continue;
    const double share = s.duration_ns.sum / total_ocall_ns;
    if (share < 0.02) continue;
    std::printf("%-28s %10zu %12.2f %9.1f%%\n", s.name.c_str(), s.duration_ns.count,
                s.duration_ns.mean / 1e3, 100.0 * share);
  }

  std::printf("\n--- analyser findings on the naive build ---\n");
  bool merge_found = false;
  std::size_t shown = 0;
  for (const auto& f : report.findings) {
    if (shown < 8) {
      std::printf("[%zu] %s: %s%s%s\n", ++shown, perf::to_string(f.kind),
                  f.subject_name.c_str(), f.partner ? " <- follows " : "",
                  f.partner ? f.partner_name.c_str() : "");
    }
    if (f.kind == perf::FindingKind::kMergeable && f.subject_name == "ocall_vfs_write" &&
        f.partner_name == "ocall_vfs_lseek") {
      merge_found = true;
    }
  }
  std::printf("\nSDSC merge of lseek+write detected: %s (the paper's key finding)\n",
              merge_found ? "YES" : "NO");
  json.metric("sdsc_merge_detected", merge_found ? 1.0 : 0.0, "bool");
  if (!json.write()) return 1;
  return merge_found ? 0 : 1;
}

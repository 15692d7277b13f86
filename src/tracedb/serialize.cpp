// Flat-file persistence and CSV export for TraceDatabase.
//
// The flat file is the magic "SGXPTRC6" followed by the tables, each laid
// out by the shared row codec (codec.hpp), in this order: calls, AEXs,
// paging, syncs, enclaves, call names, the dropped-event count, metric
// series, metric samples, the stream-drop count, latencies (after their HDR
// bucket geometry), the window period, windows, window sites, alerts, order
// rules.  The SGXSTORE directory (store/) carries the same rows in other
// sections.  load() accepts only this format; every other magic, including
// the older SGXPTRC1-5, is rejected.  load() maps the file read-only for the
// duration of the decode, so a file truncated in place while it loads can
// fault the reader: a writer that races readers uses save_trace_atomic().
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <stdexcept>
#include <string>

#include "telemetry/hdr_histogram.hpp"
#include "tracedb/codec.hpp"
#include "tracedb/database.hpp"

namespace tracedb {
namespace {

constexpr char kMagic[8] = {'S', 'G', 'X', 'P', 'T', 'R', 'C', '6'};

struct FileCloser {
  void operator()(std::FILE* f) const noexcept {
    if (f != nullptr) std::fclose(f);
  }
};
using FilePtr = std::unique_ptr<std::FILE, FileCloser>;

}  // namespace

void TraceDatabase::save(const std::string& path) const {
  std::lock_guard lock(mu_);
  for (const auto& shard : shards_) {
    if (!shard->drained() && shard->events_recorded() > 0) {
      throw std::logic_error(
          "tracedb: save() with unmerged shard events — call merge_shards() first");
    }
  }
  codec::BufWriter w;
  w.bytes(kMagic, sizeof(kMagic));
  w.u64(calls_.size());
  codec::write_calls(w, calls_);
  w.u64(aexs_.size());
  codec::write_aexs(w, aexs_);
  w.u64(paging_.size());
  codec::write_paging(w, paging_);
  w.u64(syncs_.size());
  codec::write_syncs(w, syncs_);
  codec::write_enclaves(w, enclaves_);
  codec::write_call_names(w, call_names_);
  w.u64(dropped_events_);
  codec::write_metric_series(w, metric_series_);
  codec::write_metric_samples(w, metric_samples_);
  w.u64(stream_dropped_);
  codec::write_latencies(w, latencies_);
  w.u64(window_period_);
  codec::write_windows(w, windows_);
  codec::write_window_sites(w, window_sites_);
  codec::write_alerts(w, alerts_);
  codec::write_order_rules(w, order_rules_);

  FilePtr f(std::fopen(path.c_str(), "wb"));
  if (!f) throw std::runtime_error("tracedb: cannot open for writing: " + path);
  const std::string& bytes = w.str_ref();
  if (std::fwrite(bytes.data(), 1, bytes.size(), f.get()) != bytes.size() ||
      std::fclose(f.release()) != 0) {
    throw std::runtime_error("tracedb: write failed: " + path);
  }
}

TraceDatabase TraceDatabase::load(const std::string& path) {
  const codec::MappedFile file(path, "tracedb", "trace file");
  codec::SpanReader r(file.data(), file.size(), "tracedb", "trace file " + path);
  char magic[8];
  r.bytes(magic, sizeof(magic));
  if (std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) r.fail("bad magic");

  TraceDatabase db;
  codec::read_calls(r, r.u64(), db.calls_, 0, /*check_parents=*/true);
  codec::read_aexs(r, r.u64(), db.aexs_, 0);
  codec::read_paging(r, r.u64(), db.paging_);
  codec::read_syncs(r, r.u64(), db.syncs_);
  codec::read_enclaves(r, db.enclaves_);
  codec::read_call_names(r, db.call_names_);
  db.dropped_events_ = r.u64();
  codec::read_metric_series(r, db.metric_series_);
  codec::read_metric_samples(r, db.metric_samples_);
  db.stream_dropped_ = r.u64();
  codec::read_latencies(r, db.latencies_);
  db.window_period_ = r.u64();
  codec::read_windows(r, db.windows_);
  codec::read_window_sites(r, db.window_sites_, db.windows_.size());
  codec::read_alerts(r, db.alerts_);
  codec::read_order_rules(r, db.order_rules_);
  return db;
}

void TraceDatabase::export_csv(const std::string& directory) const {
  std::lock_guard lock(mu_);
  namespace fs = std::filesystem;
  fs::create_directories(directory);

  auto open = [&](const char* name) {
    const std::string path = directory + "/" + name;
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) throw std::runtime_error("tracedb: cannot write " + path);
    return FilePtr(f);
  };

  {
    FilePtr f = open("calls.csv");
    std::fprintf(f.get(),
                 "index,type,kind,thread_id,enclave_id,call_id,parent,start_ns,end_ns,"
                 "duration_ns,aex_count\n");
    for (std::size_t i = 0; i < calls_.size(); ++i) {
      const auto& c = calls_[i];
      std::fprintf(f.get(), "%zu,%u,%u,%u,%llu,%u,%lld,%llu,%llu,%llu,%u\n", i,
                   static_cast<unsigned>(c.type), static_cast<unsigned>(c.kind), c.thread_id,
                   static_cast<unsigned long long>(c.enclave_id), c.call_id,
                   static_cast<long long>(c.parent),
                   static_cast<unsigned long long>(c.start_ns),
                   static_cast<unsigned long long>(c.end_ns),
                   static_cast<unsigned long long>(c.duration()), c.aex_count);
    }
  }
  {
    FilePtr f = open("aexs.csv");
    std::fprintf(f.get(), "thread_id,enclave_id,timestamp_ns,during_call,cause\n");
    for (const auto& a : aexs_) {
      const char* cause = a.cause == AexCause::kInterrupt
                              ? "interrupt"
                              : (a.cause == AexCause::kPageFault ? "page_fault" : "unknown");
      std::fprintf(f.get(), "%u,%llu,%llu,%lld,%s\n", a.thread_id,
                   static_cast<unsigned long long>(a.enclave_id),
                   static_cast<unsigned long long>(a.timestamp_ns),
                   static_cast<long long>(a.during_call), cause);
    }
  }
  {
    FilePtr f = open("paging.csv");
    std::fprintf(f.get(), "enclave_id,page_number,direction,timestamp_ns\n");
    for (const auto& p : paging_) {
      std::fprintf(f.get(), "%llu,%llu,%s,%llu\n",
                   static_cast<unsigned long long>(p.enclave_id),
                   static_cast<unsigned long long>(p.page_number),
                   p.direction == PageDirection::kPageIn ? "in" : "out",
                   static_cast<unsigned long long>(p.timestamp_ns));
    }
  }
  {
    FilePtr f = open("syncs.csv");
    std::fprintf(f.get(), "kind,thread_id,target_thread_id,enclave_id,timestamp_ns\n");
    for (const auto& s : syncs_) {
      std::fprintf(f.get(), "%s,%u,%u,%llu,%llu\n",
                   s.kind == SyncKind::kSleep ? "sleep" : "wakeup", s.thread_id,
                   s.target_thread_id, static_cast<unsigned long long>(s.enclave_id),
                   static_cast<unsigned long long>(s.timestamp_ns));
    }
  }
  {
    FilePtr f = open("enclaves.csv");
    std::fprintf(f.get(), "enclave_id,name,created_ns,destroyed_ns,tcs_count,size_bytes\n");
    for (const auto& e : enclaves_) {
      std::fprintf(f.get(), "%llu,%s,%llu,%llu,%u,%llu\n",
                   static_cast<unsigned long long>(e.enclave_id), e.name.c_str(),
                   static_cast<unsigned long long>(e.created_ns),
                   static_cast<unsigned long long>(e.destroyed_ns), e.tcs_count,
                   static_cast<unsigned long long>(e.size_bytes));
    }
  }
  {
    FilePtr f = open("call_names.csv");
    std::fprintf(f.get(), "enclave_id,type,call_id,name\n");
    for (const auto& n : call_names_) {
      std::fprintf(f.get(), "%llu,%s,%u,%s\n", static_cast<unsigned long long>(n.enclave_id),
                   n.type == CallType::kEcall ? "ecall" : "ocall", n.call_id, n.name.c_str());
    }
  }
  {
    FilePtr f = open("metric_series.csv");
    std::fprintf(f.get(), "series_id,kind,name,unit\n");
    for (const auto& s : metric_series_) {
      std::fprintf(f.get(), "%u,%s,%s,%s\n", s.series_id,
                   s.kind == MetricKind::kCounter ? "counter" : "gauge", s.name.c_str(),
                   s.unit.c_str());
    }
  }
  {
    FilePtr f = open("metric_samples.csv");
    std::fprintf(f.get(), "series_id,timestamp_ns,value\n");
    for (const auto& s : metric_samples_) {
      std::fprintf(f.get(), "%u,%llu,%.17g\n", s.series_id,
                   static_cast<unsigned long long>(s.timestamp_ns), s.value);
    }
  }
  {
    FilePtr f = open("latency.csv");
    std::fprintf(f.get(), "enclave_id,type,call_id,count,sum_ns,p50_ns,p90_ns,p99_ns,p999_ns\n");
    for (const auto& l : latencies_) {
      const telemetry::HdrSnapshot snap = snapshot_of(l);
      std::fprintf(f.get(), "%llu,%s,%u,%llu,%llu,%llu,%llu,%llu,%llu\n",
                   static_cast<unsigned long long>(l.enclave_id),
                   l.type == CallType::kEcall ? "ecall" : "ocall", l.call_id,
                   static_cast<unsigned long long>(l.count),
                   static_cast<unsigned long long>(l.sum_ns),
                   static_cast<unsigned long long>(snap.value_at_percentile(50)),
                   static_cast<unsigned long long>(snap.value_at_percentile(90)),
                   static_cast<unsigned long long>(snap.value_at_percentile(99)),
                   static_cast<unsigned long long>(snap.value_at_percentile(99.9)));
    }
  }
  {
    FilePtr f = open("windows.csv");
    std::fprintf(f.get(),
                 "window_index,start_ns,end_ns,calls,aexs,page_ins,page_outs,stream_dropped,"
                 "switchless_calls,switchless_fallbacks,switchless_wasted_ns,active_alerts\n");
    for (const auto& w : windows_) {
      std::fprintf(f.get(), "%u,%llu,%llu,%llu,%llu,%llu,%llu,%llu,%llu,%llu,%llu,%u\n",
                   w.window_index, static_cast<unsigned long long>(w.start_ns),
                   static_cast<unsigned long long>(w.end_ns),
                   static_cast<unsigned long long>(w.calls),
                   static_cast<unsigned long long>(w.aexs),
                   static_cast<unsigned long long>(w.page_ins),
                   static_cast<unsigned long long>(w.page_outs),
                   static_cast<unsigned long long>(w.stream_dropped),
                   static_cast<unsigned long long>(w.switchless_calls),
                   static_cast<unsigned long long>(w.switchless_fallbacks),
                   static_cast<unsigned long long>(w.switchless_wasted_ns), w.active_alerts);
    }
  }
  {
    FilePtr f = open("window_sites.csv");
    std::fprintf(f.get(),
                 "window_index,enclave_id,type,call_id,calls,aex_count,p50_ns,p99_ns\n");
    for (const auto& s : window_sites_) {
      std::fprintf(f.get(), "%u,%llu,%s,%u,%llu,%llu,%llu,%llu\n", s.window_index,
                   static_cast<unsigned long long>(s.enclave_id),
                   s.type == CallType::kEcall ? "ecall" : "ocall", s.call_id,
                   static_cast<unsigned long long>(s.calls),
                   static_cast<unsigned long long>(s.aex_count),
                   static_cast<unsigned long long>(s.p50_ns),
                   static_cast<unsigned long long>(s.p99_ns));
    }
  }
  {
    FilePtr f = open("alerts.csv");
    std::fprintf(f.get(),
                 "kind,enclave_id,type,call_id,onset_ns,resolved_ns,window_index,detail\n");
    for (const auto& a : alerts_) {
      std::fprintf(f.get(), "%u,%llu,%s,%u,%llu,%llu,%u,%llu\n",
                   static_cast<unsigned>(a.kind), static_cast<unsigned long long>(a.enclave_id),
                   a.type == CallType::kEcall ? "ecall" : "ocall", a.call_id,
                   static_cast<unsigned long long>(a.onset_ns),
                   static_cast<unsigned long long>(a.resolved_ns), a.window_index,
                   static_cast<unsigned long long>(a.detail));
    }
  }
  {
    FilePtr f = open("order_rules.csv");
    std::fprintf(f.get(), "enclave_id,rule,a,b\n");
    for (const auto& rule : order_rules_) {
      static constexpr const char* kRuleNames[] = {"init", "entry", "known", "edge",
                                                   "reentrant_ok"};
      std::fprintf(f.get(), "%llu,%s,%u,%u\n",
                   static_cast<unsigned long long>(rule.enclave_id),
                   kRuleNames[static_cast<std::size_t>(rule.rule)], rule.a, rule.b);
    }
  }
}

}  // namespace tracedb

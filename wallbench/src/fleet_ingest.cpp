// fleet-ingest: a long-lived aggregator fed by many producers while
// dashboards poll it.
//
// Set-up records the wire byte streams of 16 corpus producers (the four
// corpus stressors x two seeds x two hosts).  The timed phase replays them
// into a fresh fleet::Aggregator per round, round-robin in 4 KiB chunks
// (the size of one socket read), with a dashboard refresh (snapshot, top by
// p99/transitions/paging, alerts) every kRefreshEvery chunks.  The socket
// daemon is left out on purpose: its poll loop measures the scheduler.
#include <optional>
#include <string>
#include <vector>

#include "common.hpp"
#include "fleet/aggregator.hpp"
#include "fleet/corpus.hpp"
#include "fleet/wire.hpp"
#include "support/json.hpp"

namespace wallbench {

namespace {

constexpr std::size_t kChunk = 4096;
constexpr std::size_t kRefreshEvery = 64;
constexpr std::size_t kTopN = 10;

struct Names {
  SpanRecorder::NameId open, ingest, refresh, snapshot, top, alerts, close, parse;

  explicit Names(SpanRecorder& r)
      : open(r.name("fleet.aggregator.open")),
        ingest(r.name("fleet.aggregator.ingest")),
        refresh(r.name("bench.refresh")),
        snapshot(r.name("fleet.aggregator.snapshot")),
        top(r.name("fleet.aggregator.top")),
        alerts(r.name("fleet.aggregator.alerts")),
        close(r.name("fleet.aggregator.close")),
        parse(r.name("fleet.wire.parse")) {}
};

struct Phase {
  std::vector<double> op_ms;
  std::vector<double> query_ms;
  std::uint64_t ops = 0;
  std::uint64_t bytes = 0;
  std::uint64_t windows_merged = 0;
  std::uint64_t quarantined = 0;
  double wall_s = 0.0;
};

/// Producer counters from the aggregator's status document.
struct ProducerHealth {
  std::uint64_t total = 0, clean = 0, lossy = 0, quarantined = 0, deaths = 0;
};

ProducerHealth health_of(const fleet::Aggregator& agg) {
  const auto doc = support::json::parse(agg.status_json());
  const auto* p = doc.find("producers");
  ProducerHealth h;
  if (p == nullptr) return h;
  const auto num = [&](const char* k) {
    const auto* v = p->find(k);
    return v != nullptr && v->is_number() ? static_cast<std::uint64_t>(v->number) : 0;
  };
  h.total = num("total");
  h.clean = num("clean");
  h.lossy = num("lossy");
  h.quarantined = num("quarantined");
  h.deaths = num("mid_stream_death");
  return h;
}

/// One aggregation round; returns the final snapshot.
std::string run_round(const std::vector<std::string>& streams, SpanRecorder* rec,
                      const Names* n, Phase& ph) {
  const auto id = [&](SpanRecorder::NameId Names::*f) { return n != nullptr ? n->*f : 0; };
  std::optional<fleet::Aggregator> agg_slot;
  std::vector<fleet::ProducerId> ids;
  {
    SpanScope sp(rec, id(&Names::open), ph.ops);
    agg_slot.emplace();
    for (std::size_t i = 0; i < streams.size(); ++i) ids.push_back(agg_slot->connect());
  }
  fleet::Aggregator& agg = *agg_slot;
  std::vector<std::size_t> offsets(streams.size(), 0);
  for (bool progress = true; progress;) {
    progress = false;
    for (std::size_t i = 0; i < streams.size(); ++i) {
      const std::string& s = streams[i];
      if (offsets[i] >= s.size()) continue;
      const std::size_t len = std::min(kChunk, s.size() - offsets[i]);
      const auto t0 = Clock::now();
      {
        SpanScope sp(rec, id(&Names::ingest), ph.ops);
        agg.ingest(ids[i], s.data() + offsets[i], len);
      }
      const auto t1 = Clock::now();
      ph.op_ms.push_back(static_cast<double>(ns_between(t0, t1)) / 1e6);
      ++ph.ops;
      rotator().tick(t1);
      ph.bytes += len;
      offsets[i] += len;
      progress = true;
      if (ph.ops % kRefreshEvery != 0) continue;
      {
        SpanScope r(rec, id(&Names::refresh), ph.ops);
        {
          SpanScope sp(rec, id(&Names::snapshot), ph.ops);
          (void)agg.snapshot_json();
        }
        {
          SpanScope sp(rec, id(&Names::top), ph.ops);
          (void)agg.top_json("p99", kTopN);
          (void)agg.top_json("transitions", kTopN);
          (void)agg.top_json("paging", kTopN);
        }
        SpanScope sp(rec, id(&Names::alerts), ph.ops);
        (void)agg.alerts_json();
      }
      ph.query_ms.push_back(static_cast<double>(ns_between(t1, Clock::now())) / 1e6);
    }
  }
  SpanScope sp(rec, id(&Names::close), ph.ops);
  for (const auto pid : ids) agg.disconnect(pid);
  telemetry::Ledger led;
  agg.fill_ledger(led);
  ph.quarantined += led.stages().empty() ? 0 : led.stages().front().indeterminate;
  ph.windows_merged += agg.windows_merged();
  std::string snapshot = agg.snapshot_json();
  agg_slot.reset();
  return snapshot;
}

}  // namespace

RunResult run_fleet_ingest(const RunOptions& opt) {
  RunResult out;
  // Virtual run time per producer.  At 1 ms windows the longest producers
  // outlive the aggregator's 256-window retention, so pruning is on the
  // timed path and state stays bounded.
  const std::uint64_t duration_ns = opt.tiny ? 30'000'000 : 400'000'000;
  std::vector<std::string> streams;
  std::string reference;

  const double setup_s = timed_setups(5, [&] {
    fleet::CorpusConfig corpus;
    streams.clear();
    const char* stressors[] = {"cpu", "ocall-storm", "vm", "order"};
    for (const char* st : stressors) {
      for (std::uint64_t s = 0; s < 2; ++s) {
        for (int host = 0; host < 2; ++host) {
          fleet::CorpusProducerSpec spec;
          spec.host = "host-" + std::to_string(host);
          spec.enclave = std::string("stress_") + st + "-" + std::to_string(s);
          spec.stressor = st;
          spec.threads = 2;
          spec.duration_ns = duration_ns;
          spec.seed = opt.seed * 4 + s * 2 + static_cast<std::uint64_t>(host);
          spec.epc_mb = std::string(st) == "vm" ? 4 : 0;
          streams.push_back(fleet::run_corpus_producer(spec, corpus));
        }
      }
    }
    // Warm-up and reference: one whole round, untimed.
    Phase warm;
    reference = run_round(streams, nullptr, nullptr, warm);
  });
  for (const auto& s : streams) digest_bytes(out.inputs_digest, s.data(), s.size());

  // The reference round must itself be healthy: every producer ended with a
  // bye frame, none lossy or quarantined.
  {
    fleet::Aggregator agg;
    for (const auto& s : streams) {
      const auto pid = agg.connect();
      agg.ingest(pid, s);
      agg.disconnect(pid);
    }
    const auto h = health_of(agg);
    out.attempted += 1;
    if (h.total != streams.size() || h.clean != streams.size() || h.lossy != 0 ||
        h.quarantined != 0 || h.deaths != 0) {
      out.fail(1, "fleet-ingest: reference corpus has unhealthy producers");
    } else if (agg.snapshot_json() != reference) {
      out.fail(1, "fleet-ingest: snapshot depends on chunking");
    }
  }

  const auto rounds = [&](double seconds, SpanRecorder* rec, const Names* n) {
    Phase ph;
    const auto t0 = Clock::now();
    do {
      const std::uint64_t quarantined = ph.quarantined;
      const std::string snap = run_round(streams, rec, n, ph);
      out.attempted += 1;
      if (ph.quarantined > quarantined) {
        out.fail(1, "fleet-ingest: producers quarantined in a round");
      } else if (snap != reference) {
        out.fail(1, "fleet-ingest: round snapshot differs from the reference");
      }
    } while (seconds_since(t0) < seconds);
    ph.wall_s = seconds_since(t0);
    return ph;
  };

  if (!opt.trace) {
    Phase ph = rounds(opt.seconds, nullptr, nullptr);
    out.metrics[kSetup] = setup_s;
    out.metrics[kPeakRss] = peak_rss_mb();
    out.metrics[kThroughput] = static_cast<double>(ph.bytes) / 1e6 / ph.wall_s;
    put_latencies(out, std::move(ph.op_ms), 0.9, std::move(ph.query_ms), 0.9);
    return out;
  }

  SpanRecorder rec(1u << 21);
  const Names n(rec);
  const Phase untraced = rounds(0.45 * opt.seconds, nullptr, nullptr);
  const Phase traced = rounds(0.45 * opt.seconds, &rec, &n);
  // The wire parser alone over the same chunk sequence, so ingest time
  // splits into parsing and merging.
  std::uint64_t parse_bytes = 0;
  std::uint64_t frames = 0;
  const auto t0 = Clock::now();
  do {
    std::vector<fleet::FrameParser> parsers(streams.size());
    std::vector<std::size_t> offsets(streams.size(), 0);
    for (bool progress = true; progress;) {
      progress = false;
      for (std::size_t i = 0; i < streams.size(); ++i) {
        if (offsets[i] >= streams[i].size()) continue;
        const std::size_t len = std::min(kChunk, streams[i].size() - offsets[i]);
        {
          SpanScope sp(&rec, n.parse, 0);
          parsers[i].push(streams[i].data() + offsets[i], len);
          while (parsers[i].next()) ++frames;
        }
        rotator().tick(Clock::now());
        offsets[i] += len;
        parse_bytes += len;
        progress = true;
      }
    }
  } while (seconds_since(t0) < 0.1 * opt.seconds);
  if (frames == 0) out.fail(1, "fleet-ingest: the wire parser produced no frames");

  const auto total_ms = [&](SpanRecorder::NameId id) {
    return static_cast<double>(rec.totals(id).total_ns) / 1e6;
  };
  const auto per_call_ms = [&](SpanRecorder::NameId id) {
    const auto c = rec.totals(id).count;
    return c == 0 ? 0.0 : total_ms(id) / static_cast<double>(c);
  };
  const double parse_ns_per_byte = total_ms(n.parse) * 1e6 / static_cast<double>(parse_bytes);
  const double ingest_ns_per_byte = total_ms(n.ingest) * 1e6 / static_cast<double>(traced.bytes);
  auto& m = out.metrics;
  m["fleet.wire.parse_ns_per_byte"] = parse_ns_per_byte;
  m["fleet.aggregator.merge_ns_per_byte"] = ingest_ns_per_byte - parse_ns_per_byte;
  m["fleet.aggregator.windows_merged"] = static_cast<double>(traced.windows_merged);
  m["fleet.aggregator.producers_quarantined"] = static_cast<double>(traced.quarantined);
  m["fleet.aggregator.snapshot_ms"] = per_call_ms(n.snapshot);
  m["fleet.aggregator.top_ms"] = per_call_ms(n.top);
  m["fleet.aggregator.alerts_ms"] = per_call_ms(n.alerts);
  const auto per_op = [](const Phase& ph) { return ph.wall_s * 1e3 / static_cast<double>(ph.ops); };
  const double layer_ms = static_cast<double>(rec.self_ns_where([](const std::string& s) {
                            return s.rfind("fleet.aggregator.", 0) == 0;
                          })) / 1e6;
  put_trace_accounting(out, per_op(untraced), per_op(traced),
                       layer_ms / static_cast<double>(traced.ops));
  rec.print_table(stderr);
  if (!rec.write_chrome_json(opt.spans_path)) out.fail(1, "cannot write " + opt.spans_path);
  return out;
}

}  // namespace wallbench

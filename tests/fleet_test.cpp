// Fleet aggregation (`sgxperf serve`): wire framing, order-independent
// merging, loss accounting, socket transport and checkpointing.
//
// The acceptance bar from the fleet design: N concurrent producers feeding
// one aggregator yield (a) a byte-identical query snapshot across runs,
// ingest chunkings, producer orderings and transport thread counts, and
// (b) merged per-site p99s equal to what each producer's own cumulative
// HDR histogram reports — bucket-wise delta addition is exact.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "fleet/aggregator.hpp"
#include "fleet/corpus.hpp"
#include "fleet/server.hpp"
#include "fleet/wire.hpp"
#include "support/crc32.hpp"
#include "support/json.hpp"
#include "telemetry/hdr_histogram.hpp"
#include "telemetry/ledger.hpp"
#include "tracedb/database.hpp"
#include "tracedb/open.hpp"

namespace {

fleet::CorpusConfig small_corpus() {
  fleet::CorpusConfig config = fleet::default_corpus();
  for (auto& p : config.producers) p.duration_ns = 10'000'000;
  return config;
}

std::vector<std::string> corpus_streams(const fleet::CorpusConfig& config) {
  std::vector<std::string> streams;
  streams.reserve(config.producers.size());
  for (const auto& spec : config.producers) {
    streams.push_back(fleet::run_corpus_producer(spec, config));
  }
  return streams;
}

std::string ingest_all(const std::vector<std::string>& streams, std::size_t chunk,
                       bool reverse = false) {
  fleet::Aggregator agg;
  std::vector<std::size_t> order(streams.size());
  for (std::size_t i = 0; i < order.size(); ++i) {
    order[i] = reverse ? order.size() - 1 - i : i;
  }
  for (const std::size_t idx : order) {
    const auto& bytes = streams[idx];
    const fleet::ProducerId id = agg.connect();
    if (chunk == 0) {
      agg.ingest(id, bytes);
    } else {
      for (std::size_t off = 0; off < bytes.size(); off += chunk) {
        agg.ingest(id, bytes.data() + off, std::min(chunk, bytes.size() - off));
      }
    }
    agg.disconnect(id);
  }
  return agg.snapshot_json();
}

/// Magic plus a hello frame of `version` with the compiled HDR geometry.
std::string hello_stream(std::uint16_t version = fleet::kWireVersion) {
  std::string bytes;
  fleet::encode_magic(bytes);
  fleet::HelloFrame hello;
  hello.version = version;
  hello.hdr_sub_bits = telemetry::hdr::kSubBits;
  hello.hdr_max_exponent = telemetry::hdr::kMaxExponent;
  hello.window_ns = 1'000'000;
  hello.host = "host-x";
  hello.enclave = "probe";
  fleet::encode(bytes, hello);
  return bytes;
}

/// A well-formed one-site window frame covering [index ms, index+1 ms).
fleet::WindowFrame probe_window(std::uint32_t index) {
  fleet::WindowFrame w;
  w.window.window_index = index;
  w.window.start_ns = index * 1'000'000ull;
  w.window.end_ns = w.window.start_ns + 1'000'000;
  w.window.calls = 2;
  fleet::WireSite site;
  site.name = "site";
  site.row.calls = 2;
  site.delta_count = 2;
  site.delta_sum = 300;
  site.buckets = {{1, 1}, {2, 1}};
  w.sites.push_back(site);
  return w;
}

fleet::AlertFrame probe_alert(bool resolved, std::uint64_t onset_ns, std::uint64_t resolved_ns) {
  fleet::AlertFrame a;
  a.resolved = resolved;
  a.alert.kind = tracedb::AlertKind::kShortCalls;
  a.alert.onset_ns = onset_ns;
  a.alert.resolved_ns = resolved_ns;
  a.site_name = "site";
  return a;
}

/// The encoded frame, its payload cut short by `cut` bytes (the length
/// prefix still matches what is left).
template <class F>
std::string frame_bytes(const F& frame, std::size_t cut = 0) {
  std::string out;
  fleet::encode(out, frame);
  out.resize(out.size() - cut);
  const auto len = static_cast<std::uint32_t>(out.size() - 5);
  std::memcpy(out.data(), &len, 4);
  return out;
}

struct MalformedCase {
  const char* name;
  std::string bytes;  // a whole producer stream
  const char* error;  // expected in the producer's error
};

/// Streams of a hello, a good window and a raise, then a well-framed frame
/// with a row the trace formats would refuse: each must poison the parser.
std::vector<MalformedCase> malformed_row_cases() {
  std::vector<MalformedCase> cases;
  const std::string good = hello_stream() + frame_bytes(probe_window(0)) +
                           frame_bytes(probe_alert(false, 2'000'000, 0));
  const auto add = [&](const char* name, const std::string& frame, const char* error) {
    cases.push_back({name, good + frame, error});
  };
  fleet::WindowFrame inverted = probe_window(1);
  inverted.window.end_ns = inverted.window.start_ns - 1;
  add("window end before start", frame_bytes(inverted), "malformed window interval");
  add("alert resolved before onset", frame_bytes(probe_alert(true, 2'000'000, 1'000'000)),
      "alert resolved before onset");
  fleet::WindowFrame bad_site = probe_window(1);
  bad_site.sites[0].row.type = static_cast<tracedb::CallType>(2);
  add("window site call type 2", frame_bytes(bad_site), "unknown call type");
  fleet::AlertFrame bad_type = probe_alert(false, 1'000'000, 0);
  bad_type.alert.type = static_cast<tracedb::CallType>(2);
  add("alert call type 2", frame_bytes(bad_type), "unknown call type");
  fleet::AlertFrame bad_kind = probe_alert(false, 1'000'000, 0);
  bad_kind.alert.kind = static_cast<tracedb::AlertKind>(tracedb::kAlertKindCount);
  add("alert kind out of range", frame_bytes(bad_kind), "unknown alert kind");
  // The last bucket pair is 12 bytes; cut 6 of them.
  add("window cut inside bucket pairs", frame_bytes(probe_window(1), 6),
      "implausible bucket count in window frame");
  return cases;
}

TEST(FleetWire, ProducerStreamRoundTrips) {
  fleet::CorpusConfig config = small_corpus();
  const auto& spec = config.producers[1];  // the transition-storm producer
  const std::string bytes = fleet::run_corpus_producer(spec, config);
  ASSERT_GT(bytes.size(), 8u);

  fleet::FrameParser parser;
  parser.push(bytes);
  std::vector<fleet::Frame> frames;
  while (auto f = parser.next()) frames.push_back(std::move(*f));
  ASSERT_FALSE(parser.error()) << parser.error_message();
  ASSERT_GE(frames.size(), 4u) << "hello + >=1 window + stats + bye";

  const auto* hello = std::get_if<fleet::HelloFrame>(&frames.front());
  ASSERT_NE(hello, nullptr) << "first frame must be hello";
  EXPECT_EQ(hello->version, fleet::kWireVersion);
  EXPECT_EQ(hello->host, spec.host);
  EXPECT_EQ(hello->enclave, spec.enclave);
  EXPECT_EQ(hello->window_ns, config.window_ns);
  EXPECT_EQ(hello->hdr_sub_bits, telemetry::hdr::kSubBits);
  EXPECT_EQ(hello->hdr_max_exponent, telemetry::hdr::kMaxExponent);

  const auto* stats = std::get_if<fleet::StatsFrame>(&frames[frames.size() - 2]);
  ASSERT_NE(stats, nullptr) << "penultimate frame must be stats";
  EXPECT_GT(stats->events, 0u);
  EXPECT_EQ(stats->stream_dropped, 0u);

  const auto* bye = std::get_if<fleet::ByeFrame>(&frames.back());
  ASSERT_NE(bye, nullptr) << "last frame must be bye";
  EXPECT_GT(bye->end_ns, 0u);

  std::size_t windows = 0;
  std::uint64_t window_calls = 0;
  std::uint64_t delta_counts = 0;
  for (const auto& frame : frames) {
    if (const auto* w = std::get_if<fleet::WindowFrame>(&frame)) {
      ++windows;
      window_calls += w->window.calls;
      for (const auto& site : w->sites) {
        EXPECT_FALSE(site.name.empty());
        std::uint64_t bucket_sum = 0;
        for (const auto& [bucket, count] : site.buckets) bucket_sum += count;
        EXPECT_EQ(bucket_sum, site.delta_count)
            << "sparse buckets must cover the whole delta";
        delta_counts += site.delta_count;
      }
    }
  }
  EXPECT_GT(windows, 0u);
  EXPECT_EQ(delta_counts, window_calls) << "site deltas partition window calls";
}

TEST(FleetWire, ParserRejectsMalformedStreams) {
  {
    fleet::FrameParser parser;
    parser.push(std::string("XXXXGARBAGE"));
    while (parser.next()) {
    }
    EXPECT_TRUE(parser.error()) << "bad magic must poison the parser";
  }
  {
    // Valid magic, then an absurd frame length.
    std::string bytes;
    fleet::encode_magic(bytes);
    const std::uint32_t len = fleet::FrameParser::kMaxPayload + 1;
    bytes.append(reinterpret_cast<const char*>(&len), 4);
    bytes.push_back(static_cast<char>(fleet::FrameType::kHello));
    fleet::FrameParser parser;
    parser.push(bytes);
    while (parser.next()) {
    }
    EXPECT_TRUE(parser.error()) << "oversized frame must poison the parser";
  }
  {
    // Valid magic, plausible length, unknown frame type.
    std::string bytes;
    fleet::encode_magic(bytes);
    const std::uint32_t len = 1;
    bytes.append(reinterpret_cast<const char*>(&len), 4);
    bytes.push_back(static_cast<char>(0x7f));
    bytes.push_back('\0');
    fleet::FrameParser parser;
    parser.push(bytes);
    while (parser.next()) {
    }
    EXPECT_TRUE(parser.error()) << "unknown frame type must poison the parser";
  }
  for (const auto& c : malformed_row_cases()) {
    fleet::FrameParser parser;
    parser.push(c.bytes);
    std::size_t frames = 0;
    while (parser.next()) ++frames;
    EXPECT_EQ(frames, 3u) << c.name << ": the good frames decode";
    EXPECT_NE(parser.error_message().find(c.error), std::string::npos)
        << c.name << ": " << parser.error_message();
  }
}

TEST(FleetAggregator, SnapshotIndependentOfRunsChunkingAndOrder) {
  const fleet::CorpusConfig config = small_corpus();
  const auto streams_a = corpus_streams(config);
  const auto streams_b = corpus_streams(config);

  // Producer streams are a pure function of their spec.
  ASSERT_EQ(streams_a.size(), streams_b.size());
  for (std::size_t i = 0; i < streams_a.size(); ++i) {
    EXPECT_EQ(streams_a[i], streams_b[i]) << "producer " << i << " stream not deterministic";
  }

  const std::string whole = ingest_all(streams_a, 0);
  EXPECT_FALSE(whole.empty());
  EXPECT_NE(whole.find("\"schema_version\":1"), std::string::npos);
  EXPECT_EQ(whole, ingest_all(streams_a, 1)) << "byte-at-a-time ingest must not change the snapshot";
  EXPECT_EQ(whole, ingest_all(streams_a, 4093)) << "chunked ingest must not change the snapshot";
  EXPECT_EQ(whole, ingest_all(streams_a, 0, /*reverse=*/true))
      << "producer order must not change the snapshot";
  EXPECT_EQ(whole, ingest_all(streams_b, 0)) << "re-generated streams must merge identically";

  // The interleaved-chunk corpus driver lands on the same bytes too.
  fleet::Aggregator corpus_agg;
  fleet::run_corpus(corpus_agg, config);
  EXPECT_EQ(whole, corpus_agg.snapshot_json());

  // A healthy corpus has no lossy producers.
  EXPECT_EQ(whole.find("\"lossy\":true"), std::string::npos);
}

TEST(FleetAggregator, LossyProducerIsFlaggedAndPartialDataStaysMerged) {
  const fleet::CorpusConfig config = small_corpus();
  const std::string full = fleet::run_corpus_producer(config.producers[0], config);

  fleet::Aggregator agg;
  const fleet::ProducerId id = agg.connect();
  // Kill the producer mid-stream: drop the tail (stats + bye + trailing
  // windows), cutting inside a frame.
  agg.ingest(id, full.data(), full.size() * 3 / 5);
  agg.disconnect(id);

  EXPECT_GT(agg.windows_merged(), 0u) << "partial windows must stay merged";
  const std::string snapshot = agg.snapshot_json();
  EXPECT_NE(snapshot.find("\"lossy\":true"), std::string::npos) << snapshot;
  EXPECT_NE(snapshot.find("\"clean\":false"), std::string::npos) << snapshot;
}

TEST(FleetAggregator, MergedP99MatchesSingleProcessHistograms) {
  // One producer, aggregated alone: every site's fleet-cumulative histogram
  // must reproduce the p99 of the producer's own v4 latency table — window
  // deltas sum back to the cumulative distribution exactly.
  fleet::CorpusConfig config = small_corpus();
  const auto& spec = config.producers[1];
  const std::string bytes = fleet::run_corpus_producer(spec, config);

  fleet::Aggregator agg;
  const fleet::ProducerId id = agg.connect();
  agg.ingest(id, bytes);
  agg.disconnect(id);

  // Reconstruct the producer's own cumulative per-site distributions from
  // its wire windows (the producer's db is internal to run_corpus_producer;
  // the wire stream carries the same deltas its latency table accumulated).
  fleet::FrameParser parser;
  parser.push(bytes);
  std::map<fleet::SiteKey, telemetry::HdrSnapshot> cumulative;
  std::map<fleet::SiteKey, std::uint64_t> calls;
  while (auto f = parser.next()) {
    const auto* w = std::get_if<fleet::WindowFrame>(&*f);
    if (w == nullptr) continue;
    for (const auto& site : w->sites) {
      const fleet::SiteKey key{spec.host, spec.enclave, site.name, site.row.type};
      auto& snap = cumulative[key];
      for (const auto& [bucket, count] : site.buckets) snap.add_bucket(bucket, count);
      calls[key] += site.delta_count;
    }
  }
  ASSERT_FALSE(parser.error()) << parser.error_message();
  ASSERT_FALSE(cumulative.empty());

  for (const auto& [key, snap] : cumulative) {
    const auto fleet_p99 = agg.site_p99(key);
    ASSERT_TRUE(fleet_p99.has_value()) << key.host << "/" << key.enclave << "/" << key.site;
    EXPECT_EQ(*fleet_p99, snap.value_at_percentile(99)) << key.site;
    EXPECT_EQ(snap.count(), calls[key]) << key.site;
  }

  // The ranking endpoints agree with the cumulative state.
  const auto top = agg.top("p99", 3);
  ASSERT_FALSE(top.empty());
  for (const auto& row : top) {
    const auto p99 = agg.site_p99(row.key);
    ASSERT_TRUE(p99.has_value());
    EXPECT_EQ(row.p99_ns, *p99);
  }
}

TEST(FleetAggregator, QueryProtocolAnswersEveryVerb) {
  fleet::Aggregator agg;
  const fleet::CorpusConfig config = small_corpus();
  fleet::run_corpus(agg, config);

  EXPECT_EQ(agg.query("snapshot"), agg.snapshot_json());
  EXPECT_EQ(agg.query("top transitions 5"), agg.top_json("transitions", 5));
  EXPECT_EQ(agg.query("alerts"), agg.alerts_json());
  const auto& spec = config.producers[1];
  const auto top = agg.top("transitions", 1);
  ASSERT_FALSE(top.empty());
  const std::string series = agg.query("series " + spec.host + " " + spec.enclave + " " +
                                       top.front().key.site);
  EXPECT_NE(series.find("\"points\""), std::string::npos) << series;
  EXPECT_NE(agg.query("bogus verb").find("\"error\""), std::string::npos);
}

TEST(FleetAggregator, KeyCapQuarantinesRunawayProducer) {
  fleet::AggregatorConfig config;
  config.max_keys_per_producer = 8;
  fleet::Aggregator agg(config);

  // A producer that mints a fresh site name every window: without the cap
  // the keyed maps (and their HDR snapshots) would grow without bound.
  std::string bytes;
  fleet::encode_magic(bytes);
  fleet::HelloFrame hello;
  hello.hdr_sub_bits = telemetry::hdr::kSubBits;
  hello.hdr_max_exponent = telemetry::hdr::kMaxExponent;
  hello.window_ns = 1'000'000;
  hello.host = "host-x";
  hello.enclave = "runaway";
  fleet::encode(bytes, hello);
  for (int i = 0; i < 64; ++i) {
    fleet::WindowFrame w;
    w.window.window_index = static_cast<std::uint32_t>(i);
    w.window.start_ns = static_cast<std::uint64_t>(i) * 1'000'000;
    w.window.end_ns = w.window.start_ns + 1'000'000;
    w.window.calls = 1;
    fleet::WireSite site;
    site.name = "site_" + std::to_string(i);
    site.row.calls = 1;
    site.delta_count = 1;
    site.delta_sum = 100;
    site.buckets = {{0, 1}};
    w.sites.push_back(site);
    fleet::encode(bytes, w);
  }

  const fleet::ProducerId id = agg.connect();
  agg.ingest(id, bytes);
  agg.disconnect(id);

  EXPECT_EQ(agg.windows_merged(), 8u) << "nothing past the cap may be merged";
  const std::string snapshot = agg.snapshot_json();
  EXPECT_NE(snapshot.find("fleet key cap exceeded"), std::string::npos) << snapshot;
  EXPECT_NE(snapshot.find("\"lossy\":true"), std::string::npos) << snapshot;
  EXPECT_NE(snapshot.find("\"site\":\"site_7\""), std::string::npos)
      << "keys created below the cap must stay merged";
  EXPECT_EQ(snapshot.find("\"site\":\"site_8\""), std::string::npos) << snapshot;
}

TEST(FleetAggregator, EndedAndQuarantinedProducersHoldNoStreamBytes) {
  // Half of a 1 MiB window frame: a header that promises the payload, and
  // 512 KiB of it.
  std::string partial(5 + (1u << 19), '\0');
  const std::uint32_t len = 1u << 20;
  std::memcpy(partial.data(), &len, 4);
  partial[4] = static_cast<char>(fleet::FrameType::kWindow);
  const std::string head = hello_stream() + frame_bytes(probe_window(0));

  const auto status_and_audit = [](const fleet::Aggregator& agg) {
    telemetry::Ledger led;
    agg.fill_ledger(led);
    support::json::Writer w;
    led.write_json(w);
    return agg.status_json() + "\n" + w.str();  // the ledger JSON carries the audit
  };
  fleet::Aggregator without_tail;
  const fleet::ProducerId a = without_tail.connect();
  without_tail.ingest(a, head);
  without_tail.disconnect(a);

  fleet::Aggregator agg;
  const fleet::ProducerId id = agg.connect();
  agg.ingest(id, head + partial);
  EXPECT_EQ(agg.buffered_bytes(), partial.size());
  agg.disconnect(id);
  EXPECT_EQ(agg.buffered_bytes(), 0u);
  // A partial frame was never data: the freed bytes change no document.
  EXPECT_EQ(status_and_audit(agg), status_and_audit(without_tail));

  // A quarantine frees the parser too, with whatever followed the bad frame.
  fleet::Aggregator quarantined;
  const fleet::ProducerId q = quarantined.connect();
  quarantined.ingest(q, hello_stream(0) + frame_bytes(probe_window(0)) + partial);
  EXPECT_EQ(quarantined.buffered_bytes(), 0u);
  EXPECT_NE(quarantined.snapshot_json().find("unsupported wire version 0"), std::string::npos);
}

TEST(FleetAggregator, MalformedProducerIsQuarantinedAndCheckpointLoads) {
  std::vector<MalformedCase> cases = malformed_row_cases();
  // Each frame below is well-formed alone, so only the aggregator can see
  // what is wrong.
  cases.push_back({"wire version 0", hello_stream(0) + frame_bytes(probe_window(0)),
                   "unsupported wire version 0"});
  cases.push_back({"resolve before the raise",
                   hello_stream() + frame_bytes(probe_window(0)) +
                       frame_bytes(probe_alert(false, 2'000'000, 0)) +
                       frame_bytes(probe_alert(true, 500, 1'000'000)),
                   "alert resolved before its raise"});
  const std::string path =
      "/tmp/sgxperf_fleet_malformed_" + std::to_string(::getpid()) + ".trace";
  for (const auto& c : cases) {
    fleet::Aggregator agg;
    const fleet::ProducerId id = agg.connect();
    agg.ingest(id, c.bytes);
    agg.disconnect(id);
    const std::string snapshot = agg.snapshot_json();
    EXPECT_NE(snapshot.find("\"drop_reasons\":[\"quarantined\""), std::string::npos)
        << c.name << ": " << snapshot;
    EXPECT_NE(snapshot.find(c.error), std::string::npos) << c.name << ": " << snapshot;

    tracedb::TraceDatabase db;
    agg.checkpoint(db);
    tracedb::save_trace(db, path);
    EXPECT_NO_THROW((void)tracedb::TraceDatabase::load(path)) << c.name;
  }
  std::remove(path.c_str());
}

TEST(FleetServer, ConcurrentSocketProducersMatchInProcessMerge) {
  const fleet::CorpusConfig config = small_corpus();
  const auto streams = corpus_streams(config);
  const std::string expected = ingest_all(streams, 0);

  const std::string base =
      "/tmp/sgxperf_fleet_test_" + std::to_string(::getpid());
  fleet::ServerConfig sconfig;
  sconfig.ingest_path = base + ".ingest";
  sconfig.query_path = base + ".query";
  fleet::Server server(sconfig);
  ASSERT_TRUE(server.start());
  std::thread loop([&] { server.run(); });

  // All producers stream concurrently — the transport thread count must not
  // show in the merged snapshot.
  std::vector<std::thread> senders;
  for (const auto& bytes : streams) {
    senders.emplace_back([&, bytes] {
      EXPECT_TRUE(fleet::send_producer_stream(sconfig.ingest_path, bytes));
    });
  }
  for (auto& t : senders) t.join();

  // Senders return once their bytes are written; wait for the server to
  // finish draining and closing the connections.
  std::string got;
  for (int i = 0; i < 500; ++i) {
    got = fleet::query_server(sconfig.query_path, "snapshot");
    if (got == expected) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(got, expected);

  const std::string alerts = fleet::query_server(sconfig.query_path, "alerts");
  EXPECT_NE(alerts.find("\"schema_version\":1"), std::string::npos);

  server.stop();
  loop.join();
  std::remove(sconfig.ingest_path.c_str());
  std::remove(sconfig.query_path.c_str());
}

TEST(FleetServer, VanishedQueryClientDoesNotKillTheDaemon) {
  const fleet::CorpusConfig config = small_corpus();
  const auto streams = corpus_streams(config);

  const std::string base = "/tmp/sgxperf_fleet_gone_" + std::to_string(::getpid());
  fleet::ServerConfig sconfig;
  sconfig.ingest_path = base + ".ingest";
  sconfig.query_path = base + ".query";
  fleet::Server server(sconfig);
  ASSERT_TRUE(server.start());
  std::thread loop([&] { server.run(); });

  ASSERT_TRUE(fleet::send_producer_stream(sconfig.ingest_path, streams[0]));

  // Clients that send a query and vanish before reading the response: the
  // daemon (same process as this test) must see EPIPE and drop the
  // response — a SIGPIPE would kill the whole test binary.
  for (int i = 0; i < 10; ++i) {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, sconfig.query_path.c_str(), sizeof(addr.sun_path) - 1);
    ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)), 0);
    const char req[] = "snapshot\n";
    ASSERT_EQ(::send(fd, req, sizeof(req) - 1, MSG_NOSIGNAL),
              static_cast<ssize_t>(sizeof(req) - 1));
    ::close(fd);  // gone before reading a byte of the response
  }

  // A client that sends one byte over the request cap and no newline gets
  // the error document instead of a daemon that buffers without bound.
  {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, sconfig.query_path.c_str(), sizeof(addr.sun_path) - 1);
    ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)), 0);
    const std::string line(fleet::Server::kMaxRequestBytes + 1, 'x');
    for (std::size_t off = 0; off < line.size();) {
      const ssize_t n = ::send(fd, line.data() + off, line.size() - off, MSG_NOSIGNAL);
      ASSERT_GT(n, 0);
      off += static_cast<std::size_t>(n);
    }
    std::string response;
    char buf[4096];
    for (ssize_t n; (n = ::read(fd, buf, sizeof buf)) > 0;) {
      response.append(buf, static_cast<std::size_t>(n));
    }
    ::close(fd);
    EXPECT_NE(response.find("\"error\":\"request line longer than"), std::string::npos)
        << response;
  }

  // The daemon is still alive and answering.
  const std::string got = fleet::query_server(sconfig.query_path, "alerts");
  EXPECT_NE(got.find("\"schema_version\":1"), std::string::npos) << got;
  const std::string status = fleet::query_server(sconfig.query_path, "status");
  EXPECT_NE(status.find("\"daemon\""), std::string::npos) << status;

  server.stop();
  loop.join();
  std::remove(sconfig.ingest_path.c_str());
  std::remove(sconfig.query_path.c_str());
}

TEST(FleetAggregator, CheckpointRoundTripsThroughTheV5Format) {
  fleet::Aggregator agg;
  const fleet::CorpusConfig config = small_corpus();
  fleet::run_corpus(agg, config);

  tracedb::TraceDatabase db;
  agg.checkpoint(db);
  EXPECT_FALSE(db.windows().empty());
  EXPECT_FALSE(db.window_sites().empty());
  EXPECT_FALSE(db.latencies().empty());
  EXPECT_EQ(db.window_period(), config.window_ns);
  // One synthetic enclave per (host, enclave) identity.
  EXPECT_EQ(db.enclaves().size(), config.producers.size());

  const std::string path =
      "/tmp/sgxperf_fleet_ckpt_" + std::to_string(::getpid()) + ".trace";
  db.save(path);
  const tracedb::TraceDatabase loaded = tracedb::TraceDatabase::load(path);
  std::remove(path.c_str());
  EXPECT_EQ(loaded.windows().size(), db.windows().size());
  EXPECT_EQ(loaded.window_sites().size(), db.window_sites().size());
  EXPECT_EQ(loaded.latencies().size(), db.latencies().size());
  EXPECT_EQ(loaded.alerts().size(), db.alerts().size());
  EXPECT_EQ(loaded.enclaves().size(), db.enclaves().size());
}

// --- Locks -------------------------------------------------------------------
//
// Every query document of three differently configured aggregators, sampled
// as a 16-producer corpus streams in: the byte-level lock behind any change
// to the merge path or the JSON writer.

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const unsigned char ch : s) h = (h ^ ch) * 0x100000001b3ull;
  return h;
}

std::string hex64(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::string query_matrix() {
  // The four corpus stressors x two seeds x two hosts, like the fleet-ingest
  // wall-clock benchmark, at a 30 ms virtual run each.
  const fleet::CorpusConfig corpus;
  std::vector<std::string> streams;
  for (const char* st : {"cpu", "ocall-storm", "vm", "order"}) {
    for (std::uint64_t s = 0; s < 2; ++s) {
      for (std::uint64_t host = 0; host < 2; ++host) {
        fleet::CorpusProducerSpec spec;
        spec.host = "host-" + std::to_string(host);
        spec.enclave = std::string("stress_") + st + "-" + std::to_string(s);
        spec.stressor = st;
        spec.threads = 2;
        spec.duration_ns = 30'000'000;
        spec.seed = 3 + s * 2 + host;
        spec.epc_mb = std::string(st) == "vm" ? 4 : 0;
        streams.push_back(fleet::run_corpus_producer(spec, corpus));
      }
    }
  }

  // Full retention; retention shorter than the run (pruning on the ingest
  // path); and key caps of 3 and 1.  At 3 every quarantine comes from an
  // alert frame; at 1 the vm producers' window frames overflow the cap
  // mid-frame, so rejected rows must leave no keys behind.
  struct Subject {
    const char* name;
    std::unique_ptr<fleet::Aggregator> agg;
    std::vector<fleet::ProducerId> ids;
  };
  std::vector<Subject> subjects;
  const auto add = [&](const char* name, std::size_t retention, std::size_t max_keys) {
    fleet::AggregatorConfig config;
    config.retention_windows = retention;
    config.max_keys_per_producer = max_keys;
    Subject s{name, std::make_unique<fleet::Aggregator>(config), {}};
    for (std::size_t i = 0; i < streams.size(); ++i) s.ids.push_back(s.agg->connect());
    subjects.push_back(std::move(s));
  };
  add("r256", 256, 4096);
  add("r8", 8, 4096);
  add("r8k3", 8, 3);
  add("r8k1", 8, 1);

  std::string out;
  const auto line = [&](const std::string& label, const std::string& doc) {
    out += label + " " + hex64(fnv1a(doc)) + "\n";
  };
  constexpr std::size_t kChunk = 4096;
  // A 30 ms corpus is ~60 chunks in all, so refresh every 4th chunk to
  // catch the documents mid-stream.
  constexpr std::size_t kRefreshEvery = 4;
  std::size_t chunks = 0;
  std::vector<std::size_t> offsets(streams.size(), 0);
  for (bool progress = true; progress;) {
    progress = false;
    for (std::size_t i = 0; i < streams.size(); ++i) {
      const std::string& bytes = streams[i];
      if (offsets[i] >= bytes.size()) continue;
      const std::size_t len = std::min(kChunk, bytes.size() - offsets[i]);
      for (auto& s : subjects) s.agg->ingest(s.ids[i], bytes.data() + offsets[i], len);
      offsets[i] += len;
      progress = true;
      if (++chunks % kRefreshEvery != 0) continue;
      for (const auto& s : subjects) {
        const std::string at = std::to_string(chunks) + " " + s.name;
        line(at + " snapshot", s.agg->snapshot_json());
        for (const char* by : {"p99", "transitions", "paging"}) {
          line(at + " top-" + by, s.agg->top_json(by, 10));
        }
        line(at + " alerts", s.agg->alerts_json());
      }
    }
  }

  const std::string path =
      "/tmp/sgxperf_fleet_matrix_" + std::to_string(::getpid()) + ".trace";
  for (const auto& s : subjects) {
    for (const auto id : s.ids) s.agg->disconnect(id);
    const std::string name = s.name;
    out += "== " + name + " snapshot\n" + s.agg->snapshot_json() + "\n";
    out += "== " + name + " status\n" + s.agg->status_json() + "\n";
    const auto top = s.agg->top("transitions", 1);
    if (!top.empty()) {
      const auto& key = top.front().key;
      out += "== " + name + " series " + key.host + " " + key.enclave + " " + key.site + "\n" +
             s.agg->series_json(key.host, key.enclave, key.site) + "\n";
    }
    tracedb::TraceDatabase db;
    s.agg->checkpoint(db);
    tracedb::save_trace(db, path);
    std::ifstream in(path, std::ios::binary);
    const std::string saved{std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
    std::remove(path.c_str());
    out += "== " + name + " checkpoint " + std::to_string(saved.size()) + " bytes " +
           hex64(fnv1a(saved)) + "\n";
  }
  return out;
}

// Every default-corpus producer's wire stream, pinned by CRC32 and frame
// count: the lock behind any change to frame encoding.
TEST(FleetLocks, CorpusStreamsMatchGoldenDigest) {
  struct Pinned {
    std::uint32_t crc;
    std::size_t frames;
  };
  constexpr Pinned kPinned[] = {
      {0xf2e16832u, 24},  // stress_cpu
      {0xa745808au, 43},  // stress_storm
      {0x540ecc2eu, 26},  // stress_vm
      {0x1310258au, 31},  // stress_order
  };
  const fleet::CorpusConfig config = fleet::default_corpus();
  ASSERT_EQ(config.producers.size(), std::size(kPinned));
  for (std::size_t i = 0; i < config.producers.size(); ++i) {
    const auto& spec = config.producers[i];
    const std::string bytes = fleet::run_corpus_producer(spec, config);
    fleet::FrameParser parser;
    parser.push(bytes);
    std::size_t frames = 0;
    while (parser.next()) ++frames;
    ASSERT_FALSE(parser.error()) << spec.enclave << ": " << parser.error_message();
    const std::uint32_t crc = support::crc32(bytes.data(), bytes.size());
    EXPECT_EQ(crc, kPinned[i].crc) << spec.enclave << " stream crc32 is 0x" << std::hex << crc;
    EXPECT_EQ(frames, kPinned[i].frames) << spec.enclave;
  }
}

TEST(FleetLocks, QueryMatrixOnChunkedCorpusMatchesGoldenFile) {
  const std::string golden_path = std::string(GOLDEN_DIR) + "/fleet_query_matrix.txt";
  std::ifstream in(golden_path, std::ios::binary);
  const std::string expected{std::istreambuf_iterator<char>(in),
                             std::istreambuf_iterator<char>()};
  const std::string got = query_matrix();
  if (got != expected) {
    // Leave the actual matrix next to the test for a line diff.
    std::ofstream("fleet_query_matrix.actual.txt", std::ios::binary) << got;
  }
  ASSERT_FALSE(expected.empty()) << "missing golden file: " << golden_path;
  EXPECT_EQ(got, expected) << "fleet query matrix drifted from " << golden_path
                           << "; the actual matrix is in fleet_query_matrix.actual.txt";
}

}  // namespace

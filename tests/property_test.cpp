// Cross-module property tests: algebraic invariants checked over randomised
// inputs (seeded — failures reproduce deterministically).
#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "bignum/bignum.hpp"
#include "minidb/db.hpp"
#include "support/histogram.hpp"
#include "support/rng.hpp"
#include "support/stats.hpp"
#include "tracedb/query.hpp"

namespace {

using bignum::BigNum;
using support::Rng;

// --- statistics ----------------------------------------------------------------

class StatsProperty : public testing::TestWithParam<int> {};

TEST_P(StatsProperty, SummaryInvariants) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  std::vector<double> values;
  const int n = GetParam();
  values.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) values.push_back(static_cast<double>(rng.next_below(1'000'000)));
  const auto s = support::summarize(values);

  EXPECT_EQ(s.count, static_cast<std::size_t>(n));
  EXPECT_LE(s.min, s.median);
  EXPECT_LE(s.median, s.p90);
  EXPECT_LE(s.p90, s.p95);
  EXPECT_LE(s.p95, s.p99);
  EXPECT_LE(s.p99, s.max);
  EXPECT_GE(s.mean, s.min);
  EXPECT_LE(s.mean, s.max);
  EXPECT_GE(s.stddev, 0.0);
  // The mean really is sum/count.
  double sum = 0;
  for (const double v : values) sum += v;
  EXPECT_NEAR(s.mean, sum / n, 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Sizes, StatsProperty, testing::Values(1, 2, 10, 1000, 9999));

TEST(HistogramProperty, TotalMatchesInRangeSamples) {
  Rng rng(77);
  for (int round = 0; round < 10; ++round) {
    support::Histogram h(0.0, 1000.0, 1 + rng.next_below(50));
    std::uint64_t in_range = 0;
    for (int i = 0; i < 500; ++i) {
      const double v = static_cast<double>(rng.next_below(1'500));
      if (v <= 1000.0) ++in_range;
      h.add(v);
    }
    EXPECT_EQ(h.total(), in_range);
    std::uint64_t bins_sum = 0;
    for (std::size_t b = 0; b < h.bin_count(); ++b) bins_sum += h.count_at(b);
    EXPECT_EQ(bins_sum, h.total());
  }
}

// --- bignum algebra -----------------------------------------------------------------

class BignumAlgebra : public testing::TestWithParam<int> {};

TEST_P(BignumAlgebra, RingLaws) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 31 + 7);
  auto next = [&rng] { return rng.next_u64(); };
  const int bits = GetParam();
  for (int iter = 0; iter < 6; ++iter) {
    const BigNum a = BigNum::random(next, bits);
    const BigNum b = BigNum::random(next, bits / 2 + 1);
    const BigNum c = BigNum::random(next, bits / 3 + 1);

    EXPECT_EQ(a.mul(b), b.mul(a));                              // commutativity
    EXPECT_EQ(a.mul(b).mul(c), a.mul(b.mul(c)));                // associativity
    EXPECT_EQ(a.add(b).mul(c), a.mul(c).add(b.mul(c)));         // distributivity
    EXPECT_EQ(a.mul(BigNum(1)), a);                             // identity
    EXPECT_TRUE(a.mul(BigNum(0)).is_zero());                    // annihilator
    EXPECT_EQ(a.shift_left(13).shift_right(13), a);             // shift inverse
    EXPECT_EQ(a.add(b).sub(b), a);                              // sub inverse
  }
}

INSTANTIATE_TEST_SUITE_P(Bits, BignumAlgebra, testing::Values(64, 200, 521, 1024, 2048));

TEST(BignumAlgebra, ModexpExponentAddition) {
  // a^(x+y) = a^x * a^y (mod n)
  Rng rng(99);
  auto next = [&rng] { return rng.next_u64(); };
  const BigNum a = BigNum::random(next, 256);
  const BigNum n = BigNum::random(next, 256);
  const BigNum x(123456789);
  const BigNum y(987654321);
  const BigNum lhs = a.modexp(x.add(y), n);
  const BigNum rhs = a.modexp(x, n).mul(a.modexp(y, n)).mod(n);
  EXPECT_EQ(lhs, rhs);
}

TEST(BignumAlgebra, HexRoundTripRandom) {
  Rng rng(5);
  auto next = [&rng] { return rng.next_u64(); };
  for (const int bits : {1, 31, 32, 33, 64, 100, 1000}) {
    const BigNum a = BigNum::random(next, bits);
    EXPECT_EQ(BigNum::from_hex(a.to_hex()), a) << bits;
    EXPECT_EQ(a.bit_length(), bits);
  }
}

// --- database vs model (mixed operations) ----------------------------------------------

TEST(DatabaseProperty, MixedOpsMatchStdMap) {
  support::VirtualClock clock;
  minidb::HostVfs vfs(clock);
  minidb::Database db(vfs, "/prop.db");
  std::map<std::string, std::string> model;
  Rng rng(2024);

  for (int i = 0; i < 2000; ++i) {
    const std::string key = "k" + std::to_string(rng.next_below(300));
    const std::uint64_t dice = rng.next_below(10);
    if (dice < 6) {
      const std::string value = rng.next_string(rng.next_in(1, 100));
      db.put(key, value);
      model[key] = value;
    } else if (dice < 8) {
      EXPECT_EQ(db.erase(key), model.erase(key) > 0) << key;
    } else {
      const auto got = db.get(key);
      const auto it = model.find(key);
      if (it == model.end()) {
        EXPECT_FALSE(got.has_value()) << key;
      } else {
        EXPECT_EQ(got, it->second) << key;
      }
    }
  }
  EXPECT_EQ(db.size(), model.size());
}

TEST(DatabaseProperty, RollbackIsAtomicOverBatches) {
  support::VirtualClock clock;
  minidb::HostVfs vfs(clock);
  minidb::Database db(vfs, "/atomic.db");
  Rng rng(4);
  std::map<std::string, std::string> committed;

  for (int txn = 0; txn < 30; ++txn) {
    const bool commit = rng.chance(0.5);
    db.begin();
    std::map<std::string, std::string> staged;
    for (int i = 0; i < 20; ++i) {
      const std::string key = "t" + std::to_string(txn) + "-" + std::to_string(i);
      const std::string value = rng.next_string(40);
      db.put_in_txn(key, value);
      staged[key] = value;
    }
    if (commit) {
      db.commit();
      committed.insert(staged.begin(), staged.end());
    } else {
      db.rollback();
    }
  }
  EXPECT_EQ(db.size(), committed.size());
  for (const auto& [k, v] : committed) EXPECT_EQ(db.get(k), v);
}

// --- indirect parents: order invariance within a thread ----------------------------------

TEST(ParentsProperty, IndirectParentIsAlwaysEarlierSameTypeSameParent) {
  Rng rng(11);
  tracedb::TraceDatabase db;
  // Random flat trace: top-level ecalls with nested ocalls.
  std::uint64_t t = 0;
  for (int i = 0; i < 300; ++i) {
    tracedb::CallRecord e;
    e.type = tracedb::CallType::kEcall;
    e.thread_id = static_cast<tracedb::ThreadId>(1 + rng.next_below(3));
    e.enclave_id = 1;
    e.call_id = static_cast<tracedb::CallId>(rng.next_below(4));
    e.start_ns = t;
    e.end_ns = t + 10'000;
    const auto parent = db.add_call(e);
    const std::uint64_t n_ocalls = rng.next_below(3);
    for (std::uint64_t o = 0; o < n_ocalls; ++o) {
      tracedb::CallRecord oc;
      oc.type = tracedb::CallType::kOcall;
      oc.thread_id = e.thread_id;
      oc.enclave_id = 1;
      oc.call_id = static_cast<tracedb::CallId>(rng.next_below(3));
      oc.start_ns = t + 1'000 + o * 2'000;
      oc.end_ns = oc.start_ns + 1'000;
      oc.parent = parent;
      db.add_call(oc);
    }
    t += 20'000;
  }

  const auto indirect = tracedb::indirect_parents(db);
  const auto& calls = db.calls();
  for (std::size_t i = 0; i < calls.size(); ++i) {
    const auto ip = indirect[i];
    if (ip == tracedb::kNoParent) continue;
    const auto& c = calls[i];
    const auto& p = calls[static_cast<std::size_t>(ip)];
    EXPECT_EQ(p.type, c.type);
    EXPECT_EQ(p.thread_id, c.thread_id);
    EXPECT_EQ(p.parent, c.parent);
    EXPECT_LT(p.start_ns, c.start_ns);
  }
}

}  // namespace

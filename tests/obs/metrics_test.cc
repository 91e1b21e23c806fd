#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <sstream>
#include <vector>

#include "bench_json.h"
#include "common/rng.h"
#include "mini_json.h"

namespace sb::obs {
namespace {

// --------------------------------------------------------------------------
// Bucket geometry
// --------------------------------------------------------------------------

TEST(HistogramBuckets, ExactUnitBucketsBelowSubBuckets) {
  for (std::uint64_t v = 0; v < Histogram::kSubBuckets; ++v) {
    const int b = Histogram::bucket_index(v);
    EXPECT_EQ(Histogram::bucket_lower(b), v);
    EXPECT_EQ(Histogram::bucket_upper(b), v + 1);
  }
}

TEST(HistogramBuckets, EveryValueFallsInsideItsBucket) {
  Rng rng(17);
  std::vector<std::uint64_t> probes = {0, 1, 2, 3, 4, 5, 7, 8, 15, 16, 17,
                                       1000, 1 << 20, ~0ULL, ~0ULL - 1};
  for (int i = 0; i < 2000; ++i) {
    probes.push_back(rng.next_u64() >> (rng.next_u64() % 64));
  }
  for (std::uint64_t v : probes) {
    const int b = Histogram::bucket_index(v);
    ASSERT_GE(b, 0);
    ASSERT_LT(b, Histogram::kNumBuckets);
    EXPECT_GE(v, Histogram::bucket_lower(b)) << "v=" << v;
    if (Histogram::bucket_upper(b) != ~0ULL) {
      EXPECT_LT(v, Histogram::bucket_upper(b)) << "v=" << v;
    }
  }
}

TEST(HistogramBuckets, IndexIsMonotone) {
  Rng rng(23);
  for (int i = 0; i < 2000; ++i) {
    const std::uint64_t a = rng.next_u64() >> (rng.next_u64() % 64);
    const std::uint64_t b = rng.next_u64() >> (rng.next_u64() % 64);
    if (a <= b) {
      EXPECT_LE(Histogram::bucket_index(a), Histogram::bucket_index(b));
    } else {
      EXPECT_GE(Histogram::bucket_index(a), Histogram::bucket_index(b));
    }
  }
}

TEST(HistogramBuckets, RelativeWidthBoundedByQuarter) {
  // Octave buckets with 4 linear subdivisions: width/lower <= 1/4 for all
  // buckets past the unit range — the basis of the quantile error bound.
  for (int b = Histogram::bucket_index(Histogram::kSubBuckets);
       b < Histogram::kNumBuckets; ++b) {
    const std::uint64_t lo = Histogram::bucket_lower(b);
    const std::uint64_t hi = Histogram::bucket_upper(b);
    if (hi == ~0ULL) break;  // saturated top bucket
    EXPECT_LE(hi - lo, lo / Histogram::kSubBuckets + 1)
        << "bucket " << b << " [" << lo << "," << hi << ")";
  }
}

// --------------------------------------------------------------------------
// Property: merge is associative and commutative
// --------------------------------------------------------------------------

Histogram random_histogram(std::uint64_t seed, int n) {
  Rng rng(seed);
  Histogram h;
  for (int i = 0; i < n; ++i) {
    h.record(rng.next_u64() >> (rng.next_u64() % 64));
  }
  return h;
}

void expect_same(const Histogram& a, const Histogram& b) {
  EXPECT_EQ(a.count(), b.count());
  EXPECT_EQ(a.sum(), b.sum());
  EXPECT_EQ(a.min(), b.min());
  EXPECT_EQ(a.max(), b.max());
  for (int i = 0; i < Histogram::kNumBuckets; ++i) {
    ASSERT_EQ(a.bucket_count(i), b.bucket_count(i)) << "bucket " << i;
  }
}

TEST(HistogramMerge, CommutativeOverRandomInputs) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const Histogram a = random_histogram(seed, 200);
    const Histogram b = random_histogram(seed + 1000, 300);
    Histogram ab = a;
    ab.merge(b);
    Histogram ba = b;
    ba.merge(a);
    expect_same(ab, ba);
  }
}

TEST(HistogramMerge, AssociativeOverRandomInputs) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const Histogram a = random_histogram(seed, 150);
    const Histogram b = random_histogram(seed + 100, 250);
    const Histogram c = random_histogram(seed + 200, 50);
    Histogram left = a;   // (a+b)+c
    left.merge(b);
    left.merge(c);
    Histogram bc = b;     // a+(b+c)
    bc.merge(c);
    Histogram right = a;
    right.merge(bc);
    expect_same(left, right);
  }
}

TEST(HistogramMerge, DefaultIsIdentity) {
  const Histogram a = random_histogram(5, 100);
  Histogram merged = a;
  merged.merge(Histogram());
  expect_same(merged, a);
  Histogram other;
  other.merge(a);
  expect_same(other, a);
}

// --------------------------------------------------------------------------
// Property: quantile bounded within one bucket of the exact value
// --------------------------------------------------------------------------

TEST(HistogramQuantile, ExactValueAlwaysInsideReportedBucket) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    Rng rng(seed * 7);
    Histogram h;
    std::vector<std::uint64_t> values;
    const int n = 50 + static_cast<int>(seed) * 37;
    for (int i = 0; i < n; ++i) {
      const std::uint64_t v = rng.next_u64() >> (rng.next_u64() % 60);
      values.push_back(v);
      h.record(v);
    }
    std::sort(values.begin(), values.end());
    for (double q : {0.0, 0.01, 0.25, 0.5, 0.9, 0.99, 1.0}) {
      const std::size_t rank = static_cast<std::size_t>(std::max<std::int64_t>(
          1, static_cast<std::int64_t>(
                 std::ceil(q * static_cast<double>(values.size())))));
      const std::uint64_t exact = values[rank - 1];
      EXPECT_GE(exact, h.quantile_lower(q)) << "q=" << q << " seed=" << seed;
      EXPECT_LE(exact, h.quantile(q)) << "q=" << q << " seed=" << seed;
      // Bracket width == one bucket => bounded relative error (25%).
      EXPECT_EQ(Histogram::bucket_index(h.quantile_lower(q)),
                Histogram::bucket_index(
                    std::min(h.quantile(q), h.max())));
    }
  }
}

TEST(HistogramQuantile, SmallExactValues) {
  Histogram h;
  for (std::uint64_t v : {0ULL, 1ULL, 1ULL, 2ULL, 3ULL}) h.record(v);
  EXPECT_EQ(h.quantile(0.0), 0u);
  EXPECT_EQ(h.quantile(0.5), 1u);
  EXPECT_EQ(h.quantile(1.0), 3u);
}

// --------------------------------------------------------------------------
// Registry semantics
// --------------------------------------------------------------------------

TEST(MetricsRegistry, CreateOnFirstUseAndStableReferences) {
  MetricsRegistry m;
  EXPECT_TRUE(m.empty());
  Counter& c = m.counter("a.count");
  c.add();
  m.counter("a.count").add(4);
  EXPECT_EQ(c.value, 5u);
  m.gauge("g").set(2.5);
  m.histogram("h").record(7);
  EXPECT_FALSE(m.empty());
  EXPECT_EQ(m.counters().size(), 1u);
  EXPECT_EQ(m.gauges().at("g").value, 2.5);
  EXPECT_EQ(m.histograms().at("h").count(), 1u);
}

TEST(MetricsRegistry, MergeAddsCountersAdoptsWrittenGauges) {
  MetricsRegistry a;
  a.counter("shared").add(3);
  a.counter("only_a").add(1);
  a.gauge("g").set(1.0);
  a.gauge("untouched_in_b").set(9.0);
  a.histogram("h").record(10);

  MetricsRegistry b;
  b.counter("shared").add(5);
  b.counter("only_b").add(2);
  b.gauge("g").set(4.0);
  b.gauge("untouched_in_b");  // created but never set
  b.histogram("h").record(1000);

  a.merge(b);
  EXPECT_EQ(a.counters().at("shared").value, 8u);
  EXPECT_EQ(a.counters().at("only_a").value, 1u);
  EXPECT_EQ(a.counters().at("only_b").value, 2u);
  // Gauge written on both sides: last (merged-in) writer wins.
  EXPECT_EQ(a.gauges().at("g").value, 4.0);
  // Gauge never set in b keeps a's value.
  EXPECT_EQ(a.gauges().at("untouched_in_b").value, 9.0);
  EXPECT_EQ(a.histograms().at("h").count(), 2u);
  EXPECT_EQ(a.histograms().at("h").sum(), 1010u);
}

TEST(MetricsRegistry, JsonIsNameOrderedRegardlessOfTouchOrder) {
  MetricsRegistry forward;
  forward.counter("alpha").add(1);
  forward.counter("beta").add(2);
  forward.histogram("h1").record(5);
  MetricsRegistry reverse;
  reverse.histogram("h1").record(5);
  reverse.counter("beta").add(2);
  reverse.counter("alpha").add(1);
  EXPECT_EQ(forward.to_json(), reverse.to_json());
  const std::string j = forward.to_json();
  EXPECT_LT(j.find("\"alpha\""), j.find("\"beta\""));
}

TEST(MetricsRegistry, HistogramJsonExportsExactMinMax) {
  // min/max in the JSON export are the exact recorded extremes, not bucket
  // bounds — the validators and the latency reports rely on that.
  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    Rng rng(seed * 131);
    MetricsRegistry m;
    std::uint64_t lo = ~0ULL;
    std::uint64_t hi = 0;
    const int n = 1 + static_cast<int>(rng.next_u64() % 400);
    for (int i = 0; i < n; ++i) {
      // Keep values below 2^48 so the JSON number round-trips through
      // double without rounding — the comparison stays exact.
      const std::uint64_t v = rng.next_u64() >> (16 + rng.next_u64() % 48);
      lo = std::min(lo, v);
      hi = std::max(hi, v);
      m.histogram("h").record(v);
    }
    ASSERT_EQ(m.histogram("h").min(), lo) << "seed " << seed;
    ASSERT_EQ(m.histogram("h").max(), hi) << "seed " << seed;
    const auto doc = testjson::parse(m.to_json());
    const auto& h = doc.at("histograms").at("h");
    EXPECT_EQ(h.at("min").num(), static_cast<double>(lo)) << "seed " << seed;
    EXPECT_EQ(h.at("max").num(), static_cast<double>(hi)) << "seed " << seed;
  }
}

TEST(MetricsRegistry, JsonNumbersReadBackExactly) {
  MetricsRegistry m;
  m.gauge("third").set(1.0 / 3.0);
  m.gauge("tiny").set(1e-7);
  m.gauge("nan").set(std::nan(""));
  for (std::uint64_t v : {1u, 2u, 4u}) m.histogram("h").record(v);
  const auto doc = testjson::parse(m.to_json());
  EXPECT_EQ(doc.at("gauges").at("third").num(), 1.0 / 3.0);
  EXPECT_EQ(doc.at("gauges").at("tiny").num(), 1e-7);
  EXPECT_TRUE(doc.at("gauges").at("nan").is_null());
  EXPECT_EQ(doc.at("histograms").at("h").at("mean").num(), 7.0 / 3.0);
}

// --------------------------------------------------------------------------
// Property: run-stamped merge is permutation-invariant
// --------------------------------------------------------------------------

// The experiment runner merges per-run registries in whatever order worker
// threads finish. Counters and histograms are commutative by construction;
// gauges carry a run stamp (merge(other, other_run)) so "last writer" means
// highest run index, not latest wall-clock arrival. Property: any
// permutation of merges yields the identical registry.
TEST(MetricsRegistry, MergePermutationInvariantOverSeededRuns) {
  constexpr int kIterations = 10'000;
  const std::vector<std::string> gauge_names = {"g.a", "g.b", "g.c"};
  const std::vector<std::string> counter_names = {"c.a", "c.b"};
  for (std::uint64_t seed = 1; seed <= kIterations; ++seed) {
    Rng rng(seed * 2654435761u);
    const int runs = 2 + static_cast<int>(rng.next_u64() % 4);

    // Build per-run registries; track the expected gauge winners.
    std::vector<MetricsRegistry> regs(static_cast<std::size_t>(runs));
    std::vector<double> expect_gauge(gauge_names.size(), 0.0);
    std::vector<int> expect_run(gauge_names.size(), -1);
    std::vector<std::uint64_t> expect_counter(counter_names.size(), 0);
    for (int r = 0; r < runs; ++r) {
      for (std::size_t g = 0; g < gauge_names.size(); ++g) {
        if (rng.next_u64() % 2 == 0) continue;  // this run never sets it
        const double v = static_cast<double>(rng.next_u64() % 1000);
        regs[static_cast<std::size_t>(r)].gauge(gauge_names[g]).set(v);
        if (r >= expect_run[g]) {
          expect_run[g] = r;
          expect_gauge[g] = v;
        }
      }
      for (std::size_t c = 0; c < counter_names.size(); ++c) {
        const std::uint64_t v = rng.next_u64() % 100;
        regs[static_cast<std::size_t>(r)].counter(counter_names[c]).add(v);
        expect_counter[c] += v;
      }
    }

    // Merge in a random permutation and in reverse order.
    std::vector<int> order(static_cast<std::size_t>(runs));
    for (int r = 0; r < runs; ++r) order[static_cast<std::size_t>(r)] = r;
    for (std::size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[rng.next_u64() % i]);
    }
    MetricsRegistry shuffled;
    for (const int r : order) {
      shuffled.merge(regs[static_cast<std::size_t>(r)], r);
    }
    MetricsRegistry reversed;
    for (int r = runs - 1; r >= 0; --r) {
      reversed.merge(regs[static_cast<std::size_t>(r)], r);
    }

    for (std::size_t g = 0; g < gauge_names.size(); ++g) {
      if (expect_run[g] < 0) continue;
      ASSERT_EQ(shuffled.gauges().at(gauge_names[g]).value, expect_gauge[g])
          << "seed " << seed;
    }
    for (std::size_t c = 0; c < counter_names.size(); ++c) {
      ASSERT_EQ(shuffled.counters().at(counter_names[c]).value,
                expect_counter[c])
          << "seed " << seed;
    }
    ASSERT_EQ(shuffled.to_json(), reversed.to_json()) << "seed " << seed;
  }
}

// --------------------------------------------------------------------------
// Round-trip: metrics JSON through the ordered bench_json writer
// --------------------------------------------------------------------------

TEST(MetricsRegistry, JsonRoundTripsThroughBenchJsonWriter) {
  MetricsRegistry m;
  m.counter("epoch.passes").add(42);
  m.counter("balance.migrations").add(7);
  m.gauge("sense.healthy_fraction").set(0.875);
  for (std::uint64_t v : {100ULL, 250ULL, 900ULL, 12000ULL}) {
    m.histogram("epoch.sense_ns").record(v);
  }

  const auto doc = testjson::parse(m.to_json());
  ASSERT_TRUE(doc.is_object());

  // Re-emit every exported number through the ordered bench_json writer
  // (the BENCH_*.json serializer) and parse it back: values must survive
  // both serializers bit-for-bit at their stated precision.
  bench::Json j;
  j.begin_object();
  j.begin_object("counters");
  for (const auto& [name, c] : m.counters()) {
    j.field(name, static_cast<unsigned long long>(c.value));
  }
  j.end_object();
  j.begin_object("gauges");
  for (const auto& [name, g] : m.gauges()) {
    j.field(name, g.value);
  }
  j.end_object();
  j.begin_object("histograms");
  for (const auto& [name, h] : m.histograms()) {
    j.begin_object(name)
        .field("count", static_cast<unsigned long long>(h.count()))
        .field("sum", static_cast<unsigned long long>(h.sum()))
        .field("p99", static_cast<unsigned long long>(h.quantile(0.99)))
        .end_object();
  }
  j.end_object();
  j.end_object();
  const auto rt = testjson::parse(j.str());

  for (const auto& [name, c] : m.counters()) {
    EXPECT_EQ(doc.at("counters").at(name).num(),
              static_cast<double>(c.value));
    EXPECT_EQ(rt.at("counters").at(name).num(),
              static_cast<double>(c.value));
  }
  EXPECT_DOUBLE_EQ(doc.at("gauges").at("sense.healthy_fraction").num(), 0.875);
  EXPECT_DOUBLE_EQ(rt.at("gauges").at("sense.healthy_fraction").num(), 0.875);
  const auto& h = m.histograms().at("epoch.sense_ns");
  EXPECT_EQ(doc.at("histograms").at("epoch.sense_ns").at("count").num(),
            static_cast<double>(h.count()));
  EXPECT_EQ(rt.at("histograms").at("epoch.sense_ns").at("sum").num(),
            static_cast<double>(h.sum()));
  EXPECT_EQ(rt.at("histograms").at("epoch.sense_ns").at("p99").num(),
            static_cast<double>(h.quantile(0.99)));
}

}  // namespace
}  // namespace sb::obs

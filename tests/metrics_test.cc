// Metrics registry tests: instrument correctness under concurrency (run
// under the tsan preset too), registry semantics (create-on-first-use,
// stable pointers, reset keeps registrations), and the governor's
// instruments.

#include <gtest/gtest.h>

#include <chrono>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/governor.h"
#include "common/metrics.h"

namespace mct {
namespace {

TEST(MetricsTest, CountersSumAcrossThreads) {
  Counter c;
  constexpr int kThreads = 8;
  constexpr int kIncs = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (int i = 0; i < kIncs; ++i) c.Inc();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.value(), static_cast<uint64_t>(kThreads) * kIncs);
}

TEST(MetricsTest, HistogramConcurrentObservationsAreComplete) {
  Histogram h;
  constexpr int kThreads = 8;
  constexpr uint64_t kSamples = 5000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h] {
      for (uint64_t i = 0; i < kSamples; ++i) h.Observe(i);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(h.count(), kThreads * kSamples);
  // Sum of 0..4999 per thread.
  EXPECT_EQ(h.sum(), kThreads * (kSamples * (kSamples - 1) / 2));
  EXPECT_EQ(h.max(), kSamples - 1);
  uint64_t bucket_total = 0;
  for (int b = 0; b < Histogram::kBuckets; ++b) bucket_total += h.BucketCount(b);
  EXPECT_EQ(bucket_total, h.count());
}

TEST(MetricsTest, HistogramBucketsAndPercentiles) {
  Histogram h;
  // Bucket 0 holds 0; bucket b holds [2^(b-1), 2^b).
  h.Observe(0);
  h.Observe(1);
  h.Observe(2);
  h.Observe(3);
  h.Observe(1000);
  EXPECT_EQ(h.BucketCount(0), 1u);  // 0
  EXPECT_EQ(h.BucketCount(1), 1u);  // 1
  EXPECT_EQ(h.BucketCount(2), 2u);  // 2, 3
  EXPECT_EQ(h.BucketCount(10), 1u);  // 1000 in [512, 1024)
  EXPECT_EQ(h.count(), 5u);
  EXPECT_EQ(h.sum(), 1006u);
  EXPECT_EQ(h.max(), 1000u);
  EXPECT_DOUBLE_EQ(h.Mean(), 1006.0 / 5);
  // The median lands in bucket 2 (upper edge 3); the top of the
  // distribution reaches 1000's bucket (upper edge 1023).
  EXPECT_EQ(h.ApproxPercentile(0.5), 3u);
  EXPECT_GE(h.ApproxPercentile(1.0), 512u);
}

TEST(MetricsTest, GaugeSetMaxIsMonotone) {
  Gauge g;
  g.SetMax(10);
  EXPECT_EQ(g.value(), 10);
  g.SetMax(5);  // lower: no effect
  EXPECT_EQ(g.value(), 10);
  g.SetMax(12);
  EXPECT_EQ(g.value(), 12);
  // Interacts with Set as a plain write: SetMax only ever raises.
  g.Set(3);
  g.SetMax(2);
  EXPECT_EQ(g.value(), 3);
}

TEST(MetricsTest, GaugeSetMaxConcurrentKeepsGlobalMax) {
  Gauge g;
  constexpr int kThreads = 8;
  constexpr int64_t kPerThread = 5000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&g, t] {
      // Interleaved ranges; the global max is kThreads * kPerThread - 1.
      for (int64_t i = 0; i < kPerThread; ++i) {
        g.SetMax(i * kThreads + t);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(g.value(), static_cast<int64_t>(kThreads) * kPerThread - 1);
}

TEST(MetricsTest, RegistryCreatesOnFirstUseAndKeepsPointersAcrossReset) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  Counter* a = reg.counter("mct.test.some_counter");
  Counter* b = reg.counter("mct.test.some_counter");
  EXPECT_EQ(a, b);  // same name, same instrument
  a->Inc(5);
  EXPECT_EQ(b->value(), 5u);

  Gauge* g = reg.gauge("mct.test.some_gauge");
  g->Set(-3);
  Histogram* h = reg.histogram("mct.test.some_hist");
  h->Observe(7);

  reg.ResetForTest();
  // Registrations and cached pointers survive; values are zeroed.
  EXPECT_EQ(reg.counter("mct.test.some_counter"), a);
  EXPECT_EQ(a->value(), 0u);
  EXPECT_EQ(g->value(), 0);
  EXPECT_EQ(h->count(), 0u);
}

TEST(MetricsTest, RegistryConcurrentLookupsOfSameNameAgree) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  constexpr int kThreads = 8;
  std::vector<Counter*> seen(kThreads, nullptr);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&reg, &seen, t] {
      Counter* c = reg.counter("mct.test.racy_counter");
      c->Inc();
      seen[static_cast<size_t>(t)] = c;
    });
  }
  for (auto& t : threads) t.join();
  for (int t = 1; t < kThreads; ++t) EXPECT_EQ(seen[0], seen[t]);
  EXPECT_EQ(seen[0]->value(), static_cast<uint64_t>(kThreads));
  seen[0]->Reset();
}

TEST(MetricsTest, DumpsContainRegisteredInstruments) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  reg.counter("mct.test.dumped")->Inc(3);
  reg.histogram("mct.test.dumped_hist")->Observe(64);
  std::string text = reg.ToText();
  EXPECT_NE(text.find("mct.test.dumped"), std::string::npos);
  std::string json = reg.ToJson();
  EXPECT_NE(json.find("\"mct.test.dumped\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"mct.test.dumped_hist\""), std::string::npos);
  reg.ResetForTest();
}

TEST(MetricsTest, GovernorInstrumentsCountTripsOnce) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  Counter* cancels = reg.counter("mct.governor.cancels");
  Counter* deadline_hits = reg.counter("mct.governor.deadline_hits");
  Counter* rejections = reg.counter("mct.governor.budget_rejections");
  const uint64_t cancels0 = cancels->value();
  const uint64_t deadline0 = deadline_hits->value();
  const uint64_t reject0 = rejections->value();

  // Cancel trip: counted once even though the governor is checked twice
  // (the sticky flag short-circuits).
  CancelToken token;
  token.RequestCancel();
  {
    ResourceGovernor gov(&token, std::nullopt, nullptr);
    EXPECT_TRUE(gov.ShouldStop());
    EXPECT_TRUE(gov.ShouldStop());
    EXPECT_TRUE(gov.status().IsCancelled());
  }
  EXPECT_EQ(cancels->value() - cancels0, 1u);

  // Deadline trip.
  {
    ResourceGovernor gov(
        nullptr,
        std::chrono::steady_clock::now() - std::chrono::milliseconds(1),
        nullptr);
    EXPECT_TRUE(gov.ShouldStop());
    EXPECT_TRUE(gov.ShouldStop());
    EXPECT_TRUE(gov.status().IsDeadlineExceeded());
  }
  EXPECT_EQ(deadline_hits->value() - deadline0, 1u);

  // Budget rejection.
  {
    MemoryBudget budget(1024);
    ResourceGovernor gov(nullptr, std::nullopt, &budget);
    EXPECT_FALSE(gov.ChargeOrStop(512));
    EXPECT_TRUE(gov.ChargeOrStop(4096));
    EXPECT_TRUE(gov.ChargeOrStop(1));  // already tripped
    EXPECT_TRUE(gov.status().IsResourceExhausted());
  }
  EXPECT_EQ(rejections->value() - reject0, 1u);
}

TEST(MetricsTest, GovernorPeakBytesGaugeIsHighWatermark) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  Gauge* peak = reg.gauge("mct.governor.peak_bytes");
  peak->Set(0);
  {
    MemoryBudget budget(1 << 20);
    ASSERT_TRUE(budget.TryCharge(4096).ok());
    budget.Release(4096);
    ASSERT_TRUE(budget.TryCharge(100).ok());
  }  // dtor publishes peak (4096, not the final 100)
  EXPECT_EQ(peak->value(), 4096);
  {
    MemoryBudget budget(1 << 20);
    ASSERT_TRUE(budget.TryCharge(64).ok());
  }  // smaller peak must not lower the gauge
  EXPECT_EQ(peak->value(), 4096);
}

}  // namespace
}  // namespace mct

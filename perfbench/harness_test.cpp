// Tests of the perfbench harness statistics and span tracer.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "harness.hpp"
#include "telemetry/json.hpp"

namespace perfbench {
namespace {

namespace json = hulkv::telemetry::json;

std::vector<double> iota(size_t n) {
  std::vector<double> v(n);
  for (size_t i = 0; i < n; ++i) v[i] = static_cast<double>(n - i);  // n..1
  return v;
}

TEST(Median, OddEvenAndUnsorted) {
  EXPECT_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_EQ(median({7.0}), 7.0);
  EXPECT_THROW(median({}), hulkv::SimError);
}

TEST(Throughput, IsTotalOverWindowNotPerOpMedian) {
  // A bimodal op stream: 60 fast ops of 27 ms and 40 slow ops of 35 ms.
  // Throughput is total work over total time; the per-op median would
  // report the fast mode alone.
  std::vector<double> op_s;
  for (int i = 0; i < 60; ++i) op_s.push_back(0.027);
  for (int i = 0; i < 40; ++i) op_s.push_back(0.035);
  double total_s = 0.0;
  for (double s : op_s) total_s += s;
  EXPECT_DOUBLE_EQ(throughput(100.0, total_s), 100.0 / 3.02);
  EXPECT_GT(1.0 / median(op_s), throughput(100.0, total_s));
  EXPECT_THROW(throughput(1.0, 0.0), hulkv::SimError);
}

/// Event order of one run_phases call: 'S' per set-up, 'b' per batch.
std::string phase_order(double* timed_s, u64* set_up_ns) {
  std::string order;
  u64 in_set_up = 0;
  const Phases p = run_phases(
      0.05, 5,
      [&] {
        const u64 t0 = now_ns();
        order += 'S';
        while (now_ns() - t0 < 2'000'000) {}  // 2 ms of set-up work
        in_set_up += now_ns() - t0;
      },
      [&](u64 deadline) {
        order += 'b';
        const u64 t0 = now_ns();
        while (now_ns() - t0 < 1'000'000 && now_ns() < deadline) {}
      });
  EXPECT_EQ(p.setup_s.size(), 5u);
  *timed_s = p.timed_s;
  *set_up_ns = in_set_up;
  return order;
}

TEST(RunPhases, SpreadSetUpsAcrossTheTimedWindow) {
  double timed_s = 0.0;
  u64 set_up_ns = 0;
  const std::string order = phase_order(&timed_s, &set_up_ns);
  EXPECT_EQ(order.front(), 'S');
  EXPECT_EQ(std::count(order.begin(), order.end(), 'S'), 5);
  // Set-ups 2..5 fall at 1/5 .. 4/5 of the window, between batches.
  EXPECT_NE(order.find("bS"), std::string::npos);
  EXPECT_EQ(order.back(), 'b');
  EXPECT_NE(order.rfind('S'), order.size() - 2);  // not bunched at the end
  // The window counts batches only: 50 ms, plus at most one batch over.
  EXPECT_GE(timed_s, 0.05);
  EXPECT_LT(timed_s, 0.05 + 0.002 + 0.5 * set_up_ns * 1e-9);
}

TEST(Reservoir, KeepsEverythingUpToCapacityThenAFixedSample) {
  Reservoir small(100, 1);
  for (int i = 0; i < 60; ++i) small.add(i);
  EXPECT_EQ(small.values().size(), 60u);
  EXPECT_EQ(median(small.values()), 29.5);

  Reservoir r(1000, 1), again(1000, 1);
  for (int i = 0; i < 100000; ++i) {
    r.add(i);
    again.add(i);
  }
  EXPECT_EQ(r.seen(), 100000u);
  EXPECT_EQ(r.values().size(), 1000u);
  EXPECT_EQ(r.values(), again.values());  // the seed fixes the sample
  // A uniform sample of 0..99999: its median is near 50000.
  EXPECT_NEAR(median(r.values()), 50000.0, 5000.0);
}

TEST(Tally, CountsFailuresAgainstAttempts) {
  Tally t;
  for (int i = 0; i < 7; ++i) t.record(i % 3 != 0);  // fails i = 0, 3, 6
  EXPECT_EQ(t.attempted, 7u);
  EXPECT_EQ(t.failed, 3u);
}

TEST(Percentile, NearestRankWithTenSamplesBeyond) {
  // p50 of 20 samples: rank 10, ten samples above it.
  ASSERT_TRUE(percentile(iota(20), 50).has_value());
  EXPECT_EQ(*percentile(iota(20), 50), 10.0);
  // p90 needs 100 samples, p99 needs 1000.
  EXPECT_EQ(*percentile(iota(100), 90), 90.0);
  EXPECT_EQ(*percentile(iota(1000), 99), 990.0);
}

TEST(Percentile, RefusedWithFewerThanTenBeyond) {
  EXPECT_FALSE(percentile(iota(19), 50).has_value());
  EXPECT_FALSE(percentile(iota(99), 90).has_value());
  EXPECT_FALSE(percentile(iota(999), 99).has_value());
  EXPECT_FALSE(percentile({}, 50).has_value());
  EXPECT_THROW(percentile(iota(10), 100), hulkv::SimError);
}

TEST(ResultJson, ExactKeysAndAllDigits) {
  Tally t;
  t.record(true);
  t.record(false);
  const std::string line =
      result_json(false, t, {{"latency_ms", 1.2034567891, "ms"},
                             {"setup_s", 0.8127, "s"}});
  const json::Value v = json::parse(line);
  ASSERT_EQ(v.as_object().size(), 4u);
  EXPECT_FALSE(v.find("correct")->as_bool());
  EXPECT_EQ(v.find("attempted")->as_number(), 2.0);
  EXPECT_EQ(v.find("failed")->as_number(), 1.0);
  EXPECT_EQ(v.find_path("metrics.latency_ms.value")->raw_number(),
            "1.2034567891");
  EXPECT_EQ(v.find_path("metrics.setup_s.unit")->as_string(), "s");
}

TEST(Conform, PutsMetricsInManifestOrder) {
  const std::vector<MetricSpec> specs = {{"setup_s", "s"},
                                         {"ops_per_s", "1/s"}};
  const std::vector<Metric> out =
      conform({{"ops_per_s", 5.0, "1/s"}, {"setup_s", 0.5, "s"}}, specs,
              false);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].name, "setup_s");
  EXPECT_EQ(out[1].value, 5.0);
}

TEST(Conform, IdleLayersReadZeroOnlyWhenAllowed) {
  const std::vector<MetricSpec> specs = {{"host.run_ms", "ms"},
                                         {"serve.wire_us", "us"}};
  const std::vector<Metric> measured = {{"host.run_ms", 7.0, "ms"}};
  EXPECT_THROW(conform(measured, specs, false), hulkv::SimError);
  const std::vector<Metric> out = conform(measured, specs, true);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[1].name, "serve.wire_us");
  EXPECT_EQ(out[1].value, 0.0);
  EXPECT_EQ(out[1].unit, "us");
}

TEST(Conform, RefusesUnknownDuplicateAndWrongUnit) {
  const std::vector<MetricSpec> specs = {{"setup_s", "s"}};
  EXPECT_THROW(conform({{"latency_ms", 1.0, "ms"}}, specs, true),
               hulkv::SimError);
  EXPECT_THROW(conform({{"setup_s", 1.0, "s"}, {"setup_s", 2.0, "s"}},
                       specs, true),
               hulkv::SimError);
  EXPECT_THROW(conform({{"setup_s", 1.0, "ms"}}, specs, true),
               hulkv::SimError);
}

Span span(const char* name, u64 start, u64 end, u32 parent, u64 op) {
  Span s;
  s.name = name;
  s.start_ns = start;
  s.end_ns = end;
  s.parent = parent;
  s.op = op;
  return s;
}

TEST(Tracer, SelfTimeSubtractsTheUnionOfChildren) {
  Tracer t(true);
  const u32 op = t.add(span("op", 0, 100, Span::kNoParent, 7));
  t.add(span("a", 10, 40, op, 7));
  t.add(span("b", 30, 60, op, 7));  // overlaps a: union is [10, 60)
  t.add(span("a", 70, 90, op, 7));
  const auto layers = t.layers();
  EXPECT_EQ(layers.at("op").calls, 1u);
  EXPECT_EQ(layers.at("op").self_ns, 30u);  // 100 - 50 - 20
  EXPECT_EQ(layers.at("a").calls, 2u);
  EXPECT_EQ(layers.at("a").self_ns, 50u);
  EXPECT_EQ(mean_self_ns(layers, "a"), 25.0);
  EXPECT_EQ(mean_self_ns(layers, "missing"), 0.0);
  EXPECT_DOUBLE_EQ(t.min_child_coverage("op"), 0.7);
}

TEST(Tracer, ScopesNestAndDisabledRecordsNothing) {
  Tracer off(false);
  {
    const Tracer::Scope outer(off, "outer", 1);
    const Tracer::Scope inner(off, "inner", 1);
  }
  EXPECT_TRUE(off.spans().empty());

  Tracer on(true);
  {
    const Tracer::Scope outer(on, "outer", 1);
    { const Tracer::Scope inner(on, "inner", 1); }
    { const Tracer::Scope inner(on, "inner", 1); }
  }
  { const Tracer::Scope next(on, "next", 2); }
  ASSERT_EQ(on.spans().size(), 4u);
  EXPECT_EQ(on.spans()[0].parent, Span::kNoParent);
  EXPECT_EQ(on.spans()[1].parent, 0u);
  EXPECT_EQ(on.spans()[2].parent, 0u);
  EXPECT_EQ(on.spans()[3].parent, Span::kNoParent);
  EXPECT_EQ(on.spans()[3].op, 2u);
  EXPECT_LE(on.spans()[1].end_ns, on.spans()[2].start_ns);
}

TEST(Tracer, ChromeTraceCarriesOpIdsAndParents) {
  Tracer t(true);
  const u32 op = t.add(span("op", 1000, 9000, Span::kNoParent, 42));
  t.add(span("child", 2000, 3000, op, 42));
  const std::string path = "harness_test_trace.json";  // in the build tree
  t.write_chrome_trace(path, "{\"workload\":\"test\"}");
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  std::remove(path.c_str());
  const json::Value doc = json::parse(text.str());
  EXPECT_EQ(doc.find_path("otherData.workload")->as_string(), "test");
  const auto& events = doc.find("traceEvents")->as_array();
  ASSERT_EQ(events.size(), 3u);  // process name + two spans
  const json::Value& child = events[2];
  EXPECT_EQ(child.find("ph")->as_string(), "X");
  EXPECT_EQ(child.find_path("args.op")->as_number(), 42.0);
  EXPECT_EQ(child.find_path("args.parent")->as_number(), 0.0);
  EXPECT_EQ(child.find("ts")->as_number(), 1.0);   // us from the first span
  EXPECT_EQ(child.find("dur")->as_number(), 1.0);
}

}  // namespace
}  // namespace perfbench

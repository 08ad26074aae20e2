// Tests of the benchmark's own helpers: the percentile rule, self time, and
// span nesting on a real traced run.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <vector>

#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

TEST(PercentileRule, KeepsRequestedTailWithTenSamplesBeyond) {
  EXPECT_DOUBLE_EQ(tail_percentile(200, 95.0), 95.0);
  EXPECT_DOUBLE_EQ(tail_percentile(1000, 95.0), 95.0);
  EXPECT_DOUBLE_EQ(tail_percentile(100, 90.0), 90.0);
}

TEST(PercentileRule, CapsTailSoTenSamplesStayBeyond) {
  EXPECT_DOUBLE_EQ(tail_percentile(100, 95.0), 90.0);
  EXPECT_DOUBLE_EQ(tail_percentile(40, 95.0), 75.0);
  // Nearest rank at the capped percentile leaves exactly ten samples above.
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  const double p = percentile(v, tail_percentile(v.size(), 95.0));
  EXPECT_DOUBLE_EQ(p, 90.0);
  int beyond = 0;
  for (double x : v) beyond += x > p ? 1 : 0;
  EXPECT_EQ(beyond, 10);
}

TEST(PercentileRule, FallsBackToMedianForSmallSamples) {
  EXPECT_DOUBLE_EQ(tail_percentile(19, 95.0), 50.0);
  EXPECT_DOUBLE_EQ(tail_percentile(1, 90.0), 50.0);
  EXPECT_DOUBLE_EQ(percentile({3.0, 1.0, 2.0}, 50.0), 2.0);
  EXPECT_DOUBLE_EQ(percentile({4.0, 1.0, 3.0, 2.0}, 50.0), 2.0);
}

Span make(const char* name, double start, double end, int parent) {
  Span s;
  s.name = name;
  s.start = start;
  s.end = end;
  s.parent = parent;
  return s;
}

TEST(SelfTime, SubtractsUnionOfChildren) {
  std::vector<Span> spans = {
      make("step", 0.0, 10.0, -1),
      make("a", 1.0, 3.0, 0),
      make("b", 2.0, 5.0, 0),   // overlaps a: covered once
      make("c", 8.0, 12.0, 0),  // clipped to the parent
      make("d", 1.5, 2.5, 1),   // grandchild: not the step's child
  };
  EXPECT_DOUBLE_EQ(self_seconds(spans, 0), 10.0 - 4.0 - 2.0);
  EXPECT_DOUBLE_EQ(self_seconds(spans, 1), 2.0 - 1.0);
  EXPECT_DOUBLE_EQ(self_seconds(spans, 4), 1.0);
  const auto by_name = self_seconds_by_name(spans);
  EXPECT_DOUBLE_EQ(by_name.at("step"), 4.0);
  EXPECT_DOUBLE_EQ(by_name.at("c"), 4.0);
}

TEST(SpanRecorder, NestsScopedSpans) {
  SpanRecorder rec;
  rec.set_group(7);
  {
    ScopedSpan outer(&rec, "outer");
    ScopedSpan inner(&rec, "inner");
  }
  ScopedSpan after(&rec, "after");
  ASSERT_EQ(rec.spans().size(), 3u);
  EXPECT_EQ(rec.spans()[0].parent, -1);
  EXPECT_EQ(rec.spans()[1].parent, 0);
  EXPECT_EQ(rec.spans()[2].parent, -1);
  EXPECT_EQ(rec.spans()[1].group, 7);
  std::ostringstream os;
  rec.write_json(os);
  EXPECT_NE(os.str().find("\"name\":\"inner\",\"start\":"), std::string::npos);
}

// A real traced run: every layer span sits inside an md.step span of the
// same step (or, for the drivers' constructors, inside md.setup), the steps
// are disjoint and in order, and the reported call counts are the spans
// inside the steps.
TEST(TracedRun, LayerSpansNestInsideSteps) {
  const auto dir = std::filesystem::current_path() / "selftest_out";
  std::filesystem::create_directories(dir);
  RunConfig cfg;
  cfg.workload = "pme_ranks8";
  cfg.seed = 3;
  cfg.seconds = 0.0;
  cfg.trace = true;
  cfg.out_dir = dir.string();
  const RunResult r = run_workload(cfg);
  EXPECT_TRUE(r.correct);
  EXPECT_EQ(r.failed, 0u);
  EXPECT_GT(r.metrics.at("pme.calls").value, 0.0);
  EXPECT_GT(r.metrics.at("core.sr.calls").value, 0.0);

  // Re-read the dump the run wrote.
  std::ifstream in(dir / "spans_pme_ranks8_seed3.json");
  ASSERT_TRUE(in.good());
  std::stringstream text;
  text << in.rdbuf();
  std::vector<Span> spans;
  std::string line;
  while (std::getline(text, line)) {
    if (line.find("{\"name\"") == std::string::npos) continue;
    Span s;
    auto field = [&](const char* key) {
      const auto at = line.find(std::string("\"") + key + "\":");
      return line.substr(at + std::string(key).size() + 3);
    };
    const std::string name = field("name");
    s.name = name.substr(1, name.find('"', 1) - 1);
    s.start = std::stod(field("start"));
    s.end = std::stod(field("end"));
    s.parent = std::stoi(field("parent"));
    s.group = std::stoll(field("group"));
    spans.push_back(s);
  }
  ASSERT_FALSE(spans.empty());
  std::set<std::string> layers;
  std::map<std::string, double> calls_in_steps;
  double last_step_end = -1.0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    EXPECT_LE(s.start, s.end);
    if (s.name == "md.setup") {
      EXPECT_EQ(s.parent, -1);
      continue;
    }
    if (s.name == "md.step") {
      EXPECT_EQ(s.parent, -1);
      EXPECT_GE(s.start, last_step_end);
      last_step_end = s.end;
      continue;
    }
    layers.insert(s.name);
    ASSERT_GE(s.parent, 0) << s.name;
    ASSERT_LT(static_cast<std::size_t>(s.parent), i);
    const Span& p = spans[static_cast<std::size_t>(s.parent)];
    EXPECT_TRUE(p.name == "md.step" || p.name == "md.setup") << p.name;
    if (p.name == "md.step") calls_in_steps[s.name] += 1.0;
    EXPECT_EQ(p.group, s.group);
    EXPECT_GE(s.start, p.start);
    EXPECT_LE(s.end, p.end);
  }
  EXPECT_EQ(layers, (std::set<std::string>{"core.sr", "core.pairlist", "pme"}));
  EXPECT_EQ(calls_in_steps["core.sr"], r.metrics.at("core.sr.calls").value);
  EXPECT_EQ(calls_in_steps["core.pairlist"],
            r.metrics.at("core.pairlist.calls").value);
  EXPECT_EQ(calls_in_steps["pme"], r.metrics.at("pme.calls").value);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace perfbench

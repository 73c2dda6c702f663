// The golden-schema test for vdp.runlog/v1: every line kind the writer can
// emit is pinned field-by-field, and ValidateRunLogLine (the authoritative
// schema) must accept exactly those shapes. A writer change that adds,
// renames, or retypes a field fails here first -- that is the point: the
// run-log is consumed by CI trend jobs that outlive any one PR.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include "src/obs/json.h"
#include "src/obs/runlog.h"

namespace vdp {
namespace obs {
namespace {

class RunLogSchemaTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = ::testing::TempDir() + "runlog_schema_" + std::to_string(getpid()) + ".jsonl";
    std::remove(path_.c_str());
  }
  void TearDown() override { std::remove(path_.c_str()); }

  std::vector<JsonValue> ReadLines() {
    std::vector<JsonValue> lines;
    std::ifstream in(path_);
    std::string line;
    while (std::getline(in, line)) {
      auto parsed = ParseJson(line);
      EXPECT_TRUE(parsed.has_value()) << "unparseable run-log line: " << line;
      if (parsed.has_value()) {
        lines.push_back(std::move(*parsed));
      }
    }
    return lines;
  }

  static std::set<std::string> Keys(const JsonValue& object) {
    std::set<std::string> keys;
    for (const auto& [k, v] : object.members()) {
      keys.insert(k);
    }
    return keys;
  }

  // Every emitted line must satisfy the envelope + the validator.
  static void ExpectValid(const JsonValue& line) {
    std::string error;
    EXPECT_TRUE(ValidateRunLogLine(line, &error)) << error;
    EXPECT_EQ(line.StringOr("schema", ""), kRunLogSchema);
    EXPECT_GT(line.NumberOr("t_ms", 0), 0.0);
    EXPECT_GT(line.NumberOr("pid", 0), 0.0);
  }

  std::string path_;
};

TEST_F(RunLogSchemaTest, HeaderLineIsGolden) {
  {
    auto log = RunLogWriter::Open(path_);
    ASSERT_NE(log, nullptr);
    RunHeader header;
    header.tool = "golden_test";
    header.group = "modp-256";
    header.n_uploads = 4096;
    header.num_shards = 8;
    header.pool_threads = 4;
    header.remote_endpoints = 2;
    header.notes = "schema pin";
    log->Header(header);
  }
  auto lines = ReadLines();
  ASSERT_EQ(lines.size(), 1u);
  ExpectValid(lines[0]);
  EXPECT_EQ(lines[0].StringOr("kind", ""), "header");
  // The golden field set. A new field here is a schema change: update this
  // test, ValidateRunLogLine, and README "Observability" together.
  EXPECT_EQ(Keys(lines[0]),
            (std::set<std::string>{"schema", "kind", "t_ms", "pid", "tool", "git_sha",
                                   "hardware_concurrency", "pool_threads",
                                   "remote_endpoints", "n_uploads", "num_shards", "group",
                                   "notes"}));
  EXPECT_EQ(lines[0].StringOr("tool", ""), "golden_test");
  EXPECT_DOUBLE_EQ(lines[0].NumberOr("n_uploads", 0), 4096);
  EXPECT_DOUBLE_EQ(lines[0].NumberOr("pool_threads", 0), 4);
  EXPECT_FALSE(lines[0].StringOr("git_sha", "").empty());
  EXPECT_GT(lines[0].NumberOr("hardware_concurrency", 0), 0.0);
}

TEST_F(RunLogSchemaTest, StagesLineIsGolden) {
  {
    auto log = RunLogWriter::Open(path_);
    ASSERT_NE(log, nullptr);
    log->Stages("clean", "sharded",
                {{"ingest", 1.5}, {"verify", 90.25}, {"combine", 0.5}},
                /*total_ms=*/92.5, {{"accepted", 4095}});
  }
  auto lines = ReadLines();
  ASSERT_EQ(lines.size(), 1u);
  ExpectValid(lines[0]);
  EXPECT_EQ(lines[0].StringOr("kind", ""), "stages");
  EXPECT_EQ(Keys(lines[0]),
            (std::set<std::string>{"schema", "kind", "t_ms", "pid", "scenario",
                                   "backend", "stages", "total_ms", "accepted"}));
  const JsonValue* stages = lines[0].Find("stages");
  ASSERT_NE(stages, nullptr);
  EXPECT_EQ(Keys(*stages), (std::set<std::string>{"ingest", "verify", "combine"}));
  EXPECT_DOUBLE_EQ(stages->NumberOr("verify", 0), 90.25);
  EXPECT_DOUBLE_EQ(lines[0].NumberOr("total_ms", 0), 92.5);
}

TEST_F(RunLogSchemaTest, MetricAndHistogramLinesAreGolden) {
  {
    auto log = RunLogWriter::Open(path_);
    ASSERT_NE(log, nullptr);
    MetricsRegistry registry;
    registry.GetCounter(kFleetRetries)->Add(3);
    registry.GetGauge(kShardQueueDepth)->Set(5);
    registry.GetHistogram(kVerifyShardMs, {10.0, 100.0})->Record(42.0);
    log->Metrics(registry.Snapshot());
  }
  auto lines = ReadLines();
  ASSERT_EQ(lines.size(), 3u);  // counter, gauge, histogram
  for (const auto& line : lines) {
    ExpectValid(line);
  }
  EXPECT_EQ(lines[0].StringOr("kind", ""), "metric");
  EXPECT_EQ(Keys(lines[0]), (std::set<std::string>{"schema", "kind", "t_ms", "pid",
                                                   "name", "type", "value"}));
  EXPECT_EQ(lines[0].StringOr("name", ""), kFleetRetries);
  EXPECT_EQ(lines[0].StringOr("type", ""), "counter");
  EXPECT_DOUBLE_EQ(lines[0].NumberOr("value", 0), 3);

  EXPECT_EQ(Keys(lines[1]), (std::set<std::string>{"schema", "kind", "t_ms", "pid",
                                                   "name", "type", "value", "max"}));
  EXPECT_EQ(lines[1].StringOr("type", ""), "gauge");
  EXPECT_DOUBLE_EQ(lines[1].NumberOr("max", 0), 5);

  EXPECT_EQ(lines[2].StringOr("kind", ""), "histogram");
  EXPECT_EQ(Keys(lines[2]),
            (std::set<std::string>{"schema", "kind", "t_ms", "pid", "name", "count",
                                   "sum", "bounds", "counts", "p50", "p90", "p99"}));
  EXPECT_EQ(lines[2].Find("counts")->items().size(),
            lines[2].Find("bounds")->items().size() + 1);
  // The percentile fields are estimates derived from the buckets; the
  // validator accepts lines without them (pre-PR-10 writers) but requires
  // all three once any is present.
  EXPECT_GE(lines[2].NumberOr("p99", -1), lines[2].NumberOr("p50", -1));
}

// The verification-core counters trend jobs read, by their canonical names:
// each is a plain counter line.
TEST_F(RunLogSchemaTest, VerifyCoreCountersAreCounterLines) {
  const std::vector<std::string> names = {kMsmCalls, kMsmScalars, kVerifyBisectBatches};
  {
    auto log = RunLogWriter::Open(path_);
    ASSERT_NE(log, nullptr);
    MetricsRegistry registry;
    for (size_t i = 0; i < names.size(); ++i) {
      registry.GetCounter(names[i].c_str())->Add(i + 1);
    }
    log->Metrics(registry.Snapshot());
  }
  auto lines = ReadLines();
  ASSERT_EQ(lines.size(), names.size());
  std::set<std::string> seen;
  for (const auto& line : lines) {
    ExpectValid(line);
    EXPECT_EQ(line.StringOr("type", ""), "counter");
    seen.insert(line.StringOr("name", ""));
  }
  EXPECT_EQ(seen, std::set<std::string>(names.begin(), names.end()));
  EXPECT_EQ(std::string(kVerifyBisectBatches), "verify.bisect_batches");
}

TEST_F(RunLogSchemaTest, SpanLineIsGoldenWithHexIds) {
  {
    auto log = RunLogWriter::Open(path_);
    ASSERT_NE(log, nullptr);
    SpanRecord span;
    span.name = "verify";
    span.trace_id = 0xdeadbeef;
    span.span_id = 0x10;
    span.parent_span_id = 0;
    span.start_us = 1000;
    span.duration_us = 2500;
    span.proc = "server:1";
    span.detail = "shard=3";
    log->Spans({span});
  }
  auto lines = ReadLines();
  ASSERT_EQ(lines.size(), 1u);
  ExpectValid(lines[0]);
  EXPECT_EQ(lines[0].StringOr("kind", ""), "span");
  EXPECT_EQ(Keys(lines[0]),
            (std::set<std::string>{"schema", "kind", "t_ms", "pid", "name", "trace_id",
                                   "span_id", "parent_span_id", "start_us",
                                   "duration_us", "proc", "detail"}));
  // 64-bit ids travel as lowercase hex strings (JSON numbers are doubles).
  EXPECT_EQ(lines[0].StringOr("trace_id", ""), "deadbeef");
  EXPECT_EQ(lines[0].StringOr("span_id", ""), "10");
  EXPECT_EQ(lines[0].StringOr("parent_span_id", ""), "0");
  EXPECT_EQ(lines[0].StringOr("proc", ""), "server:1");
}

TEST_F(RunLogSchemaTest, ValidatorRejectsViolations) {
  std::string error;
  // Not an object.
  EXPECT_FALSE(ValidateRunLogLine(JsonValue::Number(1), &error));

  auto make_envelope = [](const std::string& kind) {
    JsonValue line = JsonValue::Object();
    line.Set("schema", JsonValue::String(kRunLogSchema));
    line.Set("kind", JsonValue::String(kind));
    line.Set("t_ms", JsonValue::Number(1));
    line.Set("pid", JsonValue::Number(2));
    return line;
  };

  // Wrong schema string.
  JsonValue wrong_schema = make_envelope("metric");
  wrong_schema.Set("schema", JsonValue::String("vdp.runlog/v2"));
  EXPECT_FALSE(ValidateRunLogLine(wrong_schema, &error));
  EXPECT_NE(error.find("schema"), std::string::npos);

  // Unknown kind.
  EXPECT_FALSE(ValidateRunLogLine(make_envelope("telemetry"), &error));
  EXPECT_NE(error.find("unknown kind"), std::string::npos);

  // metric without a value.
  JsonValue metric = make_envelope("metric");
  metric.Set("name", JsonValue::String("x"));
  metric.Set("type", JsonValue::String("counter"));
  EXPECT_FALSE(ValidateRunLogLine(metric, &error));
  metric.Set("value", JsonValue::Number(1));
  EXPECT_TRUE(ValidateRunLogLine(metric, &error)) << error;

  // gauge requires max.
  metric.Set("type", JsonValue::String("gauge"));
  EXPECT_FALSE(ValidateRunLogLine(metric, &error));

  // histogram counts/bounds mismatch.
  JsonValue hist = make_envelope("histogram");
  hist.Set("name", JsonValue::String("h"));
  hist.Set("count", JsonValue::Number(1));
  hist.Set("sum", JsonValue::Number(1));
  JsonValue bounds = JsonValue::Array();
  bounds.Append(JsonValue::Number(10));
  JsonValue counts = JsonValue::Array();
  counts.Append(JsonValue::Number(1));  // must be bounds+1 = 2
  hist.Set("bounds", std::move(bounds));
  hist.Set("counts", std::move(counts));
  EXPECT_FALSE(ValidateRunLogLine(hist, &error));
  EXPECT_NE(error.find("bounds+1"), std::string::npos);

  // span with an empty span_id.
  JsonValue span = make_envelope("span");
  span.Set("name", JsonValue::String("verify"));
  span.Set("trace_id", JsonValue::String("ab"));
  span.Set("span_id", JsonValue::String(""));
  span.Set("parent_span_id", JsonValue::String("0"));
  span.Set("proc", JsonValue::String("driver"));
  span.Set("start_us", JsonValue::Number(0));
  span.Set("duration_us", JsonValue::Number(1));
  EXPECT_FALSE(ValidateRunLogLine(span, &error));
}

TEST_F(RunLogSchemaTest, FromEnvAppendsToTheNamedFile) {
  setenv("VDP_METRICS_OUT", path_.c_str(), 1);
  {
    auto first = RunLogWriter::FromEnv();
    ASSERT_NE(first, nullptr);
    RunHeader header;
    header.tool = "first_session";
    first->Header(header);
  }
  {
    auto second = RunLogWriter::FromEnv();  // append, not truncate
    ASSERT_NE(second, nullptr);
    RunHeader header;
    header.tool = "second_session";
    second->Header(header);
  }
  unsetenv("VDP_METRICS_OUT");
  auto lines = ReadLines();
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0].StringOr("tool", ""), "first_session");
  EXPECT_EQ(lines[1].StringOr("tool", ""), "second_session");

  unsetenv("VDP_METRICS_OUT");
  EXPECT_EQ(RunLogWriter::FromEnv(), nullptr);
}

TEST_F(RunLogSchemaTest, IdToHexGoldenValues) {
  EXPECT_EQ(IdToHex(0), "0");
  EXPECT_EQ(IdToHex(1), "1");
  EXPECT_EQ(IdToHex(0xdeadbeef), "deadbeef");
  EXPECT_EQ(IdToHex(0xffffffffffffffffULL), "ffffffffffffffff");
  EXPECT_EQ(IdToHex(0x0102), "102");  // no leading zeros
}

}  // namespace
}  // namespace obs
}  // namespace vdp

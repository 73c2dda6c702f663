#include "src/obs/runlog.h"

#include <unistd.h>

#include <cctype>
#include <chrono>
#include <cstdlib>
#include <thread>

namespace vdp {
namespace obs {

namespace {

// Runs `git rev-parse --short HEAD` without inheriting our stdout noise;
// empty on any failure (not a git checkout, no git binary).
std::string GitShaFromCommand() {
  FILE* pipe = popen("git rev-parse --short HEAD 2>/dev/null", "r");
  if (pipe == nullptr) {
    return "";
  }
  std::string out;
  char buf[64];
  while (fgets(buf, sizeof(buf), pipe) != nullptr) {
    out += buf;
  }
  pclose(pipe);
  while (!out.empty() && (out.back() == '\n' || out.back() == '\r')) {
    out.pop_back();
  }
  for (char c : out) {
    if (!std::isxdigit(static_cast<unsigned char>(c))) {
      return "";
    }
  }
  return out;
}

bool IsNumber(const JsonValue* v) { return v != nullptr && v->is_number(); }
bool IsString(const JsonValue* v) { return v != nullptr && v->is_string(); }

bool Missing(const char* kind, const char* field, std::string* error) {
  *error = std::string(kind) + " line: missing or mistyped \"" + field + "\"";
  return false;
}

bool IsNumberArray(const JsonValue* v) {
  if (v == nullptr || !v->is_array()) {
    return false;
  }
  for (const JsonValue& item : v->items()) {
    if (!item.is_number()) {
      return false;
    }
  }
  return true;
}

}  // namespace

uint64_t UnixMillis() {
  // Wall-clock run timestamp for the log header, never a duration
  // measurement (those all go through Stopwatch/steady_clock).
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::system_clock::now().time_since_epoch())  // vdp-lint: allow(clock)
          .count());
}

const std::string& GitSha() {
  static const std::string sha = [] {
    if (const char* env = std::getenv("VDP_GIT_SHA"); env != nullptr && env[0] != '\0') {
      return std::string(env);
    }
    if (const char* env = std::getenv("GITHUB_SHA"); env != nullptr && env[0] != '\0') {
      return std::string(env).substr(0, 12);
    }
    std::string from_git = GitShaFromCommand();
    return from_git.empty() ? std::string("unknown") : from_git;
  }();
  return sha;
}

std::string IdToHex(uint64_t id) {
  static const char* digits = "0123456789abcdef";
  std::string out;
  bool started = false;
  for (int shift = 60; shift >= 0; shift -= 4) {
    const unsigned nibble = (id >> shift) & 0xF;
    if (nibble != 0 || started || shift == 0) {
      out.push_back(digits[nibble]);
      started = true;
    }
  }
  return out;
}

JsonValue SpanToJson(const SpanRecord& span) {
  JsonValue obj = JsonValue::Object();
  obj.Set("name", JsonValue::String(span.name));
  obj.Set("trace_id", JsonValue::String(IdToHex(span.trace_id)));
  obj.Set("span_id", JsonValue::String(IdToHex(span.span_id)));
  obj.Set("parent_span_id", JsonValue::String(IdToHex(span.parent_span_id)));
  obj.Set("start_us", JsonValue::Number(static_cast<double>(span.start_us)));
  obj.Set("duration_us", JsonValue::Number(static_cast<double>(span.duration_us)));
  obj.Set("proc", JsonValue::String(span.proc));
  if (!span.detail.empty()) {
    obj.Set("detail", JsonValue::String(span.detail));
  }
  return obj;
}

uint64_t CurrentRssHwmKb() {
  FILE* status = std::fopen("/proc/self/status", "r");
  if (status == nullptr) {
    return 0;
  }
  unsigned long long kb = 0;
  char line[256];
  while (std::fgets(line, sizeof(line), status) != nullptr) {
    if (std::sscanf(line, "VmHWM: %llu kB", &kb) == 1) {
      break;
    }
  }
  std::fclose(status);
  return static_cast<uint64_t>(kb);
}

std::unique_ptr<RunLogWriter> RunLogWriter::Open(const std::string& path, bool append) {
  FILE* file = std::fopen(path.c_str(), append ? "a" : "w");
  if (file == nullptr) {
    return nullptr;
  }
  return std::unique_ptr<RunLogWriter>(new RunLogWriter(file, path));
}

std::unique_ptr<RunLogWriter> RunLogWriter::FromEnv() {
  const char* path = std::getenv("VDP_METRICS_OUT");
  if (path == nullptr || path[0] == '\0') {
    return nullptr;
  }
  return Open(path, /*append=*/true);
}

RunLogWriter::~RunLogWriter() {
  if (file_ != nullptr) {
    std::fclose(file_);
  }
}

void RunLogWriter::Emit(JsonValue line) {
  const std::string text = WriteJson(line);
  std::lock_guard<std::mutex> lock(mutex_);
  std::fwrite(text.data(), 1, text.size(), file_);
  std::fputc('\n', file_);
  std::fflush(file_);
}

void RunLogWriter::Line(const std::string& kind, JsonValue object) {
  JsonValue line = JsonValue::Object();
  line.Set("schema", JsonValue::String(kRunLogSchema));
  line.Set("kind", JsonValue::String(kind));
  line.Set("t_ms", JsonValue::Number(static_cast<double>(UnixMillis())));
  line.Set("pid", JsonValue::Number(static_cast<double>(getpid())));
  for (auto& [key, value] : object.members()) {
    line.Set(key, std::move(value));
  }
  Emit(std::move(line));
}

void RunLogWriter::Header(const RunHeader& header) {
  JsonValue obj = JsonValue::Object();
  obj.Set("tool", JsonValue::String(header.tool));
  obj.Set("git_sha", JsonValue::String(GitSha()));
  obj.Set("hardware_concurrency",
          JsonValue::Number(static_cast<double>(std::thread::hardware_concurrency())));
  obj.Set("pool_threads", JsonValue::Number(static_cast<double>(header.pool_threads)));
  obj.Set("remote_endpoints",
          JsonValue::Number(static_cast<double>(header.remote_endpoints)));
  obj.Set("n_uploads", JsonValue::Number(static_cast<double>(header.n_uploads)));
  obj.Set("num_shards", JsonValue::Number(static_cast<double>(header.num_shards)));
  if (!header.group.empty()) {
    obj.Set("group", JsonValue::String(header.group));
  }
  if (!header.notes.empty()) {
    obj.Set("notes", JsonValue::String(header.notes));
  }
  Line("header", std::move(obj));
}

void RunLogWriter::Stages(const std::string& scenario, const std::string& backend,
                          const std::vector<std::pair<std::string, double>>& stages_ms,
                          double total_ms,
                          const std::vector<std::pair<std::string, double>>& extra) {
  JsonValue stages = JsonValue::Object();
  for (const auto& [name, ms] : stages_ms) {
    stages.Set(name, JsonValue::Number(ms));
  }
  JsonValue obj = JsonValue::Object();
  obj.Set("scenario", JsonValue::String(scenario));
  obj.Set("backend", JsonValue::String(backend));
  obj.Set("stages", std::move(stages));
  obj.Set("total_ms", JsonValue::Number(total_ms));
  for (const auto& [name, value] : extra) {
    obj.Set(name, JsonValue::Number(value));
  }
  Line("stages", std::move(obj));
}

void RunLogWriter::Metrics(const MetricsSnapshot& snapshot) {
  for (const CounterSnapshot& c : snapshot.counters) {
    JsonValue obj = JsonValue::Object();
    obj.Set("name", JsonValue::String(c.name));
    obj.Set("type", JsonValue::String("counter"));
    obj.Set("value", JsonValue::Number(static_cast<double>(c.value)));
    Line("metric", std::move(obj));
  }
  for (const GaugeSnapshot& g : snapshot.gauges) {
    JsonValue obj = JsonValue::Object();
    obj.Set("name", JsonValue::String(g.name));
    obj.Set("type", JsonValue::String("gauge"));
    obj.Set("value", JsonValue::Number(static_cast<double>(g.value)));
    obj.Set("max", JsonValue::Number(static_cast<double>(g.max)));
    Line("metric", std::move(obj));
  }
  for (const HistogramSnapshot& h : snapshot.histograms) {
    JsonValue bounds = JsonValue::Array();
    for (double b : h.bounds) {
      bounds.Append(JsonValue::Number(b));
    }
    JsonValue counts = JsonValue::Array();
    for (uint64_t c : h.counts) {
      counts.Append(JsonValue::Number(static_cast<double>(c)));
    }
    JsonValue obj = JsonValue::Object();
    obj.Set("name", JsonValue::String(h.name));
    obj.Set("count", JsonValue::Number(static_cast<double>(h.count)));
    obj.Set("sum", JsonValue::Number(h.sum));
    obj.Set("p50", JsonValue::Number(h.P50()));
    obj.Set("p90", JsonValue::Number(h.P90()));
    obj.Set("p99", JsonValue::Number(h.P99()));
    obj.Set("bounds", std::move(bounds));
    obj.Set("counts", std::move(counts));
    Line("histogram", std::move(obj));
  }
}

void RunLogWriter::Spans(const std::vector<SpanRecord>& spans) {
  for (const SpanRecord& span : spans) {
    Line("span", SpanToJson(span));
  }
}

void RunLogWriter::Footer() {
  const uint64_t kb = CurrentRssHwmKb();
  // Through the gauge so in-process consumers (tests, later snapshots) see
  // the same value the log records; VmHWM is monotone, so Set keeps max
  // consistent with value.
  GlobalGauge(kMemRssHwmKb)->Set(static_cast<int64_t>(kb));
  JsonValue obj = JsonValue::Object();
  obj.Set("name", JsonValue::String(kMemRssHwmKb));
  obj.Set("type", JsonValue::String("gauge"));
  obj.Set("value", JsonValue::Number(static_cast<double>(kb)));
  obj.Set("max", JsonValue::Number(static_cast<double>(kb)));
  Line("metric", std::move(obj));
}

bool ValidateRunLogLine(const JsonValue& line, std::string* error) {
  std::string scratch;
  if (error == nullptr) {
    error = &scratch;
  }
  if (!line.is_object()) {
    *error = "line is not a JSON object";
    return false;
  }
  const JsonValue* schema = line.Find("schema");
  if (!IsString(schema) || schema->as_string() != kRunLogSchema) {
    *error = "missing or unknown \"schema\" (want vdp.runlog/v1)";
    return false;
  }
  const JsonValue* kind = line.Find("kind");
  if (!IsString(kind)) {
    return Missing("envelope", "kind", error);
  }
  if (!IsNumber(line.Find("t_ms"))) {
    return Missing("envelope", "t_ms", error);
  }
  if (!IsNumber(line.Find("pid"))) {
    return Missing("envelope", "pid", error);
  }

  const std::string& k = kind->as_string();
  if (k == "header") {
    if (!IsString(line.Find("tool"))) {
      return Missing("header", "tool", error);
    }
    if (!IsString(line.Find("git_sha"))) {
      return Missing("header", "git_sha", error);
    }
    for (const char* field : {"hardware_concurrency", "pool_threads", "remote_endpoints",
                              "n_uploads", "num_shards"}) {
      if (!IsNumber(line.Find(field))) {
        return Missing("header", field, error);
      }
    }
    return true;
  }
  if (k == "stages") {
    if (!IsString(line.Find("scenario"))) {
      return Missing("stages", "scenario", error);
    }
    if (!IsString(line.Find("backend"))) {
      return Missing("stages", "backend", error);
    }
    if (!IsNumber(line.Find("total_ms"))) {
      return Missing("stages", "total_ms", error);
    }
    const JsonValue* stages = line.Find("stages");
    if (stages == nullptr || !stages->is_object()) {
      return Missing("stages", "stages", error);
    }
    for (const auto& [name, value] : stages->members()) {
      if (!value.is_number()) {
        *error = "stages line: stage \"" + name + "\" is not a number";
        return false;
      }
    }
    return true;
  }
  if (k == "metric") {
    if (!IsString(line.Find("name"))) {
      return Missing("metric", "name", error);
    }
    const JsonValue* type = line.Find("type");
    if (!IsString(type) ||
        (type->as_string() != "counter" && type->as_string() != "gauge")) {
      return Missing("metric", "type", error);
    }
    if (!IsNumber(line.Find("value"))) {
      return Missing("metric", "value", error);
    }
    if (type->as_string() == "gauge" && !IsNumber(line.Find("max"))) {
      return Missing("metric", "max", error);
    }
    return true;
  }
  if (k == "histogram") {
    if (!IsString(line.Find("name"))) {
      return Missing("histogram", "name", error);
    }
    if (!IsNumber(line.Find("count")) || !IsNumber(line.Find("sum"))) {
      return Missing("histogram", "count/sum", error);
    }
    const JsonValue* bounds = line.Find("bounds");
    const JsonValue* counts = line.Find("counts");
    if (!IsNumberArray(bounds)) {
      return Missing("histogram", "bounds", error);
    }
    if (!IsNumberArray(counts)) {
      return Missing("histogram", "counts", error);
    }
    if (counts->items().size() != bounds->items().size() + 1) {
      *error = "histogram line: counts must have exactly bounds+1 buckets";
      return false;
    }
    // Percentiles (PR 10) are optional -- pre-upgrade logs stay valid --
    // but when present they must be numbers, and they come as a set.
    const bool any_percentile = line.Find("p50") != nullptr ||
                                line.Find("p90") != nullptr ||
                                line.Find("p99") != nullptr;
    if (any_percentile) {
      for (const char* field : {"p50", "p90", "p99"}) {
        if (!IsNumber(line.Find(field))) {
          return Missing("histogram", field, error);
        }
      }
    }
    return true;
  }
  if (k == "span") {
    if (!IsString(line.Find("name"))) {
      return Missing("span", "name", error);
    }
    for (const char* field : {"trace_id", "span_id", "parent_span_id", "proc"}) {
      if (!IsString(line.Find(field))) {
        return Missing("span", field, error);
      }
    }
    if (line.Find("trace_id")->as_string().empty() ||
        line.Find("span_id")->as_string().empty()) {
      *error = "span line: empty trace_id/span_id";
      return false;
    }
    for (const char* field : {"start_us", "duration_us"}) {
      if (!IsNumber(line.Find(field))) {
        return Missing("span", field, error);
      }
    }
    return true;
  }
  *error = "unknown kind \"" + k + "\"";
  return false;
}

}  // namespace obs
}  // namespace vdp

// The machine-readable run-log: one versioned JSONL schema shared by every
// verification backend, every bench_* binary, and the verify_server
// daemon, replacing the bespoke per-bench JSON
// writers. CI uploads these files as artifacts and trends them across PRs
// with tools/metrics_report.
//
// Format: one JSON object per line ("JSONL"). Every line carries
//
//   "schema": "vdp.runlog/v1"   the schema version this file promises
//   "kind":   one of header | stages | metric | histogram | span
//   "t_ms":   unix wall-clock milliseconds when the line was written
//   "pid":    the writing process (fleet runs interleave several writers)
//
// and per-kind payloads (authoritative list in ValidateRunLogLine, prose in
// README "Observability"):
//
//   header     tool, git_sha, hardware_concurrency, and the honest
//              concurrency story: pool_threads, verify_workers,
//              remote_endpoints -- so a trend job can never again compare a
//              1-core run against an 8-core run without noticing.
//   stages     one verification run: scenario, backend, the named stage
//              timings (ingest/verify/combine), total_ms, and counts.
//   metric     one counter or gauge by canonical name (src/obs/metrics.h).
//   histogram  one log-bucket histogram: bounds, per-bucket counts, sum,
//              and interpolated p50/p90/p99 (optional for pre-PR-10 logs).
//   span       one finished trace span (src/obs/trace.h); 64-bit ids travel
//              as hex strings because JSON numbers are doubles.
//
// The writer is thread-safe and line-buffered (each line is one write and a
// flush), so daemon threads and crash-adjacent exits still leave a parseable
// prefix.
#ifndef SRC_OBS_RUNLOG_H_
#define SRC_OBS_RUNLOG_H_

#include <cstdint>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "src/obs/json.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace vdp {
namespace obs {

inline constexpr const char* kRunLogSchema = "vdp.runlog/v1";

// Unix wall-clock milliseconds (timestamps only -- all durations in this
// codebase come from the steady-clock Stopwatch).
uint64_t UnixMillis();

// The git revision to stamp into run-log headers: $VDP_GIT_SHA, else
// $GITHUB_SHA, else `git rev-parse --short HEAD`, else "unknown". Cached
// after the first call.
const std::string& GitSha();

// 64-bit id as lowercase hex (no 0x), the run-log's span id encoding.
std::string IdToHex(uint64_t id);

// This process's peak resident set size in KiB (VmHWM from
// /proc/self/status); 0 where the proc filesystem is unavailable. Peak, not
// current: the kernel's high-water mark is what bounded-memory claims are
// judged against.
uint64_t CurrentRssHwmKb();

// The header line's payload. Fields valued 0 / "" are still emitted --
// "absent because zero" and "absent because unmeasured" must stay
// distinguishable in a trend job.
struct RunHeader {
  std::string tool;   // "bench_backend_matrix", "verify_server", ...
  std::string group;  // group backend name, when one applies
  uint64_t n_uploads = 0;
  uint64_t num_shards = 0;
  // The honest concurrency story (ISSUE 6): what parallelism this run
  // actually had available and used.
  uint64_t pool_threads = 0;      // in-process ThreadPool size (0 = none)
  uint64_t verify_workers = 0;    // spawned local server fleet size
  uint64_t remote_endpoints = 0;  // socket fleet size
  std::string notes;              // free-form ("loopback", "--fault crash:0", ...)
};

class RunLogWriter {
 public:
  // Opens `path` for writing (append = true for daemons that flush the same
  // file across sessions). nullptr on failure.
  static std::unique_ptr<RunLogWriter> Open(const std::string& path, bool append = false);

  // Opens the path named by --metrics-out's environment twin
  // $VDP_METRICS_OUT (append mode); nullptr when unset. Daemons and tests
  // use this; benches take an explicit path.
  static std::unique_ptr<RunLogWriter> FromEnv();

  ~RunLogWriter();
  RunLogWriter(const RunLogWriter&) = delete;
  RunLogWriter& operator=(const RunLogWriter&) = delete;

  void Header(const RunHeader& header);

  // One verification run: named stage timings plus free numeric extras
  // (accepted counts, fleet sizes, failure tallies...).
  void Stages(const std::string& scenario, const std::string& backend,
              const std::vector<std::pair<std::string, double>>& stages_ms,
              double total_ms,
              const std::vector<std::pair<std::string, double>>& extra = {});

  // Every counter, gauge, and histogram in the snapshot, one line each.
  void Metrics(const MetricsSnapshot& snapshot);

  // One line per finished span.
  void Spans(const std::vector<SpanRecord>& spans);

  // End-of-run footer: stamps the process's peak RSS (CurrentRssHwmKb) into
  // the global mem.rss_hwm_kb gauge and emits it as one gauge metric line,
  // so memory ceilings (the stream-1m CI job's) are checkable from the log
  // alone. Call once, after the workload, before the writer closes.
  void Footer();

  // Escape hatch for tool-specific lines; stamps schema/kind/t_ms/pid. The
  // object must satisfy ValidateRunLogLine for the given kind.
  void Line(const std::string& kind, JsonValue object);

  const std::string& path() const { return path_; }

 private:
  RunLogWriter(FILE* file, std::string path) : file_(file), path_(std::move(path)) {}

  void Emit(JsonValue line);

  std::mutex mutex_;
  FILE* file_ = nullptr;
  std::string path_;
};

// Validates one parsed run-log line against schema v1: required envelope
// fields, a known kind, and that kind's required payload fields with the
// right JSON types. False with a diagnostic in *error. This is the
// authoritative schema definition -- the golden-schema test and
// metrics_report --compare both call it.
bool ValidateRunLogLine(const JsonValue& line, std::string* error);

}  // namespace obs
}  // namespace vdp

#endif  // SRC_OBS_RUNLOG_H_

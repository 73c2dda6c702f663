// metrics_report: render and trend vdp.runlog/v1 files (src/obs/runlog.h).
//
//   metrics_report <run.jsonl> [more.jsonl ...]
//       Validates every line against the schema and renders the run:
//       headers, per-run stage tables, counters/gauges/histograms, and the
//       stitched span tree (driver + worker/server spans share one trace id,
//       so a fleet run prints as a single tree).
//
//   metrics_report --compare <baseline.jsonl> <run.jsonl> [--threshold <pct>]
//       The CI trend job. The baseline is another run-log, such as the
//       committed BENCH_*.jsonl files; rows pair up by scenario/backend.
//       Exit 2 on any schema violation or unreadable input, in either file
//       -- a run-log that stops validating is a build regression, not a
//       perf question.
//       Rows slower than baseline by more than the threshold (default 25%)
//       print a WARN line; --strict turns those into exit 1.
//
// Zero dependencies beyond the tree's own JSON (src/obs/json.h), like
// everything else in tools/.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "src/obs/json.h"
#include "src/obs/runlog.h"

namespace vdp {
namespace obs {
namespace {

struct ParsedLine {
  JsonValue value;
  std::string file;
  size_t lineno = 0;
};

// Reads one JSONL file, validating every line. Returns false (with
// diagnostics on stderr) on unreadable input or any schema violation.
bool LoadRunLog(const std::string& path, std::vector<ParsedLine>* out) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "error: cannot open %s\n", path.c_str());
    return false;
  }
  std::string line;
  size_t lineno = 0;
  bool ok = true;
  while (std::getline(in, line)) {
    ++lineno;
    // Tolerate blank lines (daemon appends across sessions can leave them).
    bool blank = true;
    for (char c : line) {
      if (c != ' ' && c != '\t' && c != '\r') {
        blank = false;
        break;
      }
    }
    if (blank) {
      continue;
    }
    auto parsed = ParseJson(line);
    if (!parsed.has_value()) {
      std::fprintf(stderr, "%s:%zu: schema violation: not valid JSON\n", path.c_str(),
                   lineno);
      ok = false;
      continue;
    }
    std::string error;
    if (!ValidateRunLogLine(*parsed, &error)) {
      std::fprintf(stderr, "%s:%zu: schema violation: %s\n", path.c_str(), lineno,
                   error.c_str());
      ok = false;
      continue;
    }
    out->push_back(ParsedLine{std::move(*parsed), path, lineno});
  }
  return ok;
}

std::string Kind(const ParsedLine& line) { return line.value.StringOr("kind", ""); }

// --- rendering ----------------------------------------------------------

void RenderHeaders(const std::vector<ParsedLine>& lines) {
  for (const ParsedLine& line : lines) {
    if (Kind(line) != "header") {
      continue;
    }
    const JsonValue& v = line.value;
    std::printf("run: %s  git=%s  pid=%d  hw=%d  pool=%d endpoints=%d",
                v.StringOr("tool", "?").c_str(), v.StringOr("git_sha", "?").c_str(),
                static_cast<int>(v.NumberOr("pid", 0)),
                static_cast<int>(v.NumberOr("hardware_concurrency", 0)),
                static_cast<int>(v.NumberOr("pool_threads", 0)),
                static_cast<int>(v.NumberOr("remote_endpoints", 0)));
    if (v.NumberOr("n_uploads", 0) > 0) {
      std::printf("  n=%d", static_cast<int>(v.NumberOr("n_uploads", 0)));
    }
    const std::string notes = v.StringOr("notes", "");
    if (!notes.empty()) {
      std::printf("  (%s)", notes.c_str());
    }
    std::printf("\n");
  }
}

void RenderStages(const std::vector<ParsedLine>& lines) {
  bool any = false;
  for (const ParsedLine& line : lines) {
    if (Kind(line) != "stages") {
      continue;
    }
    if (!any) {
      std::printf("\n%-24s %-14s %10s   stages\n", "scenario", "backend", "total_ms");
      any = true;
    }
    const JsonValue& v = line.value;
    std::string stage_text;
    if (const JsonValue* stages = v.Find("stages"); stages != nullptr) {
      for (const auto& [name, ms] : stages->members()) {
        if (!stage_text.empty()) {
          stage_text += "  ";
        }
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%s=%.3f", name.c_str(), ms.as_number());
        stage_text += buf;
      }
    }
    std::printf("%-24s %-14s %10.3f   %s\n", v.StringOr("scenario", "?").c_str(),
                v.StringOr("backend", "?").c_str(), v.NumberOr("total_ms", 0),
                stage_text.c_str());
  }
}

void RenderMetrics(const std::vector<ParsedLine>& lines) {
  // Last write wins per (pid, name): daemons re-snapshot cumulative counters
  // on every session, so the final line is the total.
  std::map<std::pair<int, std::string>, const ParsedLine*> metrics;
  for (const ParsedLine& line : lines) {
    if (Kind(line) == "metric") {
      metrics[{static_cast<int>(line.value.NumberOr("pid", 0)),
               line.value.StringOr("name", "")}] = &line;
    }
  }
  if (!metrics.empty()) {
    std::printf("\nmetrics (final value per process):\n");
  }
  for (const auto& [key, line] : metrics) {
    const JsonValue& v = line->value;
    std::printf("  pid=%-8d %-24s %14.0f", key.first, key.second.c_str(),
                v.NumberOr("value", 0));
    if (v.StringOr("type", "") == "gauge") {
      std::printf("  (max %.0f)", v.NumberOr("max", 0));
    }
    std::printf("\n");
  }

  std::map<std::pair<int, std::string>, const ParsedLine*> histograms;
  for (const ParsedLine& line : lines) {
    if (Kind(line) == "histogram") {
      histograms[{static_cast<int>(line.value.NumberOr("pid", 0)),
                  line.value.StringOr("name", "")}] = &line;
    }
  }
  if (!histograms.empty()) {
    std::printf("\nhistograms:\n");
  }
  for (const auto& [key, line] : histograms) {
    const JsonValue& v = line->value;
    const double count = v.NumberOr("count", 0);
    const double sum = v.NumberOr("sum", 0);
    std::printf("  pid=%-8d %-24s count=%-8.0f mean=%.2f", key.first,
                key.second.c_str(), count, count > 0 ? sum / count : 0.0);
    if (v.Find("p50") != nullptr) {
      std::printf("  p50=%.2f p90=%.2f p99=%.2f", v.NumberOr("p50", 0),
                  v.NumberOr("p90", 0), v.NumberOr("p99", 0));
    }
    std::printf("\n");
  }
}

// The bounded-memory headline: every process's mem.rss_hwm_kb footer gauge
// (src/obs/runlog.h Footer), rendered in MiB so a stream-1m log answers
// "did memory stay bounded" at a glance.
void RenderPeakRss(const std::vector<ParsedLine>& lines) {
  std::map<int, double> peak_kb_by_pid;  // last write wins per process
  for (const ParsedLine& line : lines) {
    if (Kind(line) == "metric" && line.value.StringOr("name", "") == kMemRssHwmKb) {
      peak_kb_by_pid[static_cast<int>(line.value.NumberOr("pid", 0))] =
          line.value.NumberOr("max", line.value.NumberOr("value", 0));
    }
  }
  if (peak_kb_by_pid.empty()) {
    return;
  }
  std::printf("\npeak rss (VmHWM):\n");
  for (const auto& [pid, kb] : peak_kb_by_pid) {
    std::printf("  pid=%-8d %10.0f KiB  (%.1f MiB)\n", pid, kb, kb / 1024.0);
  }
}

struct SpanRow {
  std::string name;
  std::string span_id;
  std::string parent;
  std::string proc;
  std::string detail;
  double start_us = 0;
  double duration_us = 0;
};

void PrintSpanTree(const std::vector<SpanRow>& spans,
                   const std::multimap<std::string, size_t>& children,
                   size_t index, int depth) {
  const SpanRow& span = spans[index];
  std::printf("  %*s%-*s %10.0fus @%-10.0f %s%s%s\n", 2 * depth, "",
              std::max(2, 28 - 2 * depth), span.name.c_str(), span.duration_us,
              span.start_us, span.proc.c_str(), span.detail.empty() ? "" : "  ",
              span.detail.c_str());
  // Children sorted by start time for a chronological tree.
  std::vector<size_t> kids;
  auto [lo, hi] = children.equal_range(span.span_id);
  for (auto it = lo; it != hi; ++it) {
    kids.push_back(it->second);
  }
  std::sort(kids.begin(), kids.end(), [&](size_t a, size_t b) {
    return spans[a].start_us < spans[b].start_us;
  });
  for (size_t kid : kids) {
    PrintSpanTree(spans, children, kid, depth + 1);
  }
}

void RenderSpans(const std::vector<ParsedLine>& lines) {
  std::vector<SpanRow> spans;
  for (const ParsedLine& line : lines) {
    if (Kind(line) != "span") {
      continue;
    }
    const JsonValue& v = line.value;
    spans.push_back(SpanRow{v.StringOr("name", "?"), v.StringOr("span_id", ""),
                            v.StringOr("parent_span_id", ""), v.StringOr("proc", ""),
                            v.StringOr("detail", ""), v.NumberOr("start_us", 0),
                            v.NumberOr("duration_us", 0)});
  }
  if (spans.empty()) {
    return;
  }
  std::printf("\nspan tree (%zu spans):\n", spans.size());
  std::multimap<std::string, size_t> children;
  std::map<std::string, size_t> by_id;
  for (size_t i = 0; i < spans.size(); ++i) {
    by_id[spans[i].span_id] = i;
  }
  std::vector<size_t> roots;
  for (size_t i = 0; i < spans.size(); ++i) {
    // A root is a span whose parent is absent from the file (the backend's
    // trace_parent, or "0" for an unparented collector root).
    if (spans[i].parent.empty() || spans[i].parent == "0" ||
        by_id.find(spans[i].parent) == by_id.end()) {
      roots.push_back(i);
    } else {
      children.emplace(spans[i].parent, i);
    }
  }
  std::sort(roots.begin(), roots.end(), [&](size_t a, size_t b) {
    return spans[a].start_us < spans[b].start_us;
  });
  for (size_t root : roots) {
    PrintSpanTree(spans, children, root, 0);
  }
}

int Render(const std::vector<std::string>& paths) {
  std::vector<ParsedLine> lines;
  bool ok = true;
  for (const std::string& path : paths) {
    ok = LoadRunLog(path, &lines) && ok;
  }
  RenderHeaders(lines);
  RenderStages(lines);
  RenderMetrics(lines);
  RenderPeakRss(lines);
  RenderSpans(lines);
  return ok ? 0 : 2;
}

// --- compare ------------------------------------------------------------

// A comparable row: scenario/backend key -> wall milliseconds.
using TimingTable = std::map<std::string, double>;

// Loads the stages lines of a run-log, which must validate.
bool LoadTimings(const std::string& path, TimingTable* out) {
  std::vector<ParsedLine> lines;
  if (!LoadRunLog(path, &lines)) {
    return false;
  }
  for (const ParsedLine& line : lines) {
    if (Kind(line) == "stages") {
      const JsonValue& v = line.value;
      (*out)[v.StringOr("scenario", "?") + "/" + v.StringOr("backend", "?")] =
          v.NumberOr("total_ms", 0);
    }
  }
  return true;
}

int Compare(const std::string& baseline_path, const std::string& current_path,
            double threshold_pct, bool strict) {
  TimingTable baseline;
  TimingTable current;
  if (!LoadTimings(baseline_path, &baseline) || !LoadTimings(current_path, &current)) {
    return 2;  // unreadable or a schema violation
  }
  if (current.empty()) {
    std::fprintf(stderr, "error: %s has no stages rows to compare\n",
                 current_path.c_str());
    return 2;
  }

  int warnings = 0;
  int compared = 0;
  std::printf("%-32s %12s %12s %9s\n", "scenario/backend", "baseline_ms", "current_ms",
              "delta");
  for (const auto& [key, current_ms] : current) {
    auto it = baseline.find(key);
    if (it == baseline.end()) {
      std::printf("%-32s %12s %12.3f %9s\n", key.c_str(), "-", current_ms, "new");
      continue;
    }
    ++compared;
    const double baseline_ms = it->second;
    const double delta_pct =
        baseline_ms > 0 ? 100.0 * (current_ms - baseline_ms) / baseline_ms : 0;
    const bool regressed = delta_pct > threshold_pct;
    std::printf("%-32s %12.3f %12.3f %+8.1f%%%s\n", key.c_str(), baseline_ms, current_ms,
                delta_pct, regressed ? "  WARN" : "");
    if (regressed) {
      ++warnings;
    }
  }
  for (const auto& [key, baseline_ms] : baseline) {
    if (current.find(key) == current.end()) {
      std::printf("%-32s %12.3f %12s %9s\n", key.c_str(), baseline_ms, "-", "gone");
    }
  }
  std::printf("compared %d rows, %d regression%s over %.0f%%\n", compared, warnings,
              warnings == 1 ? "" : "s", threshold_pct);
  if (warnings > 0 && strict) {
    return 1;
  }
  return 0;
}

int Usage() {
  std::fprintf(stderr,
               "usage: metrics_report <run.jsonl> [more.jsonl ...]\n"
               "       metrics_report --compare <baseline.jsonl> <run.jsonl>\n"
               "                      [--threshold <pct>] [--strict]\n");
  return 2;
}

int ReportMain(int argc, char** argv) {
  bool compare = false;
  bool strict = false;
  double threshold = 25.0;
  std::vector<std::string> paths;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--compare") {
      compare = true;
    } else if (arg == "--strict") {
      strict = true;
    } else if (arg == "--threshold" && i + 1 < argc) {
      threshold = std::strtod(argv[++i], nullptr);
    } else if (!arg.empty() && arg[0] == '-') {
      return Usage();
    } else {
      paths.push_back(arg);
    }
  }
  if (compare) {
    if (paths.size() != 2) {
      return Usage();
    }
    return Compare(paths[0], paths[1], threshold, strict);
  }
  if (paths.empty()) {
    return Usage();
  }
  return Render(paths);
}

}  // namespace
}  // namespace obs
}  // namespace vdp

int main(int argc, char** argv) { return vdp::obs::ReportMain(argc, argv); }

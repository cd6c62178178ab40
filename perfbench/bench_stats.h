// Arithmetic of the serving benchmark, kept apart from the harness so the
// tests can pin it down: percentile choice, failure share, and the span
// recorder with its self-time computation.
#ifndef PERFBENCH_BENCH_STATS_H_
#define PERFBENCH_BENCH_STATS_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/query_metrics.h"
#include "util/metrics.h"

namespace perfbench {

// Percentile `p` (0-100) of an ascending sample, interpolating linearly
// between closest ranks; 0 for an empty sample.
inline double Percentile(const std::vector<double>& sorted, double p) {
  return pythia::Quantile(sorted, p / 100.0);
}

// The highest standard percentile that leaves at least ten samples beyond it
// in a sample of `n`, or 0 when even the median does not (n < 20).
inline double TailPercentile(size_t n) {
  for (double p : {99.9, 99.0, 95.0, 90.0, 75.0, 50.0}) {
    if (static_cast<double>(n) * (100.0 - p) / 100.0 >= 10.0 - 1e-9) return p;
  }
  return 0.0;
}

// Attempted and failed queries of one timed phase. A query fails when its
// status is not OK; that includes a rejection by admission control
// (ResourceExhausted), which never ran.
struct Outcome {
  uint64_t attempted = 0;
  uint64_t failed = 0;

  void Add(const pythia::QueryRunMetrics& m) {
    ++attempted;
    if (!m.status.ok()) ++failed;
  }
  double failed_share() const {
    return attempted == 0 ? 0.0
                          : static_cast<double>(failed) /
                                static_cast<double>(attempted);
  }
};

// One recorded call into a layer. `parent` indexes the enclosing span (-1
// for a root); `query` is the query or session the call served (-1: none).
struct Span {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;
  int64_t query = -1;
};

// In-memory span recorder. Begin opens a span as a child of the innermost
// open one; End closes it. A disabled recorder records nothing.
class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}

  static int64_t NowNs() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  bool enabled() const { return enabled_; }

  int32_t Begin(const char* name, int64_t query) {
    if (!enabled_) return -1;
    Span s;
    s.name = name;
    s.parent = open_.empty() ? -1 : open_.back();
    s.query = query;
    s.start_ns = NowNs();
    spans_.push_back(s);
    open_.push_back(static_cast<int32_t>(spans_.size() - 1));
    return open_.back();
  }

  void End(int32_t id) {
    if (!enabled_ || id < 0) return;
    spans_[id].end_ns = NowNs();
    if (!open_.empty() && open_.back() == id) open_.pop_back();
  }

  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<int32_t> open_;
};

// Opens a span for the lifetime of the scope.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* rec, const char* name, int64_t query)
      : rec_(rec), id_(rec->Begin(name, query)) {}
  ~ScopedSpan() { rec_->End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* rec_;
  int32_t id_;
};

// Self time of every span: its duration minus the part of its interval that
// its direct children cover (overlapping children are counted once;
// grandchildren are already inside their parent's child).
inline std::vector<int64_t> SelfTimes(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0) children[s.parent].emplace_back(s.start_ns, s.end_ns);
  }
  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    int64_t covered = 0;
    int64_t reach = spans[i].start_ns;
    for (auto [start, end] : kids) {
      start = std::max(start, reach);
      end = std::min(end, spans[i].end_ns);
      if (end > start) {
        covered += end - start;
        reach = end;
      }
    }
    self[i] = spans[i].end_ns - spans[i].start_ns - covered;
  }
  return self;
}

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_STATS_H_

#ifndef N2J_PERFBENCH_SPANS_H_
#define N2J_PERFBENCH_SPANS_H_

// In-memory spans around the benchmark's calls into each layer. Spans
// are kept in memory during the run and written out once at exit.

#include <cstdint>
#include <string>
#include <vector>

namespace n2j {
namespace perfbench {

struct Span {
  int64_t op = -1;         // operation id; spans of one op share it
  std::string layer;       // e.g. "oosql.parse"
  int64_t start_ns = 0;    // MonotonicNanos
  int64_t end_ns = 0;
  int parent = -1;         // index of the enclosing span, -1 for a root

  int64_t duration_ns() const { return end_ns - start_ns; }
};

class SpanRecorder {
 public:
  /// Opens a span now; returns its index.
  int Begin(int64_t op, std::string layer, int parent = -1);
  /// Closes span `index` now.
  void End(int index);
  /// Records an already-timed span; returns its index.
  int Add(int64_t op, std::string layer, int64_t start_ns, int64_t end_ns,
          int parent = -1);

  const std::vector<Span>& spans() const { return spans_; }

  /// One JSON object per line: op, layer, start_ns, end_ns, parent,
  /// self_ns. False when the file cannot be written.
  bool WriteJsonl(const std::string& path) const;

 private:
  std::vector<Span> spans_;
};

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover (overlapping children count once;
/// child time outside the parent's interval is not subtracted).
std::vector<int64_t> SelfTimesNs(const std::vector<Span>& spans);

}  // namespace perfbench
}  // namespace n2j

#endif  // N2J_PERFBENCH_SPANS_H_

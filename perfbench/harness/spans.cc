#include "harness/spans.h"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "common/thread_pool.h"

namespace n2j {
namespace perfbench {

int SpanRecorder::Begin(int64_t op, std::string layer, int parent) {
  int64_t now = MonotonicNanos();
  return Add(op, std::move(layer), now, now, parent);
}

void SpanRecorder::End(int index) {
  spans_[static_cast<size_t>(index)].end_ns = MonotonicNanos();
}

int SpanRecorder::Add(int64_t op, std::string layer, int64_t start_ns,
                      int64_t end_ns, int parent) {
  spans_.push_back(Span{op, std::move(layer), start_ns, end_ns, parent});
  return static_cast<int>(spans_.size()) - 1;
}

bool SpanRecorder::WriteJsonl(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::vector<int64_t> self = SelfTimesNs(spans_);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    // Layer names are fixed identifiers; no JSON escaping is needed.
    std::fprintf(f,
                 "{\"id\":%zu,\"op\":%lld,\"layer\":\"%s\",\"start_ns\":%lld,"
                 "\"end_ns\":%lld,\"parent\":%d,\"self_ns\":%lld}\n",
                 i, static_cast<long long>(s.op), s.layer.c_str(),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns), s.parent,
                 static_cast<long long>(self[i]));
  }
  return std::fclose(f) == 0;
}

std::vector<int64_t> SelfTimesNs(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(
      spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      children[static_cast<size_t>(s.parent)].emplace_back(s.start_ns,
                                                            s.end_ns);
    }
  }
  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& p = spans[i];
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    int64_t covered = 0;
    int64_t cursor = p.start_ns;  // end of the coverage counted so far
    for (auto [start, end] : kids) {
      start = std::max(start, cursor);
      end = std::min(end, p.end_ns);
      if (end > start) {
        covered += end - start;
        cursor = end;
      }
    }
    self[i] = p.duration_ns() - covered;
  }
  return self;
}

}  // namespace perfbench
}  // namespace n2j

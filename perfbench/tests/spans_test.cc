#include "harness/spans.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <numeric>
#include <string>

#include "common/rng.h"

namespace n2j {
namespace perfbench {
namespace {

SpanRecorder Tree() {
  // query [0,100] with parse [10,30] and exec [40,90]; exec has a
  // child [50,60].
  SpanRecorder r;
  int root = r.Add(7, "query", 0, 100);
  r.Add(7, "oosql.parse", 10, 30, root);
  int exec = r.Add(7, "exec.eval", 40, 90, root);
  r.Add(7, "inner", 50, 60, exec);
  return r;
}

TEST(SelfTimes, SubtractOnlyDirectChildren) {
  std::vector<int64_t> self = SelfTimesNs(Tree().spans());
  EXPECT_EQ(self, (std::vector<int64_t>{30, 20, 40, 10}));
}

TEST(SelfTimes, SelfTimesOfATreeSumToTheRootSpan) {
  SpanRecorder r = Tree();
  std::vector<int64_t> self = SelfTimesNs(r.spans());
  EXPECT_EQ(std::accumulate(self.begin(), self.end(), int64_t{0}),
            r.spans()[0].duration_ns());
}

TEST(SelfTimes, RandomNestedTreesSumToTheRootSpan) {
  Rng rng(11);
  for (int round = 0; round < 200; ++round) {
    SpanRecorder r;
    // Each span is split into consecutive children with gaps between
    // them, down to depth 3 — the shape the traced path produces.
    struct Open {
      int index;
      int64_t start, end;
      int depth;
    };
    std::vector<Open> todo = {{r.Add(round, "query", 0, 10000), 0, 10000, 0}};
    while (!todo.empty()) {
      Open o = todo.back();
      todo.pop_back();
      if (o.depth == 3) continue;
      int64_t t = o.start;
      while (true) {
        int64_t s = t + rng.Uniform(0, 50);
        int64_t e = s + rng.Uniform(1, 400);
        if (e > o.end) break;
        int child = r.Add(round, "layer", s, e, o.index);
        todo.push_back({child, s, e, o.depth + 1});
        t = e;
      }
    }
    std::vector<int64_t> self = SelfTimesNs(r.spans());
    for (int64_t v : self) ASSERT_GE(v, 0);
    ASSERT_EQ(std::accumulate(self.begin(), self.end(), int64_t{0}), 10000)
        << "round " << round;
  }
}

TEST(SelfTimes, OverlappingChildrenCountOnce) {
  SpanRecorder r;
  int root = r.Add(1, "query", 0, 100);
  r.Add(1, "a", 10, 50, root);
  r.Add(1, "b", 30, 60, root);
  EXPECT_EQ(SelfTimesNs(r.spans())[0], 50);
}

TEST(SelfTimes, ChildTimeOutsideTheParentIsNotSubtracted) {
  SpanRecorder r;
  int root = r.Add(1, "query", 100, 200);
  r.Add(1, "early", 50, 120, root);
  r.Add(1, "late", 190, 260, root);
  EXPECT_EQ(SelfTimesNs(r.spans())[0], 70);
}

TEST(SpanRecorder, BeginEndNestsAndWritesOneLinePerSpan) {
  SpanRecorder r;
  int root = r.Begin(3, "query");
  int child = r.Begin(3, "oosql.parse", root);
  r.End(child);
  r.End(root);
  ASSERT_EQ(r.spans().size(), 2u);
  EXPECT_EQ(r.spans()[1].parent, root);
  EXPECT_LE(r.spans()[0].start_ns, r.spans()[1].start_ns);
  EXPECT_GE(r.spans()[0].end_ns, r.spans()[1].end_ns);

  std::string path = ::testing::TempDir() + "/spans_test.jsonl";
  ASSERT_TRUE(r.WriteJsonl(path));
  std::ifstream in(path);
  std::string line;
  std::vector<std::string> lines;
  while (std::getline(in, line)) lines.push_back(line);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_NE(lines[1].find("\"layer\":\"oosql.parse\""), std::string::npos);
  EXPECT_NE(lines[1].find("\"parent\":0"), std::string::npos);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace perfbench
}  // namespace n2j

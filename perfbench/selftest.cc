// Unit tests for the benchmark's own helpers: the percentile rule, the
// sample reservoir, span recording and self time, and the metric-name
// grammar. Runs without any test framework:
//
//   perfbench_selftest        (exit 0 = all passed)

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "stats.h"
#include "trace.h"

namespace perfbench {
namespace {

int g_failures = 0;

void Expect(bool ok, const char* what, int line) {
  if (!ok) {
    std::fprintf(stderr, "selftest line %d: %s\n", line, what);
    ++g_failures;
  }
}

#define EXPECT(cond) Expect((cond), #cond, __LINE__)

std::vector<double> OneTo(size_t n) {
  std::vector<double> v;
  for (size_t i = 1; i <= n; ++i) v.push_back(static_cast<double>(i));
  return v;
}

void TestNearestRank() {
  EXPECT(NearestRank(100, 50) == 50);
  EXPECT(NearestRank(100, 99) == 99);
  EXPECT(NearestRank(1000, 99) == 990);  // 0.99 * 1000 must not round to 991.
  EXPECT(NearestRank(3, 50) == 2);
  EXPECT(NearestRank(1, 99) == 1);
  EXPECT(PercentileOfSorted(OneTo(10), 50) == 5);
}

void TestTailRule() {
  // Fewer than 20 samples: not even the median has 10 samples beyond it.
  EXPECT(!TailPercentile(19).has_value());
  EXPECT(TailPercentile(20).value_or(0) == 50);
  EXPECT(TailPercentile(39).value_or(0) == 50);
  EXPECT(TailPercentile(40).value_or(0) == 75);
  EXPECT(TailPercentile(99).value_or(0) == 75);
  EXPECT(TailPercentile(100).value_or(0) == 90);
  EXPECT(TailPercentile(999).value_or(0) == 90);
  EXPECT(TailPercentile(1000000).value_or(0) == 90);  // The ladder's top.
  // Whatever the count, the chosen percentile leaves >= 10 samples beyond.
  for (size_t n = 20; n < 3000; ++n) {
    const double pct = TailPercentile(n).value_or(0);
    EXPECT(n - NearestRank(n, pct) >= kMinBeyond);
  }

  std::vector<double> v = OneTo(1000);
  std::vector<double> reversed(v.rbegin(), v.rend());
  const Summary s = Summarize(reversed);
  EXPECT(s.n == 1000 && s.p50 == 500 && s.tail_pct == 90 && s.tail == 900);

  std::vector<double> few = {3, 1, 2};
  const Summary f = Summarize(few);
  EXPECT(f.p50 == 2 && f.tail == 3 && f.tail_pct == 0);

  EXPECT(Median({4, 1, 3, 2}) == 2.5);
  EXPECT(Median({}) == 0);
}

void TestReservoir() {
  Reservoir small(100);
  for (int i = 0; i < 50; ++i) small.Add(i);
  EXPECT(small.seen() == 50 && small.Values().size() == 50);

  // Past capacity it keeps exactly `capacity` values, drawn from the whole
  // stream: the kept median of 0..99999 sits near the stream's median.
  Reservoir r(1000);
  for (int i = 0; i < 100000; ++i) r.Add(i);
  std::vector<double> kept = r.Values();
  EXPECT(r.seen() == 100000 && kept.size() == 1000);
  const double median = Median(kept);
  EXPECT(median > 45000 && median < 55000);
  EXPECT(*std::max_element(kept.begin(), kept.end()) > 90000);
}

Span MakeSpan(int32_t parent, int64_t start, int64_t end) {
  Span s;
  s.parent = parent;
  s.start_ns = start;
  s.end_ns = end;
  return s;
}

void TestSelfTime() {
  // commit [0,100) with two log-sync children [10,30) and [50,90): self = 40.
  std::vector<Span> spans = {MakeSpan(-1, 0, 100), MakeSpan(0, 10, 30),
                             MakeSpan(0, 50, 90)};
  std::vector<int64_t> self = SelfTimes(spans);
  EXPECT(self[0] == 40 && self[1] == 20 && self[2] == 40);

  // Grandchildren count only against their own parent.
  spans = {MakeSpan(-1, 0, 100), MakeSpan(0, 10, 60), MakeSpan(1, 20, 50)};
  self = SelfTimes(spans);
  EXPECT(self[0] == 50 && self[1] == 20 && self[2] == 30);
}

void TestRecorder() {
  Tracer::Drain();
  {
    ScopedSpan off(SpanKind::kClientCommit, 7);  // Recording is off.
  }
  EXPECT(Tracer::Drain().empty());

  Tracer::SetEnabled(true);
  {
    ScopedSpan commit(SpanKind::kClientCommit, 7);
    ScopedSpan sync(SpanKind::kSyncClientLog);
  }
  Tracer::SetEnabled(false);
  auto threads = Tracer::Drain();
  EXPECT(threads.size() == 1 && threads[0].size() == 2);
  if (threads.size() == 1 && threads[0].size() == 2) {
    const Span& commit = threads[0][0];
    const Span& sync = threads[0][1];
    EXPECT(commit.parent == -1 && sync.parent == 0);
    EXPECT(sync.txn == 7);  // Inherited from the enclosing span.
    EXPECT(commit.start_ns <= sync.start_ns && sync.end_ns <= commit.end_ns);
    EXPECT(SpanName(commit.kind) == "client.Commit");
  }
}

void TestMetricNames() {
  EXPECT(ValidMetricName("txn_per_s"));
  EXPECT(ValidMetricName("log.client_sync_p50_us"));
  EXPECT(ValidMetricName("a-b.c_9"));
  EXPECT(ValidMetricName("9lives"));
  EXPECT(!ValidMetricName(""));
  EXPECT(!ValidMetricName("_leading"));
  EXPECT(!ValidMetricName(".leading"));
  EXPECT(!ValidMetricName("has space"));
  EXPECT(!ValidMetricName("slash/x"));
  EXPECT(!ValidMetricName("quote\""));
  EXPECT(!ValidMetricName(std::string(65, 'a')));
  EXPECT(ValidMetricName(std::string(64, 'a')));
}

}  // namespace
}  // namespace perfbench

int main() {
  perfbench::TestNearestRank();
  perfbench::TestTailRule();
  perfbench::TestReservoir();
  perfbench::TestSelfTime();
  perfbench::TestRecorder();
  perfbench::TestMetricNames();
  if (perfbench::g_failures != 0) {
    std::fprintf(stderr, "perfbench selftest: %d failure(s)\n",
                 perfbench::g_failures);
    return 1;
  }
  std::printf("perfbench selftest: all passed\n");
  return 0;
}

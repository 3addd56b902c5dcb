// Self-check of the benchmark's statistics and schedule code (stats.h):
// exact percentiles, the ten-samples-beyond rule, the Poisson send
// schedule and the Zipf sampler. run.py runs it before every benchmark run;
// a non-zero exit stops the run.
#include <cmath>
#include <cstdio>
#include <vector>

#include "stats.h"

namespace {

int failures = 0;

void Expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "selfcheck FAILED: %s\n", what);
    ++failures;
  }
}

bool Near(double a, double b, double rel) {
  return std::fabs(a - b) <= rel * std::fabs(b);
}

}  // namespace

int main() {
  using namespace e2e;

  // Nearest-rank percentiles over 1..100.
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);
  Summary s = Summarize(v);
  Expect(s.count == 100, "count");
  Expect(s.p50 == 50, "p50 of 1..100 is 50");
  Expect(s.p99 == 99, "p99 of 1..100 is 99");
  Expect(s.tail_pct == 90 && s.tail == 90,
         "1..100 supports p90 (10 beyond), not p95 (5 beyond)");
  Expect(Percentile({7}, 99) == 7, "one sample is every percentile");
  Expect(SamplesBeyond(1000, 99) == 10, "p99 of 1000 has 10 beyond");
  Expect(HighestSupportedPercentile(1000) == 99, "1000 samples support p99");
  Expect(HighestSupportedPercentile(999) == 95, "999 samples do not");
  Expect(HighestSupportedPercentile(10000) == 99.9, "10000 support p99.9");
  Expect(HighestSupportedPercentile(39) == 50, "39 samples: median only");

  // Poisson schedule: same seed, same schedule; rate * duration sends;
  // mean gap 1/rate; gaps exponential (coefficient of variation 1); sorted,
  // inside the window.
  Rng a(42), b(42), c(43);
  std::vector<double> ta = PoissonSchedule(a, 1000, 200000);
  std::vector<double> tb = PoissonSchedule(b, 1000, 200000);
  std::vector<double> tc = PoissonSchedule(c, 1000, 200000);
  Expect(ta == tb, "same seed gives the same schedule");
  Expect(ta != tc, "another seed gives another schedule");
  Expect(ta.size() == 200000, "exactly rate * duration sends");
  double sum = 0, sum2 = 0;
  for (size_t i = 1; i < ta.size(); ++i) {
    Expect(ta[i] >= ta[i - 1], "schedule is sorted");
    double g = ta[i] - ta[i - 1];
    sum += g;
    sum2 += g * g;
  }
  const double n = static_cast<double>(ta.size() - 1);
  const double mean = sum / n;
  const double cv = std::sqrt(sum2 / n - mean * mean) / mean;
  Expect(Near(mean, 1.0, 0.01), "mean gap is 1 ms at 1000/s");
  Expect(Near(cv, 1.0, 0.02), "gaps are exponential (cv 1)");
  Expect(!ta.empty() && ta.front() >= 0 && ta.back() < 200000,
         "sends fall inside the window");
  Rng z(7);
  Expect(PoissonSchedule(z, 0, 1000).empty(), "rate 0 sends nothing");

  // Zipf(1.0): rank 0 drawn twice as often as rank 1.
  Zipf zipf(1000, 1.0);
  Rng r(3);
  std::vector<size_t> hist(1000);
  for (int i = 0; i < 400000; ++i) ++hist[zipf.Draw(r)];
  Expect(Near(static_cast<double>(hist[0]) / hist[1], 2.0, 0.05),
         "Zipf(1) rank ratio 1:2");

  if (failures == 0) std::printf("selfcheck: ok\n");
  return failures == 0 ? 0 : 1;
}

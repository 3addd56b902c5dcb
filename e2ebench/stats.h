// Sampling and statistics for the end-to-end benchmark: a seeded RNG, the
// open-loop Poisson send schedule, the Zipf key sampler, and exact
// percentiles over per-request samples. Header-only so selfcheck.cc can
// test exactly the code the benchmark runs.
#ifndef E2EBENCH_STATS_H_
#define E2EBENCH_STATS_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

namespace e2e {

/// splitmix64: small, seedable, and identical on every platform, so one
/// seed always yields the same inputs and schedule.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, 1).
  double Uniform() { return (Next() >> 11) * (1.0 / 9007199254740992.0); }
  /// Uniform in [0, n).
  uint64_t Below(uint64_t n) { return n == 0 ? 0 : Next() % n; }

 private:
  uint64_t state_;
};

/// Mixes several values into one seed (per phase, per client thread).
inline uint64_t MixSeed(uint64_t a, uint64_t b, uint64_t c = 0) {
  Rng r(a * 0x100000001b3ull ^ (b + 0x632be59bd9b4e019ull) ^ (c << 17));
  r.Next();
  return r.Next();
}

/// Send times, in ms from the phase start, of a Poisson process of
/// `rate_per_s` over [0, duration_ms) conditioned on its count: exactly
/// round(rate * duration) sends, placed as the order statistics of uniform
/// times (exponential gaps normalised to the window). The gaps are those of
/// a Poisson process; only the count's run-to-run noise is taken out, so a
/// phase always holds the same number of requests.
inline std::vector<double> PoissonSchedule(Rng& rng, double rate_per_s,
                                           double duration_ms) {
  std::vector<double> times;
  if (rate_per_s <= 0 || duration_ms <= 0) return times;
  const size_t n = static_cast<size_t>(std::llround(rate_per_s * duration_ms / 1000));
  double t = 0;
  for (size_t i = 0; i < n; ++i) {
    t += -std::log(1.0 - rng.Uniform());
    times.push_back(t);
  }
  const double total = t - std::log(1.0 - rng.Uniform());  // gap n + 1
  for (double& x : times) x *= duration_ms / total;
  return times;
}

/// Draws ranks 0..n-1 with P(rank r) proportional to 1 / (r + 1)^s.
class Zipf {
 public:
  Zipf(size_t n, double s) : cdf_(n) {
    double sum = 0;
    for (size_t r = 0; r < n; ++r) {
      sum += 1.0 / std::pow(static_cast<double>(r + 1), s);
      cdf_[r] = sum;
    }
    for (double& c : cdf_) c /= sum;
  }
  size_t Draw(Rng& rng) const {
    const double u = rng.Uniform();
    size_t r = std::upper_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin();
    return std::min(r, cdf_.size() - 1);
  }

 private:
  std::vector<double> cdf_;
};

/// 1-based nearest rank of the p-th percentile among n samples. The
/// epsilon keeps 99.9% of 10000 at rank 9990 despite binary rounding.
inline size_t NearestRank(size_t n, double p) {
  double rank = std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9);
  return rank < 1 ? 1 : std::min(n, static_cast<size_t>(rank));
}

/// Nearest-rank percentile of an ascending-sorted sample: the smallest
/// value with at least p% of the sample at or below it.
inline double Percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0;
  size_t i = NearestRank(sorted.size(), p) - 1;
  return sorted[std::min(i, sorted.size() - 1)];
}

/// Samples strictly above the nearest-rank p-th percentile.
inline size_t SamplesBeyond(size_t n, double p) {
  return n == 0 ? 0 : n - NearestRank(n, p);
}

/// The highest of the reported percentiles (99.9, 99, 95, 90, 50) that has
/// at least ten samples beyond it; 50 when none has (the median is always
/// reported, whatever the sample size).
inline double HighestSupportedPercentile(size_t n) {
  for (double p : {99.9, 99.0, 95.0, 90.0}) {
    if (SamplesBeyond(n, p) >= 10) return p;
  }
  return 50;
}

/// Median and tail of one metric's samples, with the sample count.
struct Summary {
  size_t count = 0;
  double p50 = 0;
  double tail = 0;       // value at `tail_pct`
  double tail_pct = 50;  // highest percentile with >= 10 samples beyond it
  double p99 = 0;        // nearest-rank p99 (valid when tail_pct >= 99)
};

inline Summary Summarize(std::vector<double> v) {
  Summary s;
  std::sort(v.begin(), v.end());
  s.count = v.size();
  s.p50 = Percentile(v, 50);
  s.tail_pct = HighestSupportedPercentile(v.size());
  s.tail = Percentile(v, s.tail_pct);
  s.p99 = Percentile(v, 99);
  return s;
}

}  // namespace e2e

#endif  // E2EBENCH_STATS_H_

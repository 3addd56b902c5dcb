// The benchmark's three workloads: the facts each one serves, the requests
// its clients send, the deltas its publisher commits, and the reference
// answers every response is checked against. Everything is generated from
// the workload seed; the server only ever sees the generated inputs.
#ifndef E2EBENCH_WORKLOAD_H_
#define E2EBENCH_WORKLOAD_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "stats.h"

namespace e2e {

struct Fact {
  std::string pred;
  std::string a, b;  // every relation of the workloads is binary
};

/// One distinct request of a workload's key set.
struct Request {
  std::string pred;
  std::string source;  // empty: free
  std::string target;  // empty: free
  bool diagonal = false;
  bool cyclic = false;  // options.use_cyclic_bound (Figure 8 data)
  /// Bound-source sg request over a Figure 7(b)/(c) component: the ones the
  /// ours-vs-counting ratios replay.
  bool fig7_bound = false;
  std::string body;  // the JSON body sent on the wire
};

struct Workload {
  std::string name;
  std::string rules;                     // program text (rules only)
  std::vector<Fact> base;                // the genesis facts
  /// D_1..D_K of the publish cycle; empty on the read-only workloads,
  /// which run no publisher.
  std::vector<std::vector<Fact>> deltas;
  std::vector<Request> keys;             // the distinct requests

  // Serving configuration.
  size_t cache_bytes = 0;         // 0: answer cache off
  double client_qps_limit = 0;    // 0: rate limiter off
  size_t seeded_batches = 0;      // committed batches recovered at set-up

  /// Draws one key index for a client's next request.
  size_t Draw(Rng& rng) const;

  // Sampler state.
  std::vector<double> class_weight;            // per request class
  std::vector<std::vector<size_t>> class_keys;  // keys of each class
  double zipf_s = 0;                           // > 0: Zipf over `zipf_order`
  std::vector<size_t> zipf_order;
  std::unique_ptr<Zipf> zipf;
};

/// Builds workload `name` ("paper_chain", "hot_keys",
/// "publish_while_serving") from `seed`; nullptr for an unknown name.
std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed);

/// The publish cycle: publish p (1-based) adds D_1..D_K in turn, then
/// retracts them in reverse, and repeats. Epoch e (p publishes past a genesis
/// at epoch 0) therefore serves base + D_1..D_s with s = StateOfEpoch(e);
/// with no deltas (k = 0) every epoch serves the base facts.
size_t StateOfEpoch(uint64_t epoch, size_t k);
/// Delta index and direction of publish `p` (1-based).
void PublishOp(uint64_t p, size_t k, size_t* delta, bool* add);

/// Reference answers from the seminaive fixpoint over a database the
/// benchmark builds itself from the facts of each state.
class Reference {
 public:
  struct Answer {
    uint64_t count = 0;
    uint64_t hash = 0;  // sum of TupleHash over the answer set
  };
  explicit Reference(const Workload& w);
  ~Reference();
  /// Answer of key `key` at state `state` (0..K); computes the state's
  /// fixpoint on first use.
  const Answer& Get(size_t state, size_t key);

 private:
  struct State;
  const Workload& w_;
  std::map<size_t, std::unique_ptr<State>> states_;
};

/// The facts of state `s`: base plus D_1..D_s.
std::vector<Fact> FactsAtState(const Workload& w, size_t s);

}  // namespace e2e

#endif  // E2EBENCH_WORKLOAD_H_

// End-to-end benchmark: the query service and a DataServer on loopback in
// one process, driven by a seeded open-loop load generator over keep-alive
// connections. See README.md for the workloads, metrics and method.
//
//   e2e_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --workdir <dir> [--trace-out <chrome trace JSON, with --trace 1>]
//
// Prints progress lines, then one JSON object as the last line of stdout:
// end-to-end metrics with --trace 0, per-layer metrics with --trace 1.
// Exits non-zero on any answer that differs from the seminaive reference.
#include <sys/prctl.h>
#include <sys/stat.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "baselines/counting.h"
#include "cache/answer_cache.h"
#include "datalog/parser.h"
#include "durability/recovery.h"
#include "durability/wal.h"
#include "equations/lemma1.h"
#include "eval/query.h"
#include "http_client.h"
#include "live/snapshot_manager.h"
#include "server/data_server.h"
#include "service/query_service.h"
#include "stats.h"
#include "workload.h"

namespace e2e {
namespace {

using namespace binchain;

constexpr int kSetupRepeats = 25;  // set-ups per run; setup_s is their median
// The same on every workload for now: the delayed-ACK stall of the data
// plane (README, "Findings") caps all three alike. Retune per workload once
// it is mended.
constexpr double kReferenceRate = 36;  // offered queries/s, reference phase
constexpr double kLagLimitMs = 200;    // the ladder's backlog limit
constexpr double kPublishRate = 50;    // publishes/s on publish_while_serving
// Shares of --seconds: the reference phase, and the ladder after it. The
// reference phase holds about 1060 requests after its warm-up: enough for a
// p99 (1000).
constexpr double kReferenceShare = 0.85;
constexpr double kLadderShare = 0.15;
// The ladder: rung i offers kReferenceRate * 1.06^i, i < 128 (up to about
// 1600x the reference rate), searched by bisection.
constexpr double kLadderStep = 1.06;
constexpr size_t kLadderRungs = 128;
constexpr double kWarmupMs = 1000;  // excluded from every timed phase
constexpr size_t kCheckKeys = 32;   // keys checked after recovery and at the end

const Clock::time_point kProcessStart = Clock::now();

double MsOf(Clock::time_point t) {
  return std::chrono::duration<double, std::milli>(t - kProcessStart).count();
}
void Progress(const char* what) {
  std::printf("# t=%.2fs %s\n", MsOf(Clock::now()) / 1000, what);
  std::fflush(stdout);
}
double MsSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

[[noreturn]] void Die(const std::string& msg) {
  std::fprintf(stderr, "e2e_bench: %s\n", msg.c_str());
  std::exit(2);
}

/// The production defaults: fdatasync per commit, a checkpoint once the
/// log passes 1 MiB.
durability::WalOptions WalOpts() {
  durability::WalOptions o;
  o.fsync_commits = true;
  return o;
}

std::string FactsText(const std::vector<Fact>& facts) {
  std::string out;
  for (const Fact& f : facts) out += f.pred + "(" + f.a + ", " + f.b + ").\n";
  return out;
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::atof(line.c_str() + 6) / 1024;
  }
  return 0;
}

// ------------------------------------------------------------------ tracing

/// Spans recorded around the benchmark's own calls into each layer, kept in
/// memory and written as Chrome-trace JSON at the end of a traced run.
struct Span {
  std::string name;
  std::string layer;
  double ts_ms = 0;
  double dur_ms = 0;
  int tid = 0;
  std::string args;  // JSON object body, may be empty
  long parent = -1;  // index of the enclosing span, -1 at the top level
};

class Tracer {
 public:
  std::atomic<bool> on{false};
  /// Records `s`; returns its index (a parent for later spans), or -1
  /// when tracing is off.
  long Add(Span s) {
    if (!on.load(std::memory_order_relaxed)) return -1;
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(std::move(s));
    return static_cast<long>(spans_.size()) - 1;
  }
  void SetParent(long child, long parent) {
    std::lock_guard<std::mutex> lock(mu_);
    if (child >= 0) spans_[child].parent = parent;
  }
  /// Times `fn` as one span when tracing is on.
  template <typename Fn>
  double Time(const std::string& name, const std::string& layer, Fn&& fn) {
    Clock::time_point t0 = Clock::now();
    fn();
    double ms = MsSince(t0);
    Add({name, layer, MsOf(t0), ms, 0, ""});
    return ms;
  }
  std::vector<Span> Take() {
    std::lock_guard<std::mutex> lock(mu_);
    return std::move(spans_);
  }

 private:
  std::mutex mu_;
  std::vector<Span> spans_;
};

Tracer g_tracer;

// ------------------------------------------------------------------- server

/// The system under test: a durable live query service (WAL, fdatasync per
/// commit) behind a DataServer, brought up through the recovery path.
struct Server {
  std::unique_ptr<durability::RecoveryManager> recovery;
  std::unique_ptr<SnapshotManager> manager;
  std::unique_ptr<QueryService> service;
  std::unique_ptr<server::DataServer> data;
  double recovery_ms = 0;
  long recovery_span = -1;
  uint64_t batches_replayed = 0;

  ~Server() {
    if (data) data->Stop();
    data.reset();
    service.reset();
    manager.reset();
  }
};

/// Process start to ready: recover the WAL directory, parse the program,
/// prepare and seal the service, replay the log, open the query socket.
std::unique_ptr<Server> StartServer(const Workload& w,
                                    const std::string& program_text,
                                    const std::string& wal_dir,
                                    size_t threads) {
  auto s = std::make_unique<Server>();
  ::mkdir(wal_dir.c_str(), 0777);
  auto loaded = durability::RecoveryManager::Load(wal_dir);
  if (!loaded.ok()) Die(loaded.status().message());
  s->recovery = loaded.take();
  std::unique_ptr<Database> genesis = s->recovery->BuildGenesis();
  auto program = ParseProgram(program_text, genesis->symbols());
  if (!program.ok()) Die(program.status().message());
  s->manager = std::make_unique<SnapshotManager>(std::move(genesis));
  QueryServiceOptions opts;
  opts.num_threads = threads;
  opts.answer_cache_bytes = w.cache_bytes;
  s->service = std::make_unique<QueryService>(
      s->manager.get(), s->recovery.get(), program.value(), opts);
  if (!s->service->status().ok()) Die(s->service->status().message());
  Clock::time_point t0 = Clock::now();
  if (Status st = s->service->FinishRecovery(WalOpts()); !st.ok()) {
    Die(st.message());
  }
  s->recovery_ms = MsSince(t0);
  s->recovery_span = g_tracer.Add(
      {"FinishRecovery", "durability", MsOf(t0), s->recovery_ms, 0, ""});
  s->batches_replayed = s->recovery->stats().batches_replayed;
  s->recovery.reset();
  server::DataServerOptions dopts;
  dopts.handler_threads = threads;
  dopts.rate_limit.qps = w.client_qps_limit;
  s->data = std::make_unique<server::DataServer>(s->service.get(), dopts);
  if (Status st = s->data->Start(); !st.ok()) Die(st.message());
  return s;
}

/// Writes the seeded log publish_while_serving recovers at set-up: a
/// genesis checkpoint of the base facts plus `w.seeded_batches` committed
/// batches of the publish cycle.
void SeedLog(const Workload& w, const std::string& wal_dir) {
  ::mkdir(wal_dir.c_str(), 0777);
  auto wal = durability::Wal::Open(wal_dir, WalOpts());
  if (!wal.ok()) Die(wal.status().message());
  auto genesis = std::make_unique<Database>();
  for (const Fact& f : w.base) genesis->AddFact(f.pred, {f.a, f.b});
  SnapshotManager manager(std::move(genesis));
  manager.SetDurabilitySink(wal.value().get());
  manager.Seal();
  for (uint64_t p = 1; p <= w.seeded_batches; ++p) {
    size_t d;
    bool add;
    PublishOp(p, w.deltas.size(), &d, &add);
    for (const Fact& f : w.deltas[d]) {
      if (add) {
        manager.AddFact(f.pred, {f.a, f.b});
      } else {
        manager.DeleteFact(f.pred, {f.a, f.b});
      }
    }
    PublishStats ps = manager.Publish();
    if (!ps.status.ok() || ps.epoch != p) Die("seeding the log failed");
  }
  manager.SetDurabilitySink(nullptr);
}

// ---------------------------------------------------------------- load gen

enum Phase : uint8_t { kSweep, kReference, kTraced, kLadder };

struct Sample {
  uint32_t key = 0;
  uint8_t phase = kSweep;
  uint8_t client = 0;  // connection index
  bool transport_ok = false;
  bool trailer_ok = false;  // 200, trailer status ok, not partial
  bool partial = false;
  int http_status = 0;
  uint64_t epoch = 0;
  uint64_t tuples = 0;
  uint64_t hash = 0;
  uint64_t answers = 0;  // trailer's count
  uint64_t chunks = 0;
  uint64_t trailer_chunks = 0;
  uint64_t answer_bytes = 0;
  double intended_ms = 0;
  double sent_ms = 0;
  double first_ms = -1;
  double done_ms = 0;
  double eval_ms = 0;
  double total_ms = 0;
  double Latency() const { return done_ms - intended_ms; }
};

struct PhaseResult {
  std::vector<Sample> samples;
  double start_ms = 0;  // the schedule's time zero
  double end_ms = 0;    // and its end (open-loop phases)
  bool aborted = false;
  uint64_t connects = 0;
};

/// Records a request's spans as its response completes: the client round
/// trip, and the trailer's service and eval durations placed at its end
/// (the server reports durations, not start times).
void TraceRequest(const Sample& s) {
  if (!g_tracer.on.load(std::memory_order_relaxed)) return;
  const int tid = 10 + s.client;
  const std::string args = "\"key\": " + std::to_string(s.key) +
                           ", \"epoch\": " + std::to_string(s.epoch);
  const long http = g_tracer.Add({"request.http", "server", s.sent_ms,
                                  s.done_ms - s.sent_ms, tid, args});
  const long service =
      g_tracer.Add({"request.service", "service", s.done_ms - s.total_ms,
                    s.total_ms, tid, args, http});
  if (s.eval_ms > 0) {
    g_tracer.Add({"request.eval", "eval", s.done_ms - s.eval_ms, s.eval_ms, tid,
                  args, service});
  }
  g_tracer.Add({"loadgen.lag", "loadgen", s.intended_ms,
                s.sent_ms - s.intended_ms, tid, ""});
}

class LoadGen {
 public:
  LoadGen(const Workload& w, uint16_t port, size_t clients) : w_(w) {
    for (size_t i = 0; i < clients; ++i) {
      conns_.push_back(std::make_unique<HttpConnection>());
      if (!conns_.back()->Connect(port)) Die("cannot connect to the server");
      heads_.push_back(
          "POST /v1/query HTTP/1.1\r\nHost: 127.0.0.1\r\nX-Client-Id: "
          "loadgen-" +
          std::to_string(i) + "\r\nContent-Type: application/json\r\n");
    }
    for (const Request& r : w.keys) {
      tails_.push_back("Content-Length: " + std::to_string(r.body.size()) +
                       "\r\n\r\n" + r.body);
    }
  }

  size_t clients() const { return conns_.size(); }
  /// Hangs up every connection (before the server stops: a handler blocked
  /// on an idle kept-alive connection otherwise waits out its io timeout).
  void CloseAll() {
    for (auto& c : conns_) c->Close();
  }
  uint64_t stale_retries() const {
    uint64_t n = 0;
    for (const auto& c : conns_) n += c->stale_retries();
    return n;
  }

  /// Open loop: one Poisson schedule of `rate`, served in order by a pool
  /// of client threads, one keep-alive connection each (a request leaves
  /// on the first free connection once it is due). A request is timed from
  /// its intended send time, so a stall is charged to every request queued
  /// behind it. The phase gives up once a send runs more than
  /// `abort_lag_ms` late (a growing backlog).
  PhaseResult Run(Phase phase, double rate, double duration_ms,
                  uint64_t seed, double abort_lag_ms) {
    Rng rng(MixSeed(seed, 1));  // the same schedule for the same seed
    Plan plan;
    for (double t : PoissonSchedule(rng, rate, duration_ms)) {
      plan.emplace_back(t, static_cast<uint32_t>(w_.Draw(rng)));
    }
    PhaseResult r = Drive(phase, plan, abort_lag_ms);
    r.end_ms = r.start_ms + duration_ms;
    return r;
  }

  /// Closed loop over `keys`: every key once, timed from its actual send.
  PhaseResult Sweep(const std::vector<uint32_t>& keys) {
    Plan plan;
    for (uint32_t k : keys) plan.emplace_back(0.0, k);
    return Drive(kSweep, plan, 0);
  }

 private:
  using Plan = std::vector<std::pair<double, uint32_t>>;  // (due ms, key)

  PhaseResult Drive(Phase phase, const Plan& plan, double abort_lag_ms) {
    std::vector<std::vector<Sample>> out(conns_.size());
    std::atomic<bool> abort{false};
    std::atomic<size_t> next{0};
    uint64_t connects_before = 0;
    for (auto& c : conns_) connects_before += c->connects();
    const Clock::time_point start =
        Clock::now() + std::chrono::milliseconds(20);
    std::vector<std::thread> threads;
    for (size_t i = 0; i < conns_.size(); ++i) {
      threads.emplace_back([&, i] {
        prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);  // wake on time
        HttpConnection& conn = *conns_[i];
        std::string request;
        HttpResult r;
        for (;;) {
          const size_t j = next.fetch_add(1);
          if (j >= plan.size() || abort.load(std::memory_order_relaxed)) break;
          const auto& [t, key] = plan[j];
          Clock::time_point due =
              start + std::chrono::duration_cast<Clock::duration>(
                          std::chrono::duration<double, std::milli>(t));
          if (phase != kSweep) std::this_thread::sleep_until(due);
          Clock::time_point sent = Clock::now();
          if (phase == kSweep) due = sent;
          if (abort_lag_ms > 0 &&
              std::chrono::duration<double, std::milli>(sent - due).count() >
                  abort_lag_ms) {
            abort.store(true);
            break;
          }
          request.assign(heads_[i]);
          request += tails_[key];
          conn.Exchange(request, &r);
          Sample s;
          s.key = key;
          s.phase = phase;
          s.client = static_cast<uint8_t>(i);
          s.transport_ok = r.transport_ok;
          s.http_status = r.http_status;
          s.trailer_ok = r.transport_ok && r.http_status == 200 &&
                         r.has_trailer && r.status == "ok" && !r.partial;
          s.partial = r.partial;
          s.epoch = r.epoch;
          s.tuples = r.tuples;
          s.hash = r.tuple_hash;
          s.answers = r.answers;
          s.chunks = r.answer_chunks;
          s.trailer_chunks = r.trailer_chunks;
          s.answer_bytes = r.answer_bytes;
          s.intended_ms = MsOf(due);
          s.sent_ms = MsOf(sent);
          s.first_ms = r.answer_chunks > 0 ? MsOf(r.first_answer) : -1;
          s.done_ms = r.transport_ok ? MsOf(r.done) : MsOf(Clock::now());
          s.eval_ms = r.eval_ms;
          s.total_ms = r.total_ms;
          TraceRequest(s);
          out[i].push_back(s);
        }
      });
    }
    for (std::thread& t : threads) t.join();
    PhaseResult res;
    res.start_ms = MsOf(start);
    res.aborted = abort.load();
    for (auto& v : out) res.samples.insert(res.samples.end(), v.begin(), v.end());
    for (auto& c : conns_) res.connects += c->connects();
    res.connects -= connects_before;
    return res;
  }

  const Workload& w_;
  std::vector<std::unique_ptr<HttpConnection>> conns_;
  std::vector<std::string> heads_;
  std::vector<std::string> tails_;
};

// ---------------------------------------------------------------- publisher

struct PublishSample {
  double latency_ms = 0;  // intended start to Publish() return
  double intended_ms = 0;
  PublishStats stats;
  uint64_t facts = 0;      // facts staged
  uint64_t wal_bytes = 0;  // bytes written to the WAL directory
  uint64_t log_bytes = 0;  // of those, log records
};

/// Publishes the delta cycle through the service's manager at a fixed rate
/// (open loop), keeping count of the bytes the WAL wrote, checkpoints
/// included.
class Publisher {
 public:
  Publisher(const Workload& w, Server& s, const std::string& wal_dir)
      : w_(w), s_(s), wal_dir_(wal_dir) {
    next_ = s.manager->epoch() + 1;
  }

  /// Publishes at `rate` per second until `stop` is set.
  void Run(double rate, const std::atomic<bool>* stop) {
    const Clock::time_point start = Clock::now();
    for (uint64_t i = 0; !stop->load(); ++i) {
      const Clock::time_point due =
          start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(i / rate));
      std::this_thread::sleep_until(due);
      const durability::Wal* wal = s_.service->wal();
      const uint64_t log0 = wal->log_bytes();
      const uint64_t ckpt0 = wal->checkpoints_written();
      size_t d;
      bool add;
      PublishOp(next_, w_.deltas.size(), &d, &add);
      for (const Fact& f : w_.deltas[d]) {
        if (add) {
          s_.manager->AddFact(f.pred, {f.a, f.b});
        } else {
          s_.manager->DeleteFact(f.pred, {f.a, f.b});
        }
      }
      const uint64_t log1 = wal->log_bytes();
      PublishStats ps = s_.manager->Publish();
      PublishSample sample;
      sample.latency_ms = MsSince(due);
      sample.intended_ms = MsOf(due);
      sample.stats = ps;
      if (!ps.status.ok() || ps.epoch != next_) {
        failed_ = true;
        break;
      }
      const uint64_t log2 = wal->log_bytes();
      if (wal->checkpoints_written() == ckpt0) {
        commit_bytes_ = log2 - log1;
        sample.log_bytes = log2 - log0;
        sample.wal_bytes = sample.log_bytes;
      } else {
        // The checkpoint truncated the log: count the staged records, one
        // commit record, and the checkpoint file itself.
        struct stat st {};
        ::stat(durability::Wal::CheckpointPath(wal_dir_).c_str(), &st);
        sample.log_bytes = (log1 - log0) + commit_bytes_ + log2;
        sample.wal_bytes = sample.log_bytes + static_cast<uint64_t>(st.st_size);
      }
      sample.facts = w_.deltas[d].size();
      // The publish span (intended start to return) and the PublishStats
      // phases laid end to end inside the Publish() call.
      const long span = g_tracer.Add(
          {"publish", "live", sample.intended_ms, sample.latency_ms, 100,
           "\"epoch\": " + std::to_string(ps.epoch)});
      double at = sample.intended_ms + sample.latency_ms - ps.wall_ms;
      for (const auto& [name, layer, ms] :
           {std::make_tuple("build", "live", ps.build_ms),
            std::make_tuple("freeze", "live", ps.freeze_ms),
            std::make_tuple("artifact", "live", ps.artifact_ms),
            std::make_tuple("commit", "durability", ps.commit_ms)}) {
        g_tracer.Add({name, layer, at, ms, 100, "", span});
        at += ms;
      }
      samples_.push_back(sample);
      ++next_;
    }
  }

  const std::vector<PublishSample>& samples() const { return samples_; }
  bool failed() const { return failed_; }

 private:
  const Workload& w_;
  Server& s_;
  std::string wal_dir_;
  uint64_t next_ = 1;
  bool failed_ = false;
  uint64_t commit_bytes_ = 0;  // size of the last commit record seen
  std::vector<PublishSample> samples_;
};

// ------------------------------------------------------------------ metrics

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

std::vector<double> Latencies(const std::vector<Sample>& v, double from_ms,
                              const std::function<double(const Sample&)>& f) {
  std::vector<double> out;
  for (const Sample& s : v) {
    if (s.intended_ms < from_ms || !s.trailer_ok) continue;
    double x = f(s);
    if (x >= 0) out.push_back(x);
  }
  return out;
}

/// The rate a phase achieved, not its nominal offer: requests answered per
/// second from the schedule's start to the last answer.
double AnsweredPerSecond(const PhaseResult& r) {
  double last_ms = r.start_ms;
  uint64_t answered = 0;
  for (const Sample& s : r.samples) {
    if (!s.trailer_ok) continue;
    ++answered;
    last_ms = std::max(last_ms, s.done_ms);
  }
  return last_ms > r.start_ms ? answered * 1000 / (last_ms - r.start_ms) : 0;
}

/// One ladder rung holds when the open-loop schedule held at its rate: no
/// request failed, no send ran more than the lag limit late (checked on
/// every send; the rung stops at the first), and the median latency of its
/// last quarter is within the limit too, so the backlog did not grow. This
/// is a backlog test, not a tail-latency test: a rung lasts under a second,
/// too short for a p99 near the rates where the ladder stops.
bool RungHolds(const PhaseResult& r, Summary* last_quarter) {
  if (r.aborted || r.samples.empty()) return false;
  std::vector<Sample> kept = r.samples;
  for (const Sample& s : kept) {
    if (!s.trailer_ok) return false;
  }
  std::sort(kept.begin(), kept.end(), [](const Sample& a, const Sample& b) {
    return a.intended_ms < b.intended_ms;
  });
  std::vector<double> last;
  for (size_t i = kept.size() * 3 / 4; i < kept.size(); ++i) {
    last.push_back(kept[i].Latency());
  }
  *last_quarter = Summarize(last);
  return last_quarter->p50 <= kLagLimitMs;
}

// ---------------------------------------------------------------- eval layer

struct EvalReplay {
  double query_ms_p50 = 0;
  EvalStats totals;
  double ours_ms = 0, counting_ms = 0, hn_ms = 0;
  uint64_t ours_fetches = 0, counting_fetches = 0, hn_fetches = 0;
  double prepare_ms = 0, load_ms = 0, freeze_ms = 0;
};

std::string LiteralText(const Request& r) {
  if (r.diagonal) return r.pred + "(X, X)";
  return r.pred + "(" + (r.source.empty() ? "X" : r.source) + ", " +
         (r.target.empty() ? "Y" : r.target) + ")";
}

template <typename Fn>
double BestOf3(Fn&& fn) {
  double best = 1e300;
  for (int i = 0; i < 3; ++i) {
    Clock::time_point t0 = Clock::now();
    fn();
    best = std::min(best, MsSince(t0));
  }
  return best;
}

/// The eval and storage layers replayed through their public functions on
/// one thread, over the facts the tip serves.
EvalReplay ReplayEval(const Workload& w, const std::vector<Fact>& facts) {
  EvalReplay out;
  {
    // Storage load, program preparation and freeze: the steps the service
    // constructor runs at set-up.
    Database db;
    out.load_ms = g_tracer.Time("Database::AddFact*", "storage", [&] {
      for (const Fact& f : facts) db.AddFact(f.pred, {f.a, f.b});
    });
    Program program = ParseProgram(w.rules, db.symbols()).take();
    out.prepare_ms = g_tracer.Time("PrepareProgram", "eval", [&] {
      if (!PrepareProgram(&db, program, true).ok()) Die("PrepareProgram");
    });
    out.freeze_ms = g_tracer.Time("Database::Freeze", "storage",
                                  [&] { db.Freeze(); });
  }
  Database db;
  for (const Fact& f : facts) db.AddFact(f.pred, {f.a, f.b});
  QueryEngine engine(&db);
  Program program = ParseProgram(w.rules, db.symbols()).take();
  if (!engine.LoadProgram(program).ok()) Die("LoadProgram");
  std::vector<double> per_key;
  for (size_t k = 0; k < w.keys.size(); ++k) {
    const Request& r = w.keys[k];
    Literal lit = ParseLiteral(LiteralText(r), db.symbols()).take();
    EvalOptions opts;
    opts.use_cyclic_bound = r.cyclic;
    Result<QueryAnswer> ans = engine.Query(lit, opts);  // warm
    if (!ans.ok()) Die(ans.status().message());
    const uint64_t f0 = db.TotalFetches();
    Clock::time_point t0 = Clock::now();
    ans = engine.Query(lit, opts);
    double ms = MsSince(t0);
    g_tracer.Add({"QueryEngine::Query", "eval", MsOf(t0), ms, 200,
                  "\"key\": " + std::to_string(k)});
    per_key.push_back(ms);
    const EvalStats& s = ans.value().stats;
    out.totals.nodes += s.nodes;
    out.totals.arcs += s.arcs;
    out.totals.expansions += s.expansions;
    out.totals.em_states += s.em_states;
    out.totals.iterations += s.iterations;
    out.totals.fetches += s.fetches;
    out.totals.memo_hits += s.memo_hits;
    if (r.fig7_bound) {
      out.ours_fetches += db.TotalFetches() - f0;
      out.ours_ms += BestOf3([&] { (void)engine.Query(lit, opts); });
    }
  }
  out.query_ms_p50 = Summarize(per_key).p50;

  // Counting and Henschen-Naqvi on the same Figure 7(b)/(c) requests.
  Database cdb;
  for (const Fact& f : facts) cdb.AddFact(f.pred, {f.a, f.b});
  Program cprog = ParseProgram(w.rules, cdb.symbols()).take();
  auto eqs = TransformToEquations(cprog, cdb.symbols());
  LinearNormalForm nf;
  if (!eqs.ok() ||
      !MatchLinearNormalForm(eqs.value().final_system,
                             *cdb.symbols().Find("sg"), &nf)) {
    Die("sg is not in linear normal form");
  }
  ViewRegistry views(&cdb.symbols());
  views.RegisterDatabase(cdb);
  for (const Request& r : w.keys) {
    if (!r.fig7_bound) continue;
    TermId src = views.pool().Unary(*cdb.symbols().Find(r.source));
    LevelStats ls;
    (void)CountingQuery(views, nf, src, 4096, &ls);  // warm
    (void)HenschenNaqviQuery(views, nf, src, 4096, &ls);
    uint64_t f0 = cdb.TotalFetches();
    (void)CountingQuery(views, nf, src, 4096, &ls);
    out.counting_fetches += cdb.TotalFetches() - f0;
    f0 = cdb.TotalFetches();
    (void)HenschenNaqviQuery(views, nf, src, 4096, &ls);
    out.hn_fetches += cdb.TotalFetches() - f0;
    out.counting_ms +=
        BestOf3([&] { (void)CountingQuery(views, nf, src, 4096, &ls); });
    out.hn_ms +=
        BestOf3([&] { (void)HenschenNaqviQuery(views, nf, src, 4096, &ls); });
  }
  return out;
}

// -------------------------------------------------------------------- main

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string workdir = ".";
  std::string trace_out;  // Chrome-trace JSON path, required with --trace 1
};

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      a.seconds = std::atof(v.c_str());
    } else if (k == "--trace") {
      a.trace = v == "1";
    } else if (k == "--workdir") {
      a.workdir = v;
    } else if (k == "--trace-out") {
      a.trace_out = v;
    } else {
      Die("unknown argument " + k);
    }
  }
  if (argc % 2 != 1) Die("arguments come in --name value pairs");
  if (a.seconds <= 0) Die("--seconds must be positive");
  if (a.trace && a.trace_out.empty()) Die("--trace 1 needs --trace-out");
  return a;
}

void WriteChromeTrace(const std::string& path, const std::vector<Span>& spans) {
  std::ofstream out(path);
  out << "{\n  \"displayTimeUnit\": \"ms\",\n  \"traceEvents\": [";
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "\"ph\": \"X\", \"pid\": 1, \"tid\": %d, \"ts\": %.3f, "
                  "\"dur\": %.3f",
                  s.tid, s.ts_ms * 1000, s.dur_ms * 1000);
    out << (i ? ",\n    " : "\n    ") << "{\"name\": \"" << s.name
        << "\", \"cat\": \"" << s.layer << "\", " << buf << ", \"args\": {"
        << s.args << "}}";
  }
  out << "\n  ]\n}\n";
}

/// Self time per layer: each span's duration minus its children's.
void PrintSelfTimes(const std::vector<Span>& spans) {
  std::vector<double> children(spans.size(), 0);
  for (const Span& s : spans) {
    if (s.parent >= 0) children[s.parent] += s.dur_ms;
  }
  std::map<std::string, std::pair<double, uint64_t>> self;
  for (size_t i = 0; i < spans.size(); ++i) {
    auto& e = self[spans[i].layer];
    e.first += spans[i].dur_ms - children[i];
    ++e.second;
  }
  std::printf("# per-layer self time (traced run)\n");
  std::printf("#   %-12s %12s %10s\n", "layer", "self_ms", "spans");
  for (const auto& [layer, e] : self) {
    std::printf("#   %-12s %12.3f %10llu\n", layer.c_str(), e.first,
                static_cast<unsigned long long>(e.second));
  }
}

int Main(int argc, char** argv) {
  Args args = ParseArgs(argc, argv);
  std::unique_ptr<Workload> w = MakeWorkload(args.workload, args.seed);
  if (w == nullptr) Die("unknown workload " + args.workload);
  const size_t nproc = std::max(1u, std::thread::hardware_concurrency());
  const size_t threads = nproc;  // service workers and HTTP handlers
  const size_t clients = nproc;  // client threads = keep-alive connections
  const size_t K = w->deltas.size();
  g_tracer.on = args.trace;

  const std::string wal_dir = args.workdir + "/wal-" + w->name;
  std::string program_text = w->rules;
  if (w->seeded_batches > 0) {
    SeedLog(*w, wal_dir);
  } else {
    program_text += FactsText(w->base);
  }
  std::printf("# workload %s seed %llu: %zu facts, %zu keys, %zu clients, "
              "%zu service threads\n",
              w->name.c_str(), static_cast<unsigned long long>(args.seed),
              w->base.size(), w->keys.size(), clients, threads);

  Progress("inputs ready");
  // Set-up, several times; the last server is the one measured.
  std::vector<double> setup_s;
  std::unique_ptr<Server> srv;
  for (int i = 0; i < kSetupRepeats; ++i) {
    srv.reset();
    const bool last = i + 1 == kSetupRepeats;
    g_tracer.on = args.trace && last;
    Clock::time_point t0 = Clock::now();
    srv = StartServer(*w, program_text, wal_dir, threads);
    double ms = MsSince(t0);
    setup_s.push_back(ms / 1000);
    g_tracer.SetParent(srv->recovery_span,
                       g_tracer.Add({"setup", "setup", MsOf(t0), ms, 0, ""}));
  }
  {
    std::vector<double> sorted = setup_s;
    std::sort(sorted.begin(), sorted.end());
    std::printf("# set-up: %zu times, min %.3f ms, median %.3f ms, max %.3f ms\n",
                sorted.size(), sorted.front() * 1000,
                sorted[sorted.size() / 2] * 1000, sorted.back() * 1000);
  }
  const uint64_t tip0 = srv->manager->epoch();
  if (tip0 != w->seeded_batches || srv->batches_replayed != w->seeded_batches) {
    std::printf("# MISMATCH: recovered tip %llu, expected %zu\n",
                static_cast<unsigned long long>(tip0), w->seeded_batches);
    return 1;
  }
  const double recovery_ms = srv->recovery_ms;

  LoadGen gen(*w, srv->data->port(), clients);
  std::vector<Sample> all;
  auto keep = [&all](const PhaseResult& r) {
    all.insert(all.end(), r.samples.begin(), r.samples.end());
  };

  // Before anything is timed: a sample of keys, checked at the recovered
  // tip (closed loop, one pass).
  std::vector<uint32_t> check_keys(w->keys.size());
  for (size_t k = 0; k < check_keys.size(); ++k) check_keys[k] = k;
  {
    Rng rng(MixSeed(args.seed, 99));
    for (size_t i = check_keys.size(); i > 1; --i) {
      std::swap(check_keys[i - 1], check_keys[rng.Below(i)]);
    }
    check_keys.resize(std::min(check_keys.size(), kCheckKeys));
  }
  keep(gen.Sweep(check_keys));
  Progress("recovered tip checked");

  cache::CacheSnapshot cache0{}, cache1{};
  auto cache_snap = [&]() {
    cache::AnswerCache* c = srv->service->answer_cache();
    return c ? c->Snapshot() : cache::CacheSnapshot{};
  };

  const double S = args.seconds * 1000;
  // Only publish_while_serving publishes; the read-only mixes run no
  // publisher, so nothing but their reads shares the serving path.
  std::atomic<bool> stop_pub{false};
  std::unique_ptr<Publisher> publisher;
  std::thread pub_thread;
  if (!w->deltas.empty()) {
    publisher = std::make_unique<Publisher>(*w, *srv, wal_dir);
    pub_thread = std::thread([&] { publisher->Run(kPublishRate, &stop_pub); });
  }

  // `measured` is the phase the metrics come from: the reference phase, or
  // with --trace 1 the traced phase.
  PhaseResult measured;
  std::vector<PhaseResult> untraced;  // --trace 1: the phases around it
  double sustained = 0;
  if (!args.trace) {
    measured = gen.Run(kReference, kReferenceRate, kReferenceShare * S,
                       args.seed, 0);
    keep(measured);
    sustained = AnsweredPerSecond(measured);
    Progress("reference phase done");
    // Ladder: bisection over the fixed rungs kReferenceRate * step^i,
    // rung 0 being the reference phase just measured.
    size_t lo = 0, hi = kLadderRungs;
    const double step_ms =
        kLadderShare * S / std::ceil(std::log2(kLadderRungs));
    while (hi - lo > 1) {
      const size_t mid = (lo + hi) / 2;
      const double rate = kReferenceRate * std::pow(kLadderStep, mid);
      PhaseResult rung = gen.Run(kLadder, rate, step_ms,
                                 MixSeed(args.seed, mid), kLagLimitMs);
      keep(rung);
      Summary last;
      const bool ok = RungHolds(rung, &last);
      std::printf("# rung %zu: %.0f q/s offered, %zu samples%s, last quarter "
                  "p50 %.3f ms -> %s\n",
                  mid, rate, rung.samples.size(),
                  rung.aborted ? " (a send ran late: stopped)" : "", last.p50,
                  ok ? "holds" : "fails");
      (ok ? lo : hi) = mid;
      if (ok) sustained = AnsweredPerSecond(rung);
    }
  } else {
    // Untraced (0.15 S), traced, untraced (0.15 S) on one server at the
    // reference rate, so the traced phase is neither the first on a cold
    // cache nor the last on the warmest: the tracing overhead is traced
    // minus untraced.
    for (int part = 0; part < 3; ++part) {
      const bool on = part == 1;
      g_tracer.on = on;
      if (on) cache0 = cache_snap();
      PhaseResult r = gen.Run(on ? kTraced : kReference, kReferenceRate,
                              (on ? kReferenceShare : 0.15) * S,
                              MixSeed(args.seed, part), 0);
      keep(r);
      if (on) {
        cache1 = cache_snap();
        measured = std::move(r);
      } else {
        untraced.push_back(std::move(r));
      }
    }
    g_tracer.on = true;
  }
  stop_pub = true;
  if (pub_thread.joinable()) pub_thread.join();
  Progress("serving done");
  if (publisher != nullptr && publisher->failed()) {
    std::printf("# a publish failed\n");
    return 1;
  }
  // The tip after every publish: each key once more.
  keep(gen.Sweep(check_keys));
  const double peak_rss_mb = PeakRssMb();
  const uint64_t tip_epoch = srv->manager->epoch();
  const uint64_t stale_retries = gen.stale_retries();
  gen.CloseAll();
  srv.reset();

  // ---- check every answer against the seminaive reference
  Reference reference(*w);
  uint64_t attempted = all.size(), failed = 0, mismatches = 0;
  for (const Sample& s : all) {
    if (!s.trailer_ok) {
      if (++failed <= 5) {
        std::printf("# FAILED key %u phase %d: transport %d, http %d, "
                    "partial %d\n",
                    s.key, s.phase, s.transport_ok, s.http_status, s.partial);
      }
      continue;
    }
    const Reference::Answer& want =
        reference.Get(StateOfEpoch(s.epoch, K), s.key);
    if (s.tuples != s.answers || s.chunks != s.trailer_chunks ||
        s.tuples != want.count || s.hash != want.hash) {
      if (++mismatches <= 5) {
        std::printf("# MISMATCH key %u (%s) epoch %llu: got %llu tuples in "
                    "%llu chunks (trailer %llu in %llu), want %llu\n",
                    s.key, w->keys[s.key].body.c_str(),
                    static_cast<unsigned long long>(s.epoch),
                    static_cast<unsigned long long>(s.tuples),
                    static_cast<unsigned long long>(s.chunks),
                    static_cast<unsigned long long>(s.answers),
                    static_cast<unsigned long long>(s.trailer_chunks),
                    static_cast<unsigned long long>(want.count));
      }
    }
  }
  Progress("answers checked");
  std::printf("# %llu requests re-sent after the server closed a kept-alive "
              "connection without Connection: close\n",
              static_cast<unsigned long long>(stale_retries));
  std::printf("# checked %llu responses against the seminaive reference: "
              "%llu failed, %llu mismatched\n",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(mismatches));

  // ---- metrics
  std::vector<Metric> metrics;
  const double from = measured.start_ms + kWarmupMs;
  // The measured publishes: those due inside the measured phase.
  std::vector<PublishSample> measured_pubs;
  if (publisher != nullptr) {
    for (const PublishSample& p : publisher->samples()) {
      if (p.intended_ms >= from && p.intended_ms < measured.end_ms) {
        measured_pubs.push_back(p);
      }
    }
  }
  std::vector<double> pub_lat;
  uint64_t pub_facts = 0, pub_wal_bytes = 0, pub_log_bytes = 0;
  for (const PublishSample& p : measured_pubs) {
    pub_lat.push_back(p.latency_ms);
    pub_facts += p.facts;
    pub_wal_bytes += p.wal_bytes;
    pub_log_bytes += p.log_bytes;
  }
  const Summary pub = Summarize(pub_lat);
  if (publisher != nullptr) {
    std::printf("# publish latency: %zu samples, p50 %.4f ms, p%.4g %.4f ms\n",
                pub.count, pub.p50, pub.tail_pct, pub.tail);
  }
  auto latency = [](const Sample& s) { return s.Latency(); };
  if (!args.trace) {
    std::vector<double> lat = Latencies(measured.samples, from, latency);
    const Summary q = Summarize(lat);
    const Summary fa = Summarize(Latencies(measured.samples, from, [](const Sample& s) {
      return s.first_ms < 0 ? -1 : s.first_ms - s.intended_ms;
    }));
    const double slow = std::count_if(lat.begin(), lat.end(),
                                      [](double x) { return x > 40; });
    std::printf("# query latency: %zu samples, p50 %.4f ms, p%.4g %.4f ms, "
                "%.1f%% over 40 ms\n",
                q.count, q.p50, q.tail_pct, q.tail,
                100.0 * slow / std::max<size_t>(1, lat.size()));
    std::printf("# first answer: %zu samples, p50 %.4f ms\n", fa.count, fa.p50);
    if (q.tail_pct < 99) {
      std::printf("# too few samples for a p99: raise --seconds\n");
      return 2;
    }
    metrics.push_back({"setup_s", Summarize(setup_s).p50, "s"});
    metrics.push_back({"query_p50_ms", q.p50, "ms"});
    metrics.push_back({"query_p99_ms", q.p99, "ms"});
    metrics.push_back({"first_answer_p50_ms", fa.p50, "ms"});
    metrics.push_back({"sustained_qps", sustained, "1/s"});
    metrics.push_back({"peak_rss_mb", peak_rss_mb, "MB"});
  } else {
    std::vector<Sample> tr;
    for (const Sample& s : measured.samples) {
      if (s.intended_ms >= from && s.trailer_ok) tr.push_back(s);
    }
    std::vector<double> overhead, queue, evalv, lag, untraced_lat;
    uint64_t chunks = 0, tuples = 0, bytes = 0;
    for (const Sample& s : tr) {
      overhead.push_back(s.Latency() - s.total_ms);
      queue.push_back(s.total_ms - s.eval_ms);
      evalv.push_back(s.eval_ms);
      lag.push_back(s.sent_ms - s.intended_ms);
      chunks += s.chunks;
      tuples += s.tuples;
      bytes += s.answer_bytes;
    }
    for (const PhaseResult& r : untraced) {
      for (double x : Latencies(r.samples, r.start_ms + kWarmupMs, latency)) {
        untraced_lat.push_back(x);
      }
    }
    const Summary sq = Summarize(queue);
    const Summary traced_sum = Summarize(Latencies(tr, from, latency));
    const Summary untraced_sum = Summarize(untraced_lat);
    if (sq.tail_pct < 99) {
      std::printf("# service.queue_wait_ms_p99: only %zu samples, p%.4g is "
                  "the highest supported\n",
                  sq.count, sq.tail_pct);
    }

    std::vector<double> build, freeze, artifact, commit;
    for (const PublishSample& p : measured_pubs) {
      build.push_back(p.stats.build_ms);
      freeze.push_back(p.stats.freeze_ms);
      artifact.push_back(p.stats.artifact_ms);
      commit.push_back(p.stats.commit_ms);
    }
    EvalReplay ev = ReplayEval(*w, FactsAtState(*w, StateOfEpoch(tip_epoch, K)));
    const uint64_t lookups =
        (cache1.hits - cache0.hits) + (cache1.misses - cache0.misses);
    const double n = std::max<size_t>(1, tr.size());
    metrics = {
        {"server.overhead_ms_p50", Summarize(overhead).p50, "ms"},
        {"server.requests_per_connection",
         static_cast<double>(measured.samples.size()) /
             std::max<uint64_t>(1, measured.connects + gen.clients()),
         "count"},
        {"server.chunks_per_request", chunks / n, "count"},
        {"server.bytes_per_answer",
         static_cast<double>(bytes) / std::max<uint64_t>(1, tuples), "B"},
        {"service.queue_wait_ms_p50", sq.p50, "ms"},
        {"service.queue_wait_ms_p99", sq.p99, "ms"},
        {"service.eval_ms_p50", Summarize(evalv).p50, "ms"},
        {"cache.hit_ratio",
         lookups ? static_cast<double>(cache1.hits - cache0.hits) / lookups : 0,
         "ratio"},
        {"cache.lookups", static_cast<double>(lookups), "count"},
        {"cache.evictions", static_cast<double>(cache1.evictions - cache0.evictions),
         "count"},
        {"cache.collapsed", static_cast<double>(cache1.collapsed - cache0.collapsed),
         "count"},
        {"cache.invalidations",
         static_cast<double>(cache1.invalidations - cache0.invalidations), "count"},
        {"eval.query_ms_p50", ev.query_ms_p50, "ms"},
        {"eval.nodes", static_cast<double>(ev.totals.nodes), "count"},
        {"eval.arcs", static_cast<double>(ev.totals.arcs), "count"},
        {"eval.expansions", static_cast<double>(ev.totals.expansions), "count"},
        {"eval.em_states", static_cast<double>(ev.totals.em_states), "count"},
        {"eval.iterations", static_cast<double>(ev.totals.iterations), "count"},
        {"eval.fetches", static_cast<double>(ev.totals.fetches), "count"},
        {"eval.memo_hits", static_cast<double>(ev.totals.memo_hits), "count"},
        {"eval.ours_over_counting", ev.counting_ms > 0 ? ev.ours_ms / ev.counting_ms : 0,
         "ratio"},
        {"eval.ours_over_henschen_naqvi", ev.hn_ms > 0 ? ev.ours_ms / ev.hn_ms : 0,
         "ratio"},
        {"eval.prepare_ms", ev.prepare_ms, "ms"},
        {"storage.load_ms", ev.load_ms, "ms"},
        {"storage.freeze_ms", ev.freeze_ms, "ms"},
        {"live.build_ms_p50", Summarize(build).p50, "ms"},
        {"live.freeze_ms_p50", Summarize(freeze).p50, "ms"},
        {"live.artifact_ms_p50", Summarize(artifact).p50, "ms"},
        {"durability.commit_ms_p50", Summarize(commit).p50, "ms"},
        {"durability.publish_ms_p50", pub.p50, "ms"},
        {"durability.publish_ms_p99", pub.p99, "ms"},
        {"durability.log_bytes", static_cast<double>(pub_log_bytes), "B"},
        {"wal_bytes_per_fact",
         static_cast<double>(pub_wal_bytes) / std::max<uint64_t>(1, pub_facts),
         "B"},
        {"durability.recovery_ms", recovery_ms, "ms"},
        {"loadgen.lag_ms_p99", Summarize(lag).p99, "ms"},
        {"trace.overhead_ms_p50", traced_sum.p50 - untraced_sum.p50, "ms"},
    };
    std::printf("# fetches at the Figure 7(b)/(c) requests: ours %llu, "
                "counting %llu, henschen-naqvi %llu; wall ms ours %.3f, "
                "counting %.3f, henschen-naqvi %.3f\n",
                static_cast<unsigned long long>(ev.ours_fetches),
                static_cast<unsigned long long>(ev.counting_fetches),
                static_cast<unsigned long long>(ev.hn_fetches), ev.ours_ms,
                ev.counting_ms, ev.hn_ms);
    std::printf("# tracing overhead: query p50 %.4f ms traced vs %.4f ms "
                "untraced before and after (%zu / %zu samples)\n",
                traced_sum.p50, untraced_sum.p50, traced_sum.count,
                untraced_sum.count);
    std::vector<Span> spans = g_tracer.Take();
    WriteChromeTrace(args.trace_out, spans);
    std::printf("# chrome trace: %s (%zu spans)\n", args.trace_out.c_str(),
                spans.size());
    PrintSelfTimes(spans);
  }

  for (const Metric& m : metrics) {
    std::printf("# %-32s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::string json = "{\"correct\": ";
  json += mismatches == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    json += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
            Num(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return mismatches == 0 ? 0 : 1;
}

}  // namespace
}  // namespace e2e

int main(int argc, char** argv) { return e2e::Main(argc, argv); }

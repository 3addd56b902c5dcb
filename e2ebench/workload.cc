#include "workload.h"

#include <algorithm>
#include <cstdio>
#include <set>
#include <stdexcept>
#include <unordered_map>

#include "baselines/bottom_up.h"
#include "datalog/parser.h"
#include "http_client.h"
#include "storage/database.h"

namespace e2e {
namespace {

// sg is the paper's same-generation program; path is a closure rule over a
// separate base relation, so all-free path queries take the shared-closure
// path and publishes touching `link` invalidate only path answers.
constexpr const char* kRules =
    "sg(X, Y) :- flat(X, Y).\n"
    "sg(X, Y) :- up(X, X1), sg(X1, Y1), down(Y1, Y).\n"
    "path(X, Y) :- link(X, Y).\n"
    "path(X, Z) :- link(X, Y), path(Y, Z).\n";

/// Fixed-width constant names: the seed permutes the labels, never their
/// lengths, so byte counts (WAL bytes, answer bytes) do not move with it.
class Namer {
 public:
  explicit Namer(Rng& rng) : rng_(rng) {
    comp_ids_.resize(1000);
    for (size_t i = 0; i < comp_ids_.size(); ++i) comp_ids_[i] = i;
    Shuffle(comp_ids_);
  }
  /// A fresh component: its node labels are a seeded permutation.
  size_t NewComponent() {
    size_t c = comp_ids_.at(next_comp_++);
    std::vector<size_t> labels(1000);
    for (size_t i = 0; i < labels.size(); ++i) labels[i] = i;
    Shuffle(labels);
    labels_[c] = std::move(labels);
    return c;
  }
  std::string Node(size_t comp, char side, size_t i) const {
    char buf[16];
    std::snprintf(buf, sizeof(buf), "c%03zu%c%03zu", comp, side,
                  labels_.at(comp).at(i));
    return buf;
  }
  template <typename T>
  void Shuffle(std::vector<T>& v) {
    for (size_t i = v.size(); i > 1; --i) std::swap(v[i - 1], v[rng_.Below(i)]);
  }

 private:
  Rng& rng_;
  std::vector<size_t> comp_ids_;
  size_t next_comp_ = 0;
  std::unordered_map<size_t, std::vector<size_t>> labels_;
};

enum class Shape { kFig7b, kFig7c, kFig8, kLink };

struct Component {
  Shape shape;
  size_t id;
  size_t n;      // nodes per side (Figure 7), up-cycle length (Figure 8),
                 // chain length (link)
  size_t m = 0;  // down-cycle length (Figure 8)
};

struct Builder {
  explicit Builder(uint64_t seed) : rng(seed), namer(rng) {}
  Rng rng;
  Namer namer;
  std::vector<Component> comps;
  std::vector<Fact> facts;

  void Add(Shape shape, size_t count, size_t n, size_t m = 0) {
    for (size_t c = 0; c < count; ++c) {
      Component k{shape, namer.NewComponent(), n, m};
      auto A = [&](size_t i) { return namer.Node(k.id, 'a', i); };
      auto B = [&](size_t i) { return namer.Node(k.id, 'b', i); };
      switch (shape) {
        case Shape::kFig7b:  // flat(a_i, b_n): Theta(n^2) nodes
        case Shape::kFig7c:  // flat(a_i, b_i): the ladder
          for (size_t i = 1; i < n; ++i) facts.push_back({"up", A(i), A(i + 1)});
          for (size_t i = 1; i <= n; ++i) {
            facts.push_back({"flat", A(i), shape == Shape::kFig7b ? B(n) : B(i)});
          }
          for (size_t i = 1; i < n; ++i) {
            facts.push_back({"down", B(i + 1), B(i)});
          }
          break;
        case Shape::kFig8:  // up-cycle n, down-cycle m, flat(a_n, b_m)
          for (size_t i = 1; i <= n; ++i) {
            facts.push_back({"up", A(i), A(i % n + 1)});
          }
          for (size_t i = 1; i <= m; ++i) {
            facts.push_back({"down", B(i % m + 1), B(i)});
          }
          facts.push_back({"flat", A(n), B(m)});
          break;
        case Shape::kLink:
          for (size_t i = 1; i < n; ++i) {
            facts.push_back({"link", namer.Node(k.id, 'x', i),
                             namer.Node(k.id, 'x', i + 1)});
          }
          break;
      }
      comps.push_back(k);
    }
  }

  /// The K deltas: each extends a distinct component by fresh nodes. Deltas
  /// 1, 2 and 4 grow a link chain by two edges (path answers change, sg
  /// entries stay cached); delta 3 adds a ladder rung (sg answers change).
  std::vector<std::vector<Fact>> Deltas() {
    std::vector<const Component*> links, ladders;
    for (const Component& c : comps) {
      if (c.shape == Shape::kLink) links.push_back(&c);
      if (c.shape == Shape::kFig7c) ladders.push_back(&c);
    }
    namer.Shuffle(links);
    namer.Shuffle(ladders);
    std::vector<std::vector<Fact>> out;
    for (size_t d = 0; d < 4; ++d) {
      std::vector<Fact> delta;
      if (d == 2) {
        const Component& k = *ladders.at(0);
        std::string a_top = namer.Node(k.id, 'a', k.n);
        std::string b_top = namer.Node(k.id, 'b', k.n);
        std::string a_new = namer.Node(k.id, 'a', k.n + 1);
        std::string b_new = namer.Node(k.id, 'b', k.n + 1);
        delta.push_back({"up", a_top, a_new});
        delta.push_back({"flat", a_new, b_new});
        delta.push_back({"down", b_new, b_top});
      } else {
        const Component& k = *links.at(d);
        delta.push_back({"link", namer.Node(k.id, 'x', k.n),
                         namer.Node(k.id, 'x', k.n + 1)});
        delta.push_back({"link", namer.Node(k.id, 'x', k.n + 1),
                         namer.Node(k.id, 'x', k.n + 2)});
      }
      out.push_back(std::move(delta));
    }
    return out;
  }
};

std::string Body(const Request& r) {
  std::string b = "{\"pred\": \"" + r.pred + "\"";
  if (!r.source.empty()) b += ", \"source\": \"" + r.source + "\"";
  if (!r.target.empty()) b += ", \"target\": \"" + r.target + "\"";
  if (r.diagonal) b += ", \"diagonal\": true";
  if (r.cyclic) b += ", \"options\": {\"use_cyclic_bound\": true}";
  return b + "}";
}

/// Request classes of a workload, in the order the sampler weights them.
struct Keys {
  Workload* w;
  size_t AddClass(double weight) {
    w->class_weight.push_back(weight);
    w->class_keys.emplace_back();
    return w->class_keys.size() - 1;
  }
  void Add(size_t cls, Request r) {
    r.body = Body(r);
    w->class_keys[cls].push_back(w->keys.size());
    w->keys.push_back(std::move(r));
  }
};

/// Bound-source, inverted and path keys of every node of `b`'s components.
void BoundKeys(Builder& b, Keys& keys, size_t bound_cls, size_t inv_cls,
               size_t path_cls, bool fig8_cyclic) {
  for (const Component& k : b.comps) {
    if (k.shape == Shape::kLink) {
      for (size_t i = 1; i <= k.n; ++i) {
        keys.Add(path_cls, {"path", b.namer.Node(k.id, 'x', i), "", false,
                            false, false, ""});
      }
      continue;
    }
    const bool cyclic = k.shape == Shape::kFig8 && fig8_cyclic;
    const size_t down = k.shape == Shape::kFig8 ? k.m : k.n;
    for (size_t i = 1; i <= k.n; ++i) {
      keys.Add(bound_cls, {"sg", b.namer.Node(k.id, 'a', i), "", false, cyclic,
                           k.shape != Shape::kFig8, ""});
    }
    for (size_t i = 1; i <= down; ++i) {
      keys.Add(inv_cls, {"sg", "", b.namer.Node(k.id, 'b', i), false, cyclic,
                         false, ""});
    }
  }
}

void Finish(Workload* w, Builder& b, bool read_only) {
  w->rules = kRules;
  if (!read_only) w->deltas = b.Deltas();
  b.namer.Shuffle(b.facts);  // load order is part of the seeded input
  w->base = std::move(b.facts);
  if (w->zipf_s > 0) {
    w->zipf_order.resize(w->keys.size());
    for (size_t i = 0; i < w->zipf_order.size(); ++i) w->zipf_order[i] = i;
    b.namer.Shuffle(w->zipf_order);
    w->zipf = std::make_unique<Zipf>(w->keys.size(), w->zipf_s);
  }
}

std::unique_ptr<Workload> PaperChain(uint64_t seed) {
  auto w = std::make_unique<Workload>();
  w->name = "paper_chain";
  Builder b(seed);
  b.Add(Shape::kFig7b, 4, 40);
  b.Add(Shape::kFig7c, 4, 64);
  b.Add(Shape::kFig8, 1, 5, 7);
  b.Add(Shape::kFig8, 1, 7, 9);
  b.Add(Shape::kLink, 4, 32);
  Keys keys{w.get()};
  const size_t bound = keys.AddClass(40);
  const size_t inv = keys.AddClass(25);
  const size_t member = keys.AddClass(12);
  const size_t path = keys.AddClass(20);
  const size_t allfree = keys.AddClass(0.5);
  BoundKeys(b, keys, bound, inv, path, /*fig8_cyclic=*/true);
  // Membership: 256 distinct seeded (a_i, b_j) pairs within a component.
  std::vector<const Component*> sg_comps;
  for (const Component& k : b.comps) {
    if (k.shape != Shape::kLink) sg_comps.push_back(&k);
  }
  std::set<std::pair<std::string, std::string>> pairs;
  while (pairs.size() < 256) {
    const Component& k = *sg_comps[b.rng.Below(sg_comps.size())];
    const size_t down = k.shape == Shape::kFig8 ? k.m : k.n;
    std::string a = b.namer.Node(k.id, 'a', 1 + b.rng.Below(k.n));
    std::string t = b.namer.Node(k.id, 'b', 1 + b.rng.Below(down));
    if (!pairs.emplace(a, t).second) continue;
    keys.Add(member, {"sg", a, t, false, k.shape == Shape::kFig8, false, ""});
  }
  // All-free requests are distinct keys: identical ones would collapse.
  keys.Add(allfree, {"sg", "", "", false, true, false, ""});
  keys.Add(allfree, {"sg", "", "", true, true, false, ""});
  keys.Add(allfree, {"path", "", "", false, false, false, ""});
  keys.Add(allfree, {"path", "", "", true, false, false, ""});
  Finish(w.get(), b, /*read_only=*/true);
  return w;
}

std::unique_ptr<Workload> HotKeys(uint64_t seed) {
  auto w = std::make_unique<Workload>();
  w->name = "hot_keys";
  Builder b(seed);
  b.Add(Shape::kFig7c, 256, 6);
  b.Add(Shape::kFig7b, 128, 6);
  b.Add(Shape::kLink, 64, 8);
  Keys keys{w.get()};
  const size_t all = keys.AddClass(1);
  BoundKeys(b, keys, all, all, all, false);
  w->zipf_s = 1.0;
  w->cache_bytes = 64 << 10;
  w->client_qps_limit = 1e6;
  Finish(w.get(), b, /*read_only=*/true);
  return w;
}

std::unique_ptr<Workload> PublishWhileServing(uint64_t seed) {
  auto w = std::make_unique<Workload>();
  w->name = "publish_while_serving";
  Builder b(seed);
  b.Add(Shape::kFig7c, 64, 16);
  b.Add(Shape::kFig7b, 32, 12);
  b.Add(Shape::kLink, 64, 16);
  Keys keys{w.get()};
  const size_t all = keys.AddClass(1);
  BoundKeys(b, keys, all, all, all, false);
  w->zipf_s = 0.9;
  w->cache_bytes = 1 << 20;
  w->seeded_batches = 200;
  Finish(w.get(), b, /*read_only=*/false);
  return w;
}

}  // namespace

size_t Workload::Draw(Rng& rng) const {
  if (zipf) return zipf_order[zipf->Draw(rng)];
  double total = 0;
  for (double x : class_weight) total += x;
  double u = rng.Uniform() * total;
  size_t cls = 0;
  while (cls + 1 < class_weight.size() && u >= class_weight[cls]) {
    u -= class_weight[cls];
    ++cls;
  }
  const std::vector<size_t>& ks = class_keys[cls];
  return ks[rng.Below(ks.size())];
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       uint64_t seed) {
  if (name == "paper_chain") return PaperChain(seed);
  if (name == "hot_keys") return HotKeys(seed);
  if (name == "publish_while_serving") return PublishWhileServing(seed);
  return nullptr;
}

size_t StateOfEpoch(uint64_t epoch, size_t k) {
  if (k == 0) return 0;
  const uint64_t q = epoch % (2 * k);
  return q <= k ? q : 2 * k - q;
}

void PublishOp(uint64_t p, size_t k, size_t* delta, bool* add) {
  const uint64_t pos = (p - 1) % (2 * k);
  *add = pos < k;
  *delta = *add ? pos : 2 * k - 1 - pos;
}

std::vector<Fact> FactsAtState(const Workload& w, size_t s) {
  std::vector<Fact> out = w.base;
  for (size_t d = 0; d < s; ++d) {
    out.insert(out.end(), w.deltas[d].begin(), w.deltas[d].end());
  }
  return out;
}

// ----------------------------------------------------------------- reference

struct Reference::State {
  binchain::Database db;
  struct Index {
    std::vector<std::pair<binchain::SymbolId, binchain::SymbolId>> all;
    std::unordered_map<binchain::SymbolId, std::vector<size_t>> by_src, by_tgt;
  };
  std::map<std::string, Index> preds;
  std::vector<Answer> answers;
  std::vector<bool> have;
};

Reference::Reference(const Workload& w) : w_(w) {}
Reference::~Reference() = default;

const Reference::Answer& Reference::Get(size_t state, size_t key) {
  using namespace binchain;
  std::unique_ptr<State>& st = states_[state];
  if (st == nullptr) {
    st = std::make_unique<State>();
    for (const Fact& f : FactsAtState(w_, state)) {
      st->db.AddFact(f.pred, {f.a, f.b});
    }
    auto program = ParseProgram(w_.rules, st->db.symbols());
    if (!program.ok()) throw std::runtime_error(program.status().message());
    BottomUpStats stats;
    const auto t0 = Clock::now();
    auto idb = SeminaiveFixpoint(program.value(), st->db, {}, &stats);
    if (!idb.ok()) throw std::runtime_error(idb.status().message());
    std::printf("# reference state %zu: seminaive fixpoint %.1f ms, %llu "
                "tuples derived\n",
                state,
                std::chrono::duration<double, std::milli>(Clock::now() - t0)
                    .count(),
                static_cast<unsigned long long>(stats.tuples));
    for (const char* pred : {"sg", "path"}) {
      State::Index& ix = st->preds[pred];
      auto id = st->db.symbols().Find(pred);
      const Relation* rel = id ? idb.value().Find(*id) : nullptr;
      if (rel == nullptr) continue;
      for (const Tuple& t : rel->tuples()) {
        ix.by_src[t[0]].push_back(ix.all.size());
        ix.by_tgt[t[1]].push_back(ix.all.size());
        ix.all.emplace_back(t[0], t[1]);
      }
    }
    st->answers.resize(w_.keys.size());
    st->have.assign(w_.keys.size(), false);
  }
  if (!st->have[key]) {
    const Request& r = w_.keys[key];
    const State::Index& ix = st->preds[r.pred];
    const SymbolTable& sym = st->db.symbols();
    Answer a;
    auto take = [&](size_t row) {
      const auto& [s, t] = ix.all[row];
      ++a.count;
      a.hash += TupleHash(sym.Name(s), sym.Name(t));
    };
    auto src = r.source.empty() ? std::nullopt : sym.Find(r.source);
    auto tgt = r.target.empty() ? std::nullopt : sym.Find(r.target);
    const bool missing = (!r.source.empty() && !src) || (!r.target.empty() && !tgt);
    if (missing) {
      // A constant the state does not know: no answers.
    } else if (src) {
      auto it = ix.by_src.find(*src);
      if (it != ix.by_src.end()) {
        for (size_t row : it->second) {
          if (!tgt || ix.all[row].second == *tgt) take(row);
        }
      }
    } else if (tgt) {
      auto it = ix.by_tgt.find(*tgt);
      if (it != ix.by_tgt.end()) {
        for (size_t row : it->second) take(row);
      }
    } else {
      for (size_t row = 0; row < ix.all.size(); ++row) {
        if (!r.diagonal || ix.all[row].first == ix.all[row].second) take(row);
      }
    }
    st->answers[key] = a;
    st->have[key] = true;
  }
  return st->answers[key];
}

}  // namespace e2e

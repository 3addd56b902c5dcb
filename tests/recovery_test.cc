// Durable epochs: WAL framing, checkpointing, crash recovery, and the
// fault-injection kill-and-replay matrix. Every named fault point the Wal
// honors is armed in turn; the "process" dies (FaultInjectedCrash unwinds,
// the crashed objects are destroyed) and recovery must land on exactly the
// pre-crash committed tip or the post-publish tip — detected torn-tail
// truncation is fine, silent corruption or a mixed state never is.
#include <gtest/gtest.h>
#include <stdlib.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "datalog/parser.h"
#include "durability/recovery.h"
#include "durability/wal.h"
#include "eval/query.h"
#include "live/snapshot_manager.h"
#include "service/query_service.h"
#include "storage/database.h"
#include "util/fault_points.h"
#include "workloads/workloads.h"

namespace binchain {
namespace {

namespace fs = std::filesystem;
using durability::CheckpointData;
using durability::ReadCheckpoint;
using durability::RecoveredSystem;
using durability::RecoveryManager;
using durability::RecoverSnapshotManager;
using durability::ScanLog;
using durability::Wal;
using durability::WalOptions;
using durability::WalRecord;

/// Self-cleaning scratch directory for one WAL scenario.
class TempDir {
 public:
  TempDir() {
    std::string tmpl =
        (fs::temp_directory_path() / "binchain_wal_XXXXXX").string();
    std::vector<char> buf(tmpl.begin(), tmpl.end());
    buf.push_back('\0');
    char* p = mkdtemp(buf.data());
    EXPECT_NE(p, nullptr);
    if (p != nullptr) path_ = p;
  }
  ~TempDir() {
    std::error_code ec;
    if (!path_.empty()) fs::remove_all(path_, ec);
  }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// One staged op of a scenario batch, in the string form the manager takes.
struct Op {
  bool is_delete = false;
  std::string pred;
  std::vector<std::string> args;
};

Op Add(std::string pred, std::vector<std::string> args) {
  return Op{false, std::move(pred), std::move(args)};
}
Op Del(std::string pred, std::vector<std::string> args) {
  return Op{true, std::move(pred), std::move(args)};
}

std::string Key(const std::string& pred, const std::vector<std::string>& args) {
  std::string s = pred + "(";
  for (size_t i = 0; i < args.size(); ++i) {
    if (i > 0) s += ",";
    s += args[i];
  }
  return s + ")";
}

/// The fact-set model: what a sequence of batches leaves behind
/// (last-writer-wins per fact key, exactly the storage semantics).
std::set<std::string> Model(const std::vector<const std::vector<Op>*>& batches) {
  std::set<std::string> state;
  for (const std::vector<Op>* batch : batches) {
    for (const Op& op : *batch) {
      if (op.is_delete) {
        state.erase(Key(op.pred, op.args));
      } else {
        state.insert(Key(op.pred, op.args));
      }
    }
  }
  return state;
}

/// The live contents of a snapshot, rendered by name (symbol ids are not
/// comparable across a recovery — spellings are).
std::set<std::string> TipFacts(const Database& db) {
  std::set<std::string> out;
  for (const std::string& name : db.relation_names()) {
    const Relation* rel = db.Find(name);
    for (TupleRef t : rel->tuples()) {
      std::vector<std::string> args;
      for (SymbolId c : t) args.push_back(db.symbols().Name(c));
      out.insert(Key(name, args));
    }
  }
  return out;
}

/// A durable live deployment: manager + attached Wal, built fresh over
/// `genesis_facts` and sealed (the Sealed hook checkpoints the genesis).
struct DurableRig {
  std::unique_ptr<SnapshotManager> manager;
  std::unique_ptr<Wal> wal;
  DurableRig() = default;
  DurableRig(DurableRig&&) = default;
  DurableRig& operator=(DurableRig&&) = default;
  ~DurableRig() {
    if (manager != nullptr) manager->SetDurabilitySink(nullptr);
  }
};

DurableRig StartFresh(const std::string& dir, const WalOptions& options,
                      const std::vector<Op>& genesis_facts) {
  DurableRig rig;
  auto wal = Wal::Open(dir, options);
  EXPECT_TRUE(wal.ok()) << wal.status().message();
  rig.wal = wal.take();
  auto genesis = std::make_unique<Database>();
  for (const Op& f : genesis_facts) {
    genesis->GetOrCreate(f.pred, f.args.size());
    genesis->AddFact(f.pred, f.args);
  }
  rig.manager = std::make_unique<SnapshotManager>(std::move(genesis));
  rig.manager->SetDurabilitySink(rig.wal.get());
  rig.manager->Seal();
  return rig;
}

void Stage(SnapshotManager* manager, const Op& op) {
  if (op.is_delete) {
    manager->DeleteFact(op.pred, op.args);
  } else {
    manager->AddFact(op.pred, op.args);
  }
}

RecoveredSystem Recover(const std::string& dir, WalOptions options = {}) {
  auto sys = RecoverSnapshotManager(dir, options);
  EXPECT_TRUE(sys.ok()) << sys.status().message();
  return sys.take();
}

// ---------------------------------------------------------------------------
// WAL framing and scan.

TEST(WalTest, AppendScanRoundtrip) {
  TempDir dir;
  {
    auto wal = Wal::Open(dir.path()).take();
    ASSERT_TRUE(wal->StageAdd("edge", {"a", "b"}).ok());
    ASSERT_TRUE(wal->StageDelete("edge", {"a", "b"}).ok());
    ASSERT_TRUE(wal->StageAdd("label", {"a", "red", "solid"}).ok());
    ASSERT_TRUE(wal->Commit(7).ok());
  }
  auto scan = ScanLog(Wal::LogPath(dir.path())).take();
  ASSERT_EQ(scan.records.size(), 4u);
  EXPECT_EQ(scan.records[0].kind, WalRecord::kAdd);
  EXPECT_EQ(scan.records[0].pred, "edge");
  EXPECT_EQ(scan.records[0].args, (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(scan.records[1].kind, WalRecord::kDelete);
  EXPECT_EQ(scan.records[1].pred, "edge");
  EXPECT_EQ(scan.records[2].kind, WalRecord::kAdd);
  EXPECT_EQ(scan.records[2].args,
            (std::vector<std::string>{"a", "red", "solid"}));
  EXPECT_EQ(scan.records[3].kind, WalRecord::kCommit);
  EXPECT_EQ(scan.records[3].epoch, 7u);
  EXPECT_FALSE(scan.torn_tail);
  EXPECT_EQ(scan.good_bytes, scan.file_bytes);
  EXPECT_EQ(scan.committed_bytes, scan.file_bytes);
}

TEST(WalTest, ScanOfMissingLogIsCleanAndEmpty) {
  TempDir dir;
  auto scan = ScanLog(Wal::LogPath(dir.path())).take();
  EXPECT_TRUE(scan.records.empty());
  EXPECT_EQ(scan.file_bytes, 0u);
  EXPECT_FALSE(scan.torn_tail);
}

TEST(WalTest, TornTailAndUncommittedRecordsTruncatedAtLastCommit) {
  TempDir dir;
  {
    auto wal = Wal::Open(dir.path()).take();
    ASSERT_TRUE(wal->StageAdd("e", {"a", "b"}).ok());
    ASSERT_TRUE(wal->Commit(1).ok());
    // Complete but uncommitted: the manager that staged this is "dead".
    ASSERT_TRUE(wal->StageAdd("e", {"b", "c"}).ok());
  }
  {  // A real power cut leaves a short trailing record.
    std::ofstream f(Wal::LogPath(dir.path()),
                    std::ios::binary | std::ios::app);
    f.write("\xde\xad\xbe", 3);
  }
  auto scan = ScanLog(Wal::LogPath(dir.path())).take();
  ASSERT_EQ(scan.records.size(), 3u);
  EXPECT_TRUE(scan.torn_tail);
  EXPECT_LT(scan.committed_bytes, scan.good_bytes);
  EXPECT_LT(scan.good_bytes, scan.file_bytes);

  auto rm = RecoveryManager::Load(dir.path()).take();
  EXPECT_TRUE(rm->stats().tail_truncated);
  EXPECT_EQ(rm->stats().truncated_bytes, scan.file_bytes - scan.committed_bytes);
  EXPECT_EQ(rm->stats().batches_committed, 1u);
  // Load physically normalized the file: a re-scan is clean and fully
  // committed.
  auto rescan = ScanLog(Wal::LogPath(dir.path())).take();
  EXPECT_FALSE(rescan.torn_tail);
  EXPECT_EQ(rescan.file_bytes, scan.committed_bytes);
  EXPECT_EQ(rescan.committed_bytes, rescan.file_bytes);
}

TEST(WalTest, CheckpointRoundtripExcludesDeadRows) {
  TempDir dir;
  DurableRig rig = StartFresh(dir.path(), WalOptions{},
                              {Add("e", {"a", "b"}), Add("e", {"b", "c"})});
  Stage(rig.manager.get(), Add("e", {"c", "d"}));
  Stage(rig.manager.get(), Del("e", {"a", "b"}));
  PublishStats ps = rig.manager->Publish();
  ASSERT_TRUE(ps.status.ok());
  EXPECT_EQ(ps.facts_deleted, 1u);

  auto tip = rig.manager->Acquire();
  ASSERT_TRUE(rig.wal->Checkpoint(*tip).ok());
  EXPECT_FALSE(fs::exists(Wal::CheckpointTmpPath(dir.path())));

  CheckpointData cp = ReadCheckpoint(Wal::CheckpointPath(dir.path())).take();
  EXPECT_EQ(cp.epoch, 1u);
  ASSERT_EQ(cp.relations.size(), 1u);
  EXPECT_EQ(cp.relations[0].name, "e");
  EXPECT_EQ(cp.relations[0].arity, 2u);
  std::set<std::string> rows;
  for (const auto& row : cp.relations[0].rows) rows.insert(Key("e", row));
  // The tombstoned row is gone from the snapshot image.
  EXPECT_EQ(rows, (std::set<std::string>{"e(b,c)", "e(c,d)"}));
  // A checkpoint truncates the log: everything it covers left the log.
  EXPECT_EQ(rig.wal->log_bytes(), 0u);
}

TEST(WalTest, ReadCheckpointReportsNotFoundWhenAbsent) {
  TempDir dir;
  auto cp = ReadCheckpoint(Wal::CheckpointPath(dir.path()));
  ASSERT_FALSE(cp.ok());
  EXPECT_EQ(cp.status().code(), StatusCode::kNotFound);
}

// ---------------------------------------------------------------------------
// Recovery without faults.

TEST(RecoveryTest, FreshDirectoryRecoversToEmptyGenesis) {
  TempDir dir;
  uint64_t first_epoch = 0;
  {
    RecoveredSystem sys = Recover(dir.path());
    EXPECT_FALSE(sys.stats.checkpoint_found);
    EXPECT_EQ(sys.manager->epoch(), 0u);
    EXPECT_TRUE(TipFacts(*sys.manager->Acquire()).empty());
    // The recovered (empty) system accepts durable publishes.
    sys.manager->AddFact("e", {"a", "b"});
    PublishStats ps = sys.manager->Publish();
    ASSERT_TRUE(ps.status.ok());
    first_epoch = ps.epoch;
    EXPECT_EQ(first_epoch, 1u);
  }
  RecoveredSystem again = Recover(dir.path());
  EXPECT_EQ(again.manager->epoch(), first_epoch);
  EXPECT_EQ(TipFacts(*again.manager->Acquire()),
            (std::set<std::string>{"e(a,b)"}));
  EXPECT_EQ(again.stats.batches_replayed, 1u);
}

TEST(RecoveryTest, TombstoneRetractionSurvivesRestart) {
  TempDir dir;
  const std::vector<Op> genesis = {Add("e", {"a", "b"}), Add("e", {"b", "c"})};
  const std::vector<Op> b1 = {Add("e", {"c", "d"}), Del("e", {"a", "b"})};
  // Delete-then-reinsert across batches: the reinserted fact must
  // resurrect through replay, not stay tombstoned.
  const std::vector<Op> b2 = {Del("e", {"b", "c"}), Add("e", {"a", "b"})};
  {
    DurableRig rig = StartFresh(dir.path(), WalOptions{}, genesis);
    for (const Op& op : b1) Stage(rig.manager.get(), op);
    ASSERT_TRUE(rig.manager->Publish().status.ok());
    for (const Op& op : b2) Stage(rig.manager.get(), op);
    ASSERT_TRUE(rig.manager->Publish().status.ok());
  }
  RecoveredSystem sys = Recover(dir.path());
  const std::set<std::string> expected = Model({&genesis, &b1, &b2});
  EXPECT_EQ(TipFacts(*sys.manager->Acquire()), expected);
  EXPECT_EQ(sys.manager->epoch(), 2u);

  // Acceptance: the recovered tombstone-bearing tip equals a cold database
  // holding exactly the surviving facts.
  Database cold;
  cold.GetOrCreate("e", 2);
  for (const Op& f : genesis) cold.AddFact(f.pred, f.args);
  for (const std::vector<Op>* batch : {&b1, &b2}) {
    for (const Op& op : *batch) {
      if (op.is_delete) {
        cold.DeleteFact(op.pred, op.args);
      } else {
        cold.AddFact(op.pred, op.args);
      }
    }
  }
  EXPECT_EQ(TipFacts(*sys.manager->Acquire()), TipFacts(cold));
}

TEST(RecoveryTest, CheckpointThresholdBoundsLogAndReplay) {
  TempDir dir;
  WalOptions options;
  options.checkpoint_log_bytes = 0;  // checkpoint after every publish
  {
    DurableRig rig = StartFresh(dir.path(), options, {Add("e", {"a", "b"})});
    for (int i = 0; i < 4; ++i) {
      Stage(rig.manager.get(), Add("e", {"n" + std::to_string(i),
                                         "n" + std::to_string(i + 1)}));
      ASSERT_TRUE(rig.manager->Publish().status.ok());
    }
    EXPECT_EQ(rig.wal->checkpoints_written(), 5u);  // Sealed + 4 publishes
    EXPECT_EQ(rig.wal->log_bytes(), 0u);
  }
  RecoveredSystem sys = Recover(dir.path(), options);
  EXPECT_TRUE(sys.stats.checkpoint_found);
  EXPECT_EQ(sys.stats.checkpoint_epoch, 4u);
  EXPECT_EQ(sys.stats.batches_replayed, 0u);  // everything checkpointed
  EXPECT_EQ(sys.manager->epoch(), 4u);
  EXPECT_EQ(TipFacts(*sys.manager->Acquire()).size(), 5u);
}

// ---------------------------------------------------------------------------
// The kill-and-replay fault matrix.

/// What recovery must land on after a scenario crashed (or failed) at one
/// armed point. kOld = the last committed pre-crash tip (epoch 1); kNew =
/// the batch-2 tip (epoch 2). The error-shaped points do not crash: the
/// publish itself must unwind cleanly, with the in-scope assertions below.
enum class Expect {
  kOld,
  kNew,
  kCommitRefused,      // fsync failed: publish aborts, no swap, Wal poisoned
  kCheckpointSkipped,  // checkpoint fsync failed: publish fine, log kept
};

struct MatrixCase {
  const char* point;
  Expect expect;
};

TEST(RecoveryTest, FaultMatrixKillAndReplay) {
  // One entry per fault point the Wal honors, in pipeline order. Append and
  // pre-fsync commit crashes lose the uncommitted batch (kOld, by detected
  // truncation of the uncommitted/torn tail). Once the COMMIT record is in
  // the file the batch is recovered (kNew) — the harness treats written
  // bytes as kept, the conservative direction for replay idempotence; a
  // crash *before* the tip swap still recovering forward is fine, because
  // no pre-crash reader is contradicted by serving a newer committed epoch.
  // Checkpoint-phase crashes all recover kNew: the commit was durable
  // first, and the checkpoint is pure log-compaction.
  const std::vector<MatrixCase> cases = {
      {"wal.append.crash_before", Expect::kOld},
      {"wal.append.short_write", Expect::kOld},
      {"wal.append.crash_after", Expect::kOld},
      {"wal.commit.crash_before", Expect::kOld},
      {"wal.commit.short_write", Expect::kOld},
      {"wal.commit.crash_after_write", Expect::kNew},
      {"wal.commit.fsync_fail", Expect::kCommitRefused},
      {"wal.commit.crash_after_fsync", Expect::kNew},
      {"wal.checkpoint.crash_before", Expect::kNew},
      {"wal.checkpoint.short_write", Expect::kNew},
      {"wal.checkpoint.fsync_fail", Expect::kCheckpointSkipped},
      {"wal.checkpoint.crash_before_rename", Expect::kNew},
      {"wal.checkpoint.crash_after_rename", Expect::kNew},
  };
  {  // The table covers exactly the points the Wal honors.
    std::set<std::string> table, honored;
    for (const MatrixCase& c : cases) table.insert(c.point);
    for (const char* name : Wal::FaultPointNames()) honored.insert(name);
    ASSERT_EQ(table, honored);
  }

  const std::vector<Op> genesis = {Add("e", {"a", "b"}), Add("e", {"b", "c"})};
  const std::vector<Op> batch1 = {Add("e", {"c", "d"})};
  const std::vector<Op> batch2 = {Add("e", {"d", "f"}), Del("e", {"a", "b"})};
  const std::set<std::string> old_state = Model({&genesis, &batch1});
  const std::set<std::string> new_state = Model({&genesis, &batch1, &batch2});

  for (const MatrixCase& c : cases) {
    SCOPED_TRACE(c.point);
    TempDir dir;
    WalOptions options;
    const bool checkpoint_point =
        std::string(c.point).rfind("wal.checkpoint.", 0) == 0;
    // Checkpoint points need Published() to actually checkpoint; the rest
    // keep the default threshold so the log carries the whole history.
    options.checkpoint_log_bytes = checkpoint_point ? 0 : (1u << 20);

    bool crashed = false;
    {
      DurableRig rig = StartFresh(dir.path(), options, genesis);
      for (const Op& op : batch1) Stage(rig.manager.get(), op);
      PublishStats p1 = rig.manager->Publish();
      ASSERT_TRUE(p1.status.ok()) << p1.status.message();
      ASSERT_EQ(p1.epoch, 1u);
      ASSERT_EQ(TipFacts(*rig.manager->Acquire()), old_state);

      FaultInjector::Instance().Arm(c.point);
      PublishStats p2;
      bool publish_returned = false;
      try {
        for (const Op& op : batch2) Stage(rig.manager.get(), op);
        p2 = rig.manager->Publish();
        publish_returned = true;
      } catch (const FaultInjectedCrash&) {
        crashed = true;
      }
      FaultInjector::Instance().Disarm();

      switch (c.expect) {
        case Expect::kCommitRefused:
          // No crash: the publish must unwind cleanly with no tip swap,
          // the batch re-queued, and the log poisoned so nothing later
          // pretends to be durable.
          ASSERT_FALSE(crashed);
          ASSERT_TRUE(publish_returned);
          EXPECT_FALSE(p2.status.ok());
          EXPECT_EQ(rig.manager->epoch(), 1u);
          EXPECT_EQ(TipFacts(*rig.manager->Acquire()), old_state);
          EXPECT_EQ(rig.manager->PendingFacts(), batch2.size());
          EXPECT_FALSE(rig.wal->poisoned().ok());
          {  // A retry refuses too: the poison is sticky.
            PublishStats retry = rig.manager->Publish();
            EXPECT_FALSE(retry.status.ok());
            EXPECT_EQ(rig.manager->epoch(), 1u);
          }
          break;
        case Expect::kCheckpointSkipped:
          // No crash, and checkpoint failure must NOT fail the publish —
          // the log remains authoritative and is retried later.
          ASSERT_FALSE(crashed);
          ASSERT_TRUE(publish_returned);
          EXPECT_TRUE(p2.status.ok()) << p2.status.message();
          EXPECT_EQ(rig.manager->epoch(), 2u);
          EXPECT_TRUE(rig.wal->poisoned().ok());
          break;
        case Expect::kOld:
        case Expect::kNew:
          EXPECT_TRUE(crashed);
          break;
      }
      // The rig goes out of scope here: process death.
    }

    RecoveredSystem sys = Recover(dir.path(), options);
    const std::set<std::string> recovered =
        TipFacts(*sys.manager->Acquire());
    switch (c.expect) {
      case Expect::kOld:
        EXPECT_EQ(recovered, old_state);
        EXPECT_EQ(sys.manager->epoch(), 1u);
        break;
      case Expect::kNew:
      case Expect::kCheckpointSkipped:
        EXPECT_EQ(recovered, new_state);
        EXPECT_EQ(sys.manager->epoch(), 2u);
        break;
      case Expect::kCommitRefused:
        // The COMMIT record was written before the failed fsync; the
        // harness treats written-as-kept, so recovery finds a fully
        // committed batch 2. Both outcomes are prefix-consistent (a failed
        // fsync means "durability unknown") — what matters is the crashed
        // process never served epoch 2 while the log was in doubt, and
        // recovery lands on exactly one of the two batch boundaries.
        EXPECT_EQ(recovered, new_state);
        EXPECT_EQ(sys.manager->epoch(), 2u);
        break;
    }
    if (std::string(c.point) == "wal.checkpoint.crash_after_rename") {
      // Crash between checkpoint rename and log truncation: the log still
      // holds batch 2, but the checkpoint already covers it. Replay must
      // skip it, not double-apply.
      EXPECT_TRUE(sys.stats.checkpoint_found);
      EXPECT_EQ(sys.stats.checkpoint_epoch, 2u);
      EXPECT_GE(sys.stats.batches_skipped, 1u);
      EXPECT_EQ(sys.stats.batches_replayed, 0u);
    }

    // Whatever the crash did, the recovered system keeps accepting durable
    // publishes at the next epoch id.
    const uint64_t recovered_epoch = sys.manager->epoch();
    sys.manager->AddFact("e", {"y", "z"});
    PublishStats pr = sys.manager->Publish();
    EXPECT_TRUE(pr.status.ok()) << pr.status.message();
    EXPECT_EQ(pr.epoch, recovered_epoch + 1);
  }
}

TEST(RecoveryTest, MidBatchAppendCrashLosesWholeBatch) {
  // A crash on the *second* staged record of a batch (countdown arming)
  // leaves a committed-record prefix with no COMMIT: recovery must cut the
  // whole staged batch, never apply half of it.
  TempDir dir;
  {
    DurableRig rig = StartFresh(dir.path(), WalOptions{},
                                {Add("e", {"a", "b"})});
    Stage(rig.manager.get(), Add("e", {"b", "c"}));
    ASSERT_TRUE(rig.manager->Publish().status.ok());

    FaultInjector::Instance().Arm("wal.append.crash_after", 2);
    bool crashed = false;
    try {
      Stage(rig.manager.get(), Add("e", {"c", "d"}));
      Stage(rig.manager.get(), Del("e", {"a", "b"}));
      rig.manager->Publish();
    } catch (const FaultInjectedCrash&) {
      crashed = true;
    }
    FaultInjector::Instance().Disarm();
    ASSERT_TRUE(crashed);
  }
  RecoveredSystem sys = Recover(dir.path());
  EXPECT_EQ(TipFacts(*sys.manager->Acquire()),
            (std::set<std::string>{"e(a,b)", "e(b,c)"}));
  EXPECT_EQ(sys.manager->epoch(), 1u);
  EXPECT_TRUE(sys.stats.tail_truncated);
  EXPECT_GT(sys.stats.truncated_bytes, 0u);
}

// ---------------------------------------------------------------------------
// One-publish replay against a batch-by-batch reference.

/// Relation schema of a snapshot: every materialized predicate (emptied
/// ones included) with its arity.
std::map<std::string, size_t> Schema(const Database& db) {
  std::map<std::string, size_t> out;
  for (const std::string& name : db.relation_names()) {
    out[name] = db.Find(name)->arity();
  }
  return out;
}

/// Seeded batch generator: five constants so deletes and re-adds collide
/// often, the genesis predicate `e` plus fresh `f` and `g`, and an
/// occasional wrong-arity op the publish must reject.
class LogGen {
 public:
  explicit LogGen(uint32_t seed) : rng_(seed) {}

  size_t Below(size_t n) { return rng_() % n; }

  std::vector<Op> NextBatch() {
    std::vector<Op> ops;
    const size_t n = Below(7);  // empty batches commit too
    for (size_t i = 0; i < n; ++i) ops.push_back(NextOp());
    return ops;
  }

 private:
  Op NextOp() {
    static const char* const kPreds[] = {"e", "f", "g"};
    static const size_t kArity[] = {2, 1, 3};
    const size_t p = Below(3);
    const size_t arity = Below(8) == 0 ? 1 + Below(3) : kArity[p];
    std::vector<std::string> args;
    for (size_t i = 0; i < arity; ++i) {
      args.push_back("c" + std::to_string(Below(5)));
    }
    return Op{Below(3) == 0, kPreds[p], std::move(args)};
  }

  std::mt19937 rng_;
};

/// Stages and durably publishes one batch: one committed batch in the log.
void PublishBatch(SnapshotManager* manager, const std::vector<Op>& batch) {
  for (const Op& op : batch) Stage(manager, op);
  PublishStats ps = manager->Publish();
  EXPECT_TRUE(ps.status.ok()) << ps.status.message();
}

struct ReferenceTip {
  std::set<std::string> facts;
  std::map<std::string, size_t> schema;
  uint64_t epoch = 0;
  size_t publishes = 0;
};

/// The replay recovery used to run: one Publish() per committed batch above
/// the checkpoint epoch, each landing on its COMMIT's epoch. Reads the
/// directory without normalizing it; uncommitted trailing records are
/// dropped, as recovery drops them.
ReferenceTip BatchByBatchReplay(const std::string& dir) {
  auto genesis = std::make_unique<Database>();
  uint64_t checkpoint_epoch = 0;
  auto cp = ReadCheckpoint(Wal::CheckpointPath(dir));
  if (cp.ok()) {
    CheckpointData data = cp.take();
    checkpoint_epoch = data.epoch;
    for (const auto& rel : data.relations) {
      genesis->GetOrCreate(rel.name, rel.arity);
      for (const auto& row : rel.rows) genesis->AddFact(rel.name, row);
    }
    genesis->SetRecoveredEpoch(checkpoint_epoch);
  } else {
    EXPECT_EQ(cp.status().code(), StatusCode::kNotFound);
  }
  SnapshotManager manager(std::move(genesis));
  manager.Seal();

  ReferenceTip ref;
  std::vector<Op> batch;
  const durability::WalScan scan = ScanLog(Wal::LogPath(dir)).take();
  for (const WalRecord& rec : scan.records) {
    if (rec.kind != WalRecord::kCommit) {
      batch.push_back(Op{rec.kind == WalRecord::kDelete, rec.pred, rec.args});
      continue;
    }
    if (rec.epoch > checkpoint_epoch) {
      for (const Op& op : batch) Stage(&manager, op);
      PublishStats ps = manager.Publish();
      EXPECT_TRUE(ps.status.ok()) << ps.status.message();
      EXPECT_EQ(ps.epoch, rec.epoch);
      ++ref.publishes;
    }
    batch.clear();
  }
  auto tip = manager.Acquire();
  ref.facts = TipFacts(*tip);
  ref.schema = Schema(*tip);
  ref.epoch = tip->epoch();
  return ref;
}

/// Leaves a torn tail behind `wal`: a complete Stage record with no COMMIT.
/// The caller appends garbage bytes once the handle is gone.
void StageUncommitted(Wal* wal) {
  ASSERT_TRUE(wal->StageAdd("e", {"c9", "c9"}).ok());
}

void AppendGarbage(const std::string& dir) {
  std::ofstream f(Wal::LogPath(dir), std::ios::binary | std::ios::app);
  f.write("\xde\xad\xbe", 3);
}

TEST(RecoveryTest, OnePublishReplayMatchesBatchByBatchReplay) {
  // Every log opens with a fixed run that guarantees the interesting
  // shapes, then random batches follow: add -> delete -> re-add of one
  // fact across batches, a fresh predicate, a fresh predicate emptied
  // again, and wrong-arity adds against both genesis and fresh schemas.
  const std::vector<std::vector<Op>> prefix = {
      {Add("f", {"c0"}), Add("e", {"c0", "c2"})},
      {Del("f", {"c0"}), Add("e", {"c0"}), Add("h", {"c1", "c1"})},
      {Add("f", {"c0"}), Add("f", {"c0", "c1"}), Del("h", {"c1", "c1"})},
  };
  const std::vector<Op> genesis = {Add("e", {"c0", "c1"}),
                                   Add("e", {"c1", "c2"})};
  WalOptions options;
  options.checkpoint_log_bytes = 1u << 20;  // only the forced checkpoint

  for (uint32_t seed = 0; seed < 32; ++seed) {
    // Variants by seed: a checkpoint that covers the leading batches (the
    // rename-then-crash window, so Replay must skip them), and a torn tail.
    const bool checkpoint = seed % 2 == 1;
    const bool torn = seed % 4 >= 2;
    SCOPED_TRACE("seed " + std::to_string(seed) +
                 (checkpoint ? " checkpoint" : "") + (torn ? " torn" : ""));
    TempDir dir;
    LogGen gen(seed);
    size_t logged = 0;
    size_t covered = 0;
    {
      DurableRig rig = StartFresh(dir.path(), options, genesis);
      for (const std::vector<Op>& batch : prefix) {
        PublishBatch(rig.manager.get(), batch);
        ++logged;
      }
      for (size_t n = gen.Below(6); n > 0; --n) {
        PublishBatch(rig.manager.get(), gen.NextBatch());
        ++logged;
      }
      if (checkpoint) {
        FaultInjector::Instance().Arm("wal.checkpoint.crash_after_rename");
        EXPECT_THROW(rig.wal->Checkpoint(*rig.manager->Acquire()),
                     FaultInjectedCrash);
        FaultInjector::Instance().Disarm();
        covered = logged;
      } else if (torn) {
        StageUncommitted(rig.wal.get());
      }
    }
    if (checkpoint) {
      // Restart over the un-truncated log and keep publishing, so the log
      // holds covered batches followed by batches Replay must apply.
      RecoveredSystem sys = Recover(dir.path(), options);
      ASSERT_EQ(sys.manager->epoch(), covered);
      for (size_t n = 1 + gen.Below(6); n > 0; --n) {
        PublishBatch(sys.manager.get(), gen.NextBatch());
        ++logged;
      }
      if (torn) StageUncommitted(sys.wal.get());
    }
    if (torn) AppendGarbage(dir.path());

    const ReferenceTip ref = BatchByBatchReplay(dir.path());
    EXPECT_EQ(ref.publishes + covered, logged);
    RecoveredSystem sys = Recover(dir.path(), options);
    auto tip = sys.manager->Acquire();
    EXPECT_EQ(TipFacts(*tip), ref.facts);
    EXPECT_EQ(Schema(*tip), ref.schema);
    EXPECT_EQ(tip->epoch(), ref.epoch);
    EXPECT_EQ(tip->epoch(), logged);
    EXPECT_EQ(sys.stats.batches_replayed, ref.publishes);
    EXPECT_EQ(sys.stats.batches_skipped, covered);
    EXPECT_EQ(sys.stats.tail_truncated, torn);
    // The whole log went through one publish.
    EXPECT_EQ(sys.manager->publish_recorder().Snapshot().size(),
              ref.publishes > 0 ? 1u : 0u);
  }
}

TEST(RecoveryTest, ReplayRefusesEpochGapBeforeStagingAnything) {
  WalOptions options;
  options.checkpoint_log_bytes = 1u << 20;
  for (uint32_t seed = 0; seed < 16; ++seed) {
    // Odd seeds start from a checkpoint at epoch 3, so the gap is measured
    // from the checkpoint epoch rather than from zero.
    const uint64_t base = seed % 2 == 1 ? 3 : 0;
    SCOPED_TRACE("seed " + std::to_string(seed));
    TempDir dir;
    LogGen gen(seed);
    const size_t before_gap = gen.Below(4);
    {
      auto wal = Wal::Open(dir.path(), options).take();
      if (base > 0) {
        Database db;
        db.GetOrCreate("e", 2);
        db.AddFact("e", {"c0", "c1"});
        db.SetRecoveredEpoch(base);
        db.Freeze();
        ASSERT_TRUE(wal->Checkpoint(db).ok());
      }
      auto write_batch = [&](uint64_t epoch) {
        for (const Op& op : gen.NextBatch()) {
          if (op.is_delete) {
            ASSERT_TRUE(wal->StageDelete(op.pred, op.args).ok());
          } else {
            ASSERT_TRUE(wal->StageAdd(op.pred, op.args).ok());
          }
        }
        ASSERT_TRUE(wal->Commit(epoch).ok());
      };
      uint64_t epoch = base;
      for (size_t i = 0; i < before_gap; ++i) write_batch(++epoch);
      epoch += 2;  // skips one epoch id
      write_batch(epoch);
      write_batch(++epoch);
    }
    const std::string expected =
        "recovery: replayed publish landed on epoch " +
        std::to_string(base + before_gap + 1) + ", log committed " +
        std::to_string(base + before_gap + 2);

    auto rm = RecoveryManager::Load(dir.path()).take();
    SnapshotManager manager(rm->BuildGenesis());
    manager.Seal();
    Status st = rm->Replay(&manager);
    EXPECT_EQ(st.code(), StatusCode::kInternal);
    EXPECT_EQ(st.message(), expected);
    // Refused up front: nothing staged, nothing published.
    EXPECT_EQ(manager.epoch(), base);
    EXPECT_EQ(manager.PendingFacts(), 0u);
    EXPECT_EQ(rm->stats().batches_replayed, 0u);

    auto sys = RecoverSnapshotManager(dir.path(), options);
    ASSERT_FALSE(sys.ok());
    EXPECT_EQ(sys.status().message(), expected);
  }
}

// ---------------------------------------------------------------------------
// Query service over a recovered deployment.

std::vector<std::string> Rendered(const std::vector<QueryResponse>& responses,
                                  const Database& db) {
  std::vector<std::string> out;
  for (const QueryResponse& r : responses) {
    for (const Tuple& t : r.tuples) {
      std::string s;
      for (size_t i = 0; i < t.size(); ++i) {
        if (i > 0) s += "|";
        s += db.symbols().Name(t[i]);
      }
      out.push_back(std::move(s));
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

TEST(RecoveryTest, ServiceGatesSubmissionsUntilReplayFinishes) {
  TempDir dir;
  Database workload;
  workloads::Fig7b(workload, 8);

  // Facts of the workload, split genesis / two published deltas.
  std::vector<Op> facts;
  for (const std::string& name : workload.relation_names()) {
    const Relation* rel = workload.Find(name);
    for (TupleRef t : rel->tuples()) {
      std::vector<std::string> args;
      for (SymbolId c : t) args.push_back(workload.symbols().Name(c));
      facts.push_back(Add(name, std::move(args)));
    }
  }
  ASSERT_GE(facts.size(), 6u);
  const size_t genesis_count = facts.size() / 2;
  const size_t mid = genesis_count + (facts.size() - genesis_count) / 2;

  std::vector<QueryRequest> requests;
  for (const std::string& source : {"a1", "a3"}) {
    QueryRequest req;
    req.pred = "sg";
    req.source = source;
    requests.push_back(std::move(req));
  }

  QueryService::Options sopts;
  sopts.num_threads = 2;

  std::vector<std::string> pre_answers;
  uint64_t pre_epoch = 0;
  {  // Phase A: a durable live service, two published batches, then "crash".
    auto wal = Wal::Open(dir.path()).take();
    auto genesis = std::make_unique<Database>();
    for (const Op& f : facts) genesis->GetOrCreate(f.pred, f.args.size());
    for (size_t i = 0; i < genesis_count; ++i) {
      genesis->AddFact(facts[i].pred, facts[i].args);
    }
    Program program =
        ParseProgram(workloads::SgProgramText(), genesis->symbols()).take();
    SnapshotManager manager(std::move(genesis));
    manager.SetDurabilitySink(wal.get());
    QueryService service(&manager, program, sopts);
    ASSERT_TRUE(service.status().ok()) << service.status().message();

    for (size_t i = genesis_count; i < mid; ++i) {
      manager.AddFact(facts[i].pred, facts[i].args);
    }
    ASSERT_TRUE(manager.Publish().status.ok());
    for (size_t i = mid; i < facts.size(); ++i) {
      manager.AddFact(facts[i].pred, facts[i].args);
    }
    ASSERT_TRUE(manager.Publish().status.ok());
    pre_epoch = manager.epoch();

    auto responses = service.EvalBatch(requests);
    for (const QueryResponse& r : responses) ASSERT_TRUE(r.status.ok());
    pre_answers = Rendered(responses, *manager.Acquire());
    EXPECT_FALSE(pre_answers.empty());
    manager.SetDurabilitySink(nullptr);
  }

  // Phase B: recover through the service's gated startup path.
  auto rm = RecoveryManager::Load(dir.path()).take();
  auto genesis = rm->BuildGenesis();
  Program program =
      ParseProgram(workloads::SgProgramText(), genesis->symbols()).take();
  SnapshotManager manager(std::move(genesis));
  QueryService service(&manager, rm.get(), program, sopts);
  ASSERT_TRUE(service.status().ok()) << service.status().message();

  // Gate closed: every submission path answers kUnavailable, never a
  // pre-replay (stale) epoch.
  auto shed = service.EvalBatch(requests);
  ASSERT_EQ(shed.size(), requests.size());
  for (const QueryResponse& r : shed) {
    EXPECT_EQ(r.status.code(), StatusCode::kUnavailable);
    EXPECT_TRUE(r.tuples.empty());
  }
  {
    QueryFuture future = service.Submit(requests[0]);
    QueryResponse r = future.Take();
    EXPECT_EQ(r.status.code(), StatusCode::kUnavailable);
  }

  ASSERT_TRUE(service.FinishRecovery().ok());
  EXPECT_EQ(manager.epoch(), pre_epoch);
  auto responses = service.EvalBatch(requests);
  for (const QueryResponse& r : responses) {
    ASSERT_TRUE(r.status.ok()) << r.status.message();
    EXPECT_EQ(r.epoch, pre_epoch);
  }
  EXPECT_EQ(Rendered(responses, *manager.Acquire()), pre_answers);

  // Post-recovery publishes flow through the service-owned WAL.
  manager.AddFact(facts.front().pred, facts.front().args);
  PublishStats ps = manager.Publish();
  EXPECT_TRUE(ps.status.ok()) << ps.status.message();
  EXPECT_EQ(ps.epoch, pre_epoch + 1);
}

}  // namespace
}  // namespace binchain

#include "durability/recovery.h"

#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "util/check.h"

namespace binchain {
namespace durability {

Result<std::unique_ptr<RecoveryManager>> RecoveryManager::Load(
    const std::string& dir) {
  std::unique_ptr<RecoveryManager> rm(new RecoveryManager(dir));

  // checkpoint.tmp is an in-flight checkpoint the crash interrupted before
  // its atomic rename; it is garbage by definition.
  ::unlink(Wal::CheckpointTmpPath(dir).c_str());

  Result<CheckpointData> ckpt = ReadCheckpoint(Wal::CheckpointPath(dir));
  if (ckpt.ok()) {
    rm->checkpoint_ = ckpt.take();
    rm->stats_.checkpoint_found = true;
    rm->stats_.checkpoint_epoch = rm->checkpoint_.epoch;
    for (const auto& rel : rm->checkpoint_.relations) {
      rm->stats_.checkpoint_facts += rel.rows.size();
    }
  } else if (ckpt.status().code() != StatusCode::kNotFound) {
    return ckpt.status();  // corrupt checkpoint: refuse to guess
  }

  const std::string log_path = Wal::LogPath(dir);
  Result<WalScan> scanned = ScanLog(log_path);
  if (!scanned.ok()) return scanned.status();
  WalScan scan = scanned.take();
  rm->stats_.records_scanned = scan.records.size();

  // Normalize the log to the recovery frontier: everything past the last
  // committed batch — torn bytes or complete-but-uncommitted records — is
  // physically removed so the file and the recovered state agree forever.
  if (scan.file_bytes > scan.committed_bytes) {
    rm->stats_.tail_truncated = true;
    rm->stats_.truncated_bytes = scan.file_bytes - scan.committed_bytes;
    if (::truncate(log_path.c_str(),
                   static_cast<off_t>(scan.committed_bytes)) != 0) {
      return Status::Internal(std::string("recovery: truncate: ") +
                              std::strerror(errno));
    }
  }

  Batch current;
  for (WalRecord& rec : scan.records) {
    if (rec.kind != WalRecord::kCommit) {
      current.ops.push_back(std::move(rec));
      continue;
    }
    current.epoch = rec.epoch;
    ++rm->stats_.batches_committed;
    // The checkpoint-epoch guard closes the rename-then-crash window: a
    // checkpoint that renamed but never truncated leaves its own batches
    // behind in the log, already folded into the checkpoint contents.
    if (rm->stats_.checkpoint_found &&
        current.epoch <= rm->checkpoint_.epoch) {
      ++rm->stats_.batches_skipped;
    } else {
      rm->batches_.push_back(std::move(current));
    }
    current = Batch();
  }
  // Whatever `current` holds now is the complete-but-uncommitted record
  // tail — the very bytes the truncation above removed from the file.
  // Dropped, never replayed: the manager that staged them is gone.
  return rm;
}

std::unique_ptr<Database> RecoveryManager::BuildGenesis() const {
  auto db = std::make_unique<Database>();
  for (const auto& rel : checkpoint_.relations) {
    // Materialize the schema even for emptied relations, so replayed
    // deletes and queries resolve the predicate exactly as pre-crash.
    db->GetOrCreate(rel.name, rel.arity);
    for (const auto& row : rel.rows) {
      bool added = db->AddFact(rel.name, row);
      BINCHAIN_CHECK(added);  // checkpoints hold no duplicates
    }
  }
  db->SetRecoveredEpoch(checkpoint_.epoch);
  return db;
}

Status RecoveryManager::Replay(SnapshotManager* manager) {
  BINCHAIN_CHECK(manager != nullptr);
  BINCHAIN_CHECK(manager->sealed());
  if (batches_.empty()) return Status::Ok();
  // Every committed batch must continue the numbering from the genesis /
  // checkpoint epoch. Checked up front for the whole log, so a gap is
  // refused before anything is staged.
  uint64_t expected = manager->epoch();
  for (const Batch& batch : batches_) {
    if (batch.epoch != ++expected) {
      return Status::Internal(
          "recovery: replayed publish landed on epoch " +
          std::to_string(expected) + ", log committed " +
          std::to_string(batch.epoch));
    }
  }
  // One publish for the whole log: the intermediate epochs are never
  // served (the serving gate stays shut until replay returns), so a delta
  // build, freeze and artifact refresh for each would be wasted. Publish
  // applies staged ops strictly in order on one successor, so adds,
  // deletes and arity-rejected adds end as batch-by-batch publishes would.
  for (Batch& batch : batches_) {
    for (WalRecord& op : batch.ops) {
      if (op.kind == WalRecord::kDelete) {
        manager->DeleteFact(std::move(op.pred), std::move(op.args));
      } else {
        manager->AddFact(std::move(op.pred), std::move(op.args));
      }
    }
  }
  PublishStats stats = manager->PublishImpl(batches_.back().epoch);
  if (!stats.status.ok()) return stats.status;
  stats_.batches_replayed = batches_.size();
  batches_.clear();
  return Status::Ok();
}

Result<std::unique_ptr<Wal>> RecoveryManager::OpenWal(
    WalOptions options) const {
  return Wal::Open(dir_, options);
}

Result<RecoveredSystem> RecoverSnapshotManager(
    const std::string& dir, WalOptions options,
    SnapshotManager::ArtifactBuilder builder) {
  Result<std::unique_ptr<RecoveryManager>> loaded = RecoveryManager::Load(dir);
  if (!loaded.ok()) return loaded.status();
  std::unique_ptr<RecoveryManager> rm = loaded.take();

  RecoveredSystem sys;
  sys.manager = std::make_unique<SnapshotManager>(rm->BuildGenesis());
  if (builder) sys.manager->SetArtifactBuilder(std::move(builder));
  // Seal and replay with no sink attached: these batches are already in
  // the log, and re-appending them would duplicate the history.
  sys.manager->Seal();
  Status st = rm->Replay(sys.manager.get());
  if (!st.ok()) return st;

  Result<std::unique_ptr<Wal>> wal = rm->OpenWal(options);
  if (!wal.ok()) return wal.status();
  sys.wal = wal.take();
  sys.manager->SetDurabilitySink(sys.wal.get());
  sys.stats = rm->stats();
  return sys;
}

}  // namespace durability
}  // namespace binchain

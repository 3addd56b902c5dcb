// Crash recovery for durable epochs: checkpoint + WAL replay.
//
// RecoveryManager::Load reads the on-disk state a crashed process left in
// the WAL directory and normalizes it to the last durable COMMIT: a torn
// trailing record (short header/payload, CRC mismatch) and any complete
// Stage records whose commit never reached stable storage are physically
// truncated away. What remains is the checkpoint plus a sequence of fully
// committed batches — exactly the epochs a pre-crash reader could have
// observed after a publish returned.
//
// Replay then stages every committed batch's ops, in log order, through
// an ordinary SnapshotManager's AddFact / DeleteFact and publishes them
// once, as a single successor stamped with the last COMMIT's epoch id. The
// recovered tip is therefore rebuilt by the production publish pipeline,
// not a parallel code path: same tombstone semantics, same flatten policy,
// same artifact refresh. Publish applies staged ops strictly in order on
// one successor, so the tip equals what batch-by-batch publishes would
// have built; the intermediate epochs are skipped because nobody could
// query them (recovery gates serving until Replay returns). The log's
// batch epochs must be consecutive from the genesis / checkpoint epoch.
// COMMIT records carry the epoch id, which makes replay immune to the
// crash-between-checkpoint-rename-and-log-truncate window: batches at or
// below the checkpoint's epoch are skipped, and re-applied adds/deletes
// are idempotent anyway (last-writer-wins per fact).
//
// The durability sink must NOT be attached while replaying — replayed
// batches are already in the log — and is attached right after, so the
// first post-recovery publish commits at the next epoch id.
#ifndef BINCHAIN_DURABILITY_RECOVERY_H_
#define BINCHAIN_DURABILITY_RECOVERY_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "durability/wal.h"
#include "live/snapshot_manager.h"
#include "storage/database.h"
#include "util/status.h"

namespace binchain {
namespace durability {

struct RecoveryStats {
  bool checkpoint_found = false;
  uint64_t checkpoint_epoch = 0;   // 0 when no checkpoint (fresh dir)
  uint64_t checkpoint_facts = 0;   // live rows restored from the checkpoint
  uint64_t records_scanned = 0;    // well-formed log records
  uint64_t batches_committed = 0;  // committed batches found in the log
  uint64_t batches_skipped = 0;    // of those, at/below the checkpoint epoch
  uint64_t batches_replayed = 0;   // batches Replay() applied (one publish)
  /// True when Load() physically cut the log: a torn trailing record
  /// and/or complete-but-uncommitted Stage records past the last COMMIT.
  bool tail_truncated = false;
  uint64_t truncated_bytes = 0;
};

/// One recovery pass over a WAL directory. Load → BuildGenesis → (seal the
/// manager) → Replay; then open the Wal and attach it as the manager's
/// sink. RecoverSnapshotManager() below bundles those steps.
class RecoveryManager {
 public:
  /// Reads checkpoint + log, truncates past the recovery frontier. After
  /// Load returns, the directory is clean: every byte in the log belongs
  /// to a committed batch. A directory with neither file recovers to an
  /// empty genesis at epoch 0 (fresh start).
  static Result<std::unique_ptr<RecoveryManager>> Load(const std::string& dir);

  /// The recovered base state: an open (unfrozen) database holding the
  /// checkpoint's live facts, stamped with the checkpoint's epoch id so
  /// replayed publishes continue the pre-crash numbering. Call once.
  std::unique_ptr<Database> BuildGenesis() const;

  /// Applies every committed batch above the checkpoint epoch to `manager`
  /// (which must be sealed over BuildGenesis() and must not have a
  /// durability sink attached yet) as one publish landing on the last
  /// COMMIT's epoch. Internal error, with nothing published, if the batch
  /// epochs do not run consecutively from the manager's epoch. Call once.
  Status Replay(SnapshotManager* manager);

  /// Opens the append side over the now-normalized log.
  Result<std::unique_ptr<Wal>> OpenWal(WalOptions options = {}) const;

  const RecoveryStats& stats() const { return stats_; }
  const std::string& dir() const { return dir_; }

 private:
  explicit RecoveryManager(std::string dir) : dir_(std::move(dir)) {}

  struct Batch {
    uint64_t epoch = 0;
    std::vector<WalRecord> ops;
  };

  std::string dir_;
  CheckpointData checkpoint_;
  std::vector<Batch> batches_;
  RecoveryStats stats_;
};

/// Everything a durable live deployment needs, recovered in one call.
struct RecoveredSystem {
  std::unique_ptr<SnapshotManager> manager;  // sealed, tip == recovered tip
  std::unique_ptr<Wal> wal;                  // attached as the manager's sink
  RecoveryStats stats;
};

/// Full recovery pipeline: Load, BuildGenesis, construct + seal a
/// SnapshotManager (with `builder` installed when non-null), Replay, open
/// the Wal, attach it. The returned manager is ready to serve and every
/// further publish is durable.
Result<RecoveredSystem> RecoverSnapshotManager(
    const std::string& dir, WalOptions options = {},
    SnapshotManager::ArtifactBuilder builder = nullptr);

}  // namespace durability
}  // namespace binchain

#endif  // BINCHAIN_DURABILITY_RECOVERY_H_

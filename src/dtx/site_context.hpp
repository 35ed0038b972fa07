// Shared state of one DTX site engine. The Site facade owns exactly one
// SiteContext; the Coordinator worker pool (Alg. 1), the Participant
// executors (Alg. 2) and the dispatcher all operate on it.
//
// Scheduler-state invariant: an uncompleted transaction coordinated here is
// in exactly one of
//   ready      — queued for a coordinator worker,
//   waiting    — held back by a lock conflict (woken by WakeTxn / the
//                retry backstop),
//   executing  — claimed by one coordinator worker for one step,
//   parked     — claimed by a network round it sent (execute, snapshot
//                read, commit or abort) that no worker waits on; the
//                dispatcher queues it on `resumable` when the last reply
//                arrives or the response timeout passes.
// Transitions happen under coord_mutex, which is what makes a *pool* of
// coordinator workers safe: no two workers can claim the same transaction,
// and victim aborts for a claimed (executing or parked) transaction are
// held in deferred_victims until the claim is handed back.
//
// Crash/recovery: the engine components that a crash wipes — DataManager,
// LockManager, PlanCache — live behind owning pointers so Site::restart()
// can rebuild them from the storage backend (rebuild_engine()); everything
// else (stats, txn-id clock, detector) survives the way a monitoring
// sidecar would.
#pragma once

#include <atomic>
#include <cstdlib>
#include <deque>
#include <map>
#include <memory>
#include <set>
#include <string>

#include "dtx/catalog.hpp"
#include "dtx/data_manager.hpp"
#include "dtx/deadlock_detector.hpp"
#include "dtx/lock_manager.hpp"
#include "dtx/snapshot_store.hpp"
#include "net/network.hpp"
#include "query/plan_cache.hpp"
#include "storage/storage.hpp"
#include "txn/transaction.hpp"
#include "util/histogram.hpp"
#include "util/sync.hpp"

namespace dtx::core {

/// Microseconds since the steady-clock epoch — the shared timebase of
/// transaction ids (Site::next_txn_id) and response-time accounting
/// (Coordinator::finish_transaction). One helper so the two can't drift.
inline std::uint64_t steady_now_micros() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

struct SiteOptions {
  SiteId id = 0;
  lock::ProtocolKind protocol = lock::ProtocolKind::kXdgl;
  /// Coordinator (Alg. 1) worker threads pulling resumed and ready
  /// transactions from the shared queues. No worker waits on the network:
  /// a transaction that sent a round is parked until its replies arrive, so
  /// even one worker keeps every local transaction in flight. >1 adds
  /// parallelism for the coordinator's own CPU work (local operations,
  /// lock sets, local snapshot reads).
  std::size_t coordinator_workers = 1;
  /// Participant (Alg. 2) executor threads. Safe at any count: a
  /// transaction sends its next round only after every reply of the last
  /// one arrived, which orders every per-transaction message pair.
  std::size_t participant_workers = 1;
  /// Shards of the site lock table (1 = single-monitor behavior).
  std::size_t lock_shards = 1;
  /// Site plan cache: compiled operations shared across transactions and
  /// workers (participant executes + the coordinator's local path). 0
  /// disables caching — every execution compiles a private plan, the
  /// parse-per-execute baseline of bench/abl_plan_cache.
  std::size_t plan_cache_capacity = 1024;
  /// Independently-locked LRU shards of the plan cache.
  std::size_t plan_cache_shards = 8;
  /// Redo-log checkpoint policy (dtx/wal.hpp): compact a document's log
  /// into a fresh snapshot after this many logged update operations. 1 ≈
  /// the historical snapshot-per-commit durability (the O(document) bench
  /// baseline); 0 disables the op-count trigger.
  std::size_t checkpoint_interval = 64;
  /// ... or after this many appended log bytes (0 disables; both 0 =
  /// never compact, restart replays the whole log).
  std::size_t checkpoint_log_bytes = 1 << 20;
  /// Distributed deadlock detection period (Alg. 4 cadence).
  std::chrono::microseconds detect_period{20'000};
  /// Probe reply collection timeout.
  std::chrono::microseconds detect_reply_timeout{200'000};
  /// Fallback retry interval for waiting transactions (wake messages are
  /// the fast path; this is the lost-wakeup backstop).
  std::chrono::microseconds retry_interval{50'000};
  /// Aborts a transaction whose operations entered wait mode more than
  /// this many times (txn::AbortReason::kLockWaitExhausted) instead of
  /// letting it wait forever. 0 = unlimited (the paper's behavior).
  std::uint32_t max_wait_episodes = 0;
  /// How long the coordinator waits for participant replies / acks before
  /// treating the operation as failed.
  std::chrono::microseconds response_timeout{10'000'000};
  /// Commit fan-out rounds: the first CommitRequest broadcast plus up to
  /// (commit_ack_rounds - 1) resends to sites that have not acked, each
  /// waiting response_timeout. Rides a commit decision through partitions
  /// shorter than the combined window.
  std::uint32_t commit_ack_rounds = 3;
  /// Presumed-abort orphan sweep: a remote transaction holding state here
  /// that has been silent this long gets a TxnStatusRequest to its
  /// coordinator; after orphan_query_limit unanswered probes its effects
  /// are rolled back (undo log) and its locks released. 0 disables the
  /// sweep (the seed behavior: orphans hold locks forever).
  std::chrono::microseconds orphan_txn_timeout{30'000'000};
  /// Unanswered status probes before presuming abort.
  std::uint32_t orphan_query_limit = 3;
  /// MVCC snapshot reads (dtx/snapshot_store.hpp): read-only transactions
  /// are served from versioned document snapshots — zero locks, zero
  /// wait-for entries, no 2PC round. false = the locked baseline (read-only
  /// transactions take the normal Alg. 1 path); the ablation bench flips
  /// this.
  bool snapshot_reads = true;
  /// Per-document version-chain bound: how many committed deltas stay in
  /// memory for advancing cached snapshot trees (0 = unlimited). Targets
  /// that age out fall back to wal::materialize_at.
  std::size_t snapshot_chain_depth = 32;
  /// Byte bound on the total delta text of one document's chain
  /// (0 = unlimited).
  std::size_t snapshot_chain_bytes = 1 << 22;
  /// Mailbox / queue poll granularity.
  std::chrono::microseconds poll_interval{2'000};
  /// Placement policy + replication factor this site uses when it *drives*
  /// a membership change (seeding a join, computing its own departure).
  /// Every member of one cluster must agree on these — the rebalance is
  /// deterministic, but only the driving site computes it.
  placement::PlacementPolicy placement_policy =
      placement::PlacementPolicy::kHashRing;
  /// Replicas per document after a rebalance (0 = full replication).
  std::size_t replication = 0;
};

struct SiteStats {
  std::uint64_t committed = 0;
  std::uint64_t aborted = 0;
  std::uint64_t failed = 0;
  /// Deadlocks this site resolved: victim aborts executed by this
  /// coordinator (distributed cycles) + local-cycle aborts.
  std::uint64_t deadlock_aborts = 0;
  std::uint64_t distributed_cycles_found = 0;
  std::uint64_t wait_episodes = 0;
  std::uint64_t remote_ops_processed = 0;
  /// Crash-recovery accounting: orphaned remote transactions resolved by
  /// the presumed-abort sweep (committed after a status reply / rolled
  /// back), commit-request resends, and completed restarts of this site.
  std::uint64_t orphans_committed = 0;
  std::uint64_t orphans_aborted = 0;
  std::uint64_t commit_resends = 0;
  std::uint64_t restarts = 0;
  /// Aborts the coordinator could not classify (defensive fallback in
  /// finish_transaction; audited to be unreachable — see the regression
  /// test in chaos_test.cpp).
  std::uint64_t unclassified_aborts = 0;
  /// Read-only transactions this coordinator served via the MVCC
  /// snapshot-read path (they also count in `committed`).
  std::uint64_t snapshot_txns = 0;
  /// Placement & membership (src/placement): the installed catalog epoch
  /// (snapshot, not a counter), requests rejected for epoch mismatch or a
  /// still-importing replica, and replica migrations adopted here.
  std::uint64_t catalog_epoch = 0;
  std::uint64_t stale_catalog_aborts = 0;
  std::uint64_t migrations = 0;
  std::uint64_t migrated_bytes = 0;
  LockManagerStats lock_manager;
  /// Site plan-cache counters (hits / misses / evictions / entries).
  query::PlanCacheStats plan_cache;
  /// MVCC snapshot-store counters (views served, chain hits vs
  /// materialize fallbacks, chain memory high-water).
  SnapshotStats snapshots;
  /// Client-observed response time of every transaction coordinated here
  /// (committed and aborted), recorded at completion.
  util::Histogram response_ms;
};

struct SiteContext {
  using Clock = std::chrono::steady_clock;

  SiteContext(SiteOptions opts, net::Network& net, Catalog& cat,
              storage::StorageBackend& backing_store)
      : options(opts),
        network(net),
        mailbox(net.register_site(opts.id)),
        catalog(cat),
        store(backing_store),
        detector(opts.detect_period, opts.detect_reply_timeout) {
    rebuild_engine();
  }

  SiteContext(const SiteContext&) = delete;
  SiteContext& operator=(const SiteContext&) = delete;

  SiteOptions options;
  net::Network& network;
  net::Mailbox& mailbox;
  /// This site's own catalog replica: updated by CatalogUpdate messages
  /// (membership changes), read by every routing / serving decision.
  Catalog& catalog;
  storage::StorageBackend& store;

  /// Wipes and reconstructs the crash-volatile engine components. Only
  /// valid while no worker thread is running (construction, restart). The
  /// SnapshotStore is built first: DataManager::load_all registers every
  /// recovered document into it and persist publishes committed deltas.
  void rebuild_engine() {
    snaps_ = std::make_unique<SnapshotStore>(
        store, options.snapshot_reads, options.snapshot_chain_depth,
        options.snapshot_chain_bytes);
    data_ = std::make_unique<DataManager>(store, options.checkpoint_interval,
                                          options.checkpoint_log_bytes,
                                          snaps_.get());
    locks_ = std::make_unique<LockManager>(options.protocol, *data_,
                                           options.lock_shards);
    plans_ = std::make_unique<query::PlanCache>(options.plan_cache_capacity,
                                                options.plan_cache_shards);
  }

  [[nodiscard]] DataManager& data() noexcept { return *data_; }
  [[nodiscard]] LockManager& locks() noexcept { return *locks_; }
  [[nodiscard]] query::PlanCache& plans() noexcept { return *plans_; }
  [[nodiscard]] SnapshotStore& snaps() noexcept { return *snaps_; }

  DeadlockDetector detector;

  std::atomic<bool> running{false};

  // --- scheduler state (coord_mutex) -----------------------------------------
  mutable sync::Mutex coord_mutex{sync::LockRank::kSiteCoordinator};
  sync::CondVar coord_cv;
  std::deque<std::shared_ptr<txn::Transaction>> ready
      DTX_GUARDED_BY(coord_mutex);
  std::map<lock::TxnId, std::shared_ptr<txn::Transaction>> transactions
      DTX_GUARDED_BY(coord_mutex);
  std::map<lock::TxnId, Clock::time_point> waiting
      DTX_GUARDED_BY(coord_mutex);
  std::set<lock::TxnId> pending_wakes DTX_GUARDED_BY(coord_mutex);
  std::deque<lock::TxnId> victim_aborts DTX_GUARDED_BY(coord_mutex);
  /// Transactions a coordinator worker is running a step of.
  std::set<lock::TxnId> executing DTX_GUARDED_BY(coord_mutex);
  /// A network round a parked transaction waits on: the step that resumes
  /// it and when the round times out.
  struct ParkedRound {
    enum class Kind { kExecute, kSnapshot, kCommit, kAbort };
    Kind kind = Kind::kExecute;
    std::shared_ptr<txn::Transaction> txn;
    std::uint32_t op_index = 0;      ///< kExecute: the operation sent
    std::uint32_t commit_round = 0;  ///< kCommit: resends so far
    Clock::time_point deadline{};
    bool queued = false;  ///< already on `resumable`
  };
  std::map<lock::TxnId, ParkedRound> parked DTX_GUARDED_BY(coord_mutex);
  /// Parked transactions whose round completed or timed out, in the order
  /// they became resumable. Workers take these before `ready`.
  std::deque<lock::TxnId> resumable DTX_GUARDED_BY(coord_mutex);
  /// Victim aborts held back because the transaction was claimed.
  std::set<lock::TxnId> deferred_victims DTX_GUARDED_BY(coord_mutex);
  std::uint64_t last_begin_micros DTX_GUARDED_BY(coord_mutex) = 0;

  /// Recent terminal outcomes of transactions coordinated here, answering
  /// presumed-abort status probes (TxnStatusRequest) from participants that
  /// lost contact mid-transaction. Bounded FIFO. Only *commit* decisions
  /// are durable (the presumed-abort commit log below); everything else
  /// dies with a crash, which absence-reads as aborted — the contract.
  std::map<lock::TxnId, bool> recent_outcomes
      DTX_GUARDED_BY(coord_mutex);  // txn -> committed
  std::deque<lock::TxnId> outcome_fifo DTX_GUARDED_BY(coord_mutex);
  static constexpr std::size_t kOutcomeCacheCapacity = 8192;

  void record_outcome(lock::TxnId txn, bool committed_outcome)
      DTX_REQUIRES(coord_mutex) {
    if (recent_outcomes.emplace(txn, committed_outcome).second) {
      outcome_fifo.push_back(txn);
      while (outcome_fifo.size() > kOutcomeCacheCapacity) {
        recent_outcomes.erase(outcome_fifo.front());
        outcome_fifo.pop_front();
      }
    }
  }

  /// Presumed-abort commit log: storage key holding one line per committed
  /// distributed transaction. The coordinator appends *before* the first
  /// CommitRequest leaves — without this, a coordinator crash inside the
  /// commit fan-out would answer later status probes kUnknown and a replica
  /// that already persisted would diverge from one that presumed abort.
  static constexpr const char* kCommitLogKey = "~outcomes";

  /// Durable catalog record: the text form of the newest installed epoch
  /// (CatalogEpoch::to_text), written at every install. A restarting site
  /// resumes under the epoch it had accepted — a kill -9 mid-migration
  /// cannot roll the membership view back to a pre-flip generation.
  static constexpr const char* kCatalogKey = "~catalog";

  /// Durably records a commit decision — one appended line, O(1) in the
  /// log size.
  util::Status append_commit_record(lock::TxnId txn)
      DTX_REQUIRES(coord_mutex) {
    std::string line = std::to_string(txn);
    line += '\n';
    return store.append(kCommitLogKey, line);
  }

  /// Reloads the commit log into the outcome cache (restart, before the
  /// worker threads spawn — the mutex is uncontended and taken only for
  /// the annotations' sake). Only the newest kOutcomeCacheCapacity records
  /// survive the FIFO, matching what the cache would have held; older
  /// orphans read kUnknown = presumed abort.
  void load_commit_log() {
    auto text = store.load(kCommitLogKey);
    if (!text) return;
    sync::MutexLock lock(coord_mutex);
    const std::string& log = text.value();
    std::size_t begin = 0;
    while (begin < log.size()) {
      const std::size_t end = log.find('\n', begin);
      if (end == std::string::npos) break;
      const lock::TxnId txn = std::strtoull(log.c_str() + begin, nullptr, 10);
      if (txn != 0) record_outcome(txn, /*committed=*/true);
      begin = end + 1;
    }
  }

  // --- participant work queue (part_mutex) -----------------------------------
  sync::Mutex part_mutex{sync::LockRank::kSiteParticipant};
  sync::CondVar part_cv;
  std::deque<net::Message> participant_queue DTX_GUARDED_BY(part_mutex);
  /// Transactions a participant worker is currently serving. Workers skip
  /// queued messages of active transactions, so per-transaction requests
  /// are processed serially and in arrival order even with a pool —
  /// without this, a stale UndoOperation could undo a newer attempt, or an
  /// AbortRequest could release locks while an ExecuteOperation of the
  /// same transaction is still acquiring them (leaking locks forever).
  std::set<lock::TxnId> participant_active DTX_GUARDED_BY(part_mutex);

  /// Participant-side record of every remote transaction with state at
  /// this site: who coordinates it, when it was last heard from (the
  /// presumed-abort sweep input), how many status probes went unanswered,
  /// and the last reply per operation so duplicated ExecuteOperations are
  /// answered from cache instead of re-executing (exactly-once effects
  /// under at-least-once delivery).
  struct RemoteTxn {
    SiteId coordinator = 0;
    Clock::time_point last_seen{};
    std::uint32_t unanswered_probes = 0;
    /// Catalog epoch the transaction was routed under (its first
    /// ExecuteOperation here) — the catalog drain (CatalogAck) waits until
    /// no remote transaction of an older epoch still has state at this site.
    std::uint64_t epoch = 0;
    std::map<std::uint32_t, net::OperationResult> last_replies;
  };
  std::map<lock::TxnId, RemoteTxn> remote_txns DTX_GUARDED_BY(part_mutex);

  /// Importing fence: documents this site hosts
  /// under the current epoch but whose replica has not been adopted yet
  /// (awaiting MigrateDoc / a recovery pull). Participant executes,
  /// snapshot serving and the coordinator's local path reject fenced
  /// documents with the retryable kStaleCatalog until adoption unfences.
  std::set<std::string> importing_docs DTX_GUARDED_BY(part_mutex);

  [[nodiscard]] bool is_importing(const std::string& doc) {
    sync::MutexLock lock(part_mutex);
    return importing_docs.count(doc) != 0;
  }

  // --- round reply collection (resp_mutex, ack_mutex) -------------------------
  // One slot per parked round, filled by the dispatcher. A round is
  // complete once `expected` sites answered; the dispatcher then resumes
  // the transaction (after releasing the slot mutex: coord_mutex ranks
  // first).
  struct ResponseSlot {
    std::uint32_t attempt = 0;
    std::size_t expected = 0;
    std::map<SiteId, net::OperationResult> replies;
    [[nodiscard]] bool complete() const { return replies.size() >= expected; }
  };
  sync::Mutex resp_mutex{sync::LockRank::kSiteResponses};
  std::map<std::pair<lock::TxnId, std::uint32_t>, ResponseSlot> responses
      DTX_GUARDED_BY(resp_mutex);
  /// Snapshot-read reply collection (also resp_mutex): one slot per
  /// in-flight read-only transaction, holding each serving site's
  /// SnapshotReadReply (the coordinator files its own local one too).
  struct SnapshotSlot {
    /// Serving site -> first operation index of its group (the operation
    /// a timeout is charged to).
    std::map<SiteId, std::uint32_t> expected;
    std::map<SiteId, net::SnapshotReadReply> replies;
    [[nodiscard]] bool complete() const {
      return replies.size() >= expected.size();
    }
  };
  std::map<lock::TxnId, SnapshotSlot> snapshot_replies
      DTX_GUARDED_BY(resp_mutex);

  /// Commit / abort ack collection. Commit resend rounds share one slot,
  /// so acks accumulate across rounds.
  struct AckSlot {
    std::size_t expected = 0;
    std::map<SiteId, bool> acks;
    [[nodiscard]] bool complete() const { return acks.size() >= expected; }
  };
  sync::Mutex ack_mutex{sync::LockRank::kSiteAcks};
  std::map<lock::TxnId, AckSlot> acks DTX_GUARDED_BY(ack_mutex);

  // --- stats (stats_mutex) ----------------------------------------------------
  mutable sync::Mutex stats_mutex{sync::LockRank::kSiteStats};
  SiteStats stats DTX_GUARDED_BY(stats_mutex);

  // --- messaging helpers ------------------------------------------------------
  void send(SiteId to, net::Payload payload) {
    network.send(net::Message{options.id, to, std::move(payload)});
  }

  void send_wakes(const std::vector<WakeNotice>& wakes) {
    for (const WakeNotice& wake : wakes) {
      send(wake.coordinator, net::WakeTxn{wake.waiter});
    }
  }

  // --- parked-round wake-ups --------------------------------------------------
  /// Dispatcher: a reply completed the round `txn` is parked on; queue it
  /// for a worker. A no-op if it is not parked yet (the park step sees the
  /// complete slot itself) or is queued already (the deadline fired too).
  void round_completed(lock::TxnId txn) DTX_EXCLUDES(coord_mutex) {
    {
      sync::MutexLock lock(coord_mutex);
      const auto it = parked.find(txn);
      if (it == parked.end() || it->second.queued) return;
      it->second.queued = true;
      resumable.push_back(txn);
    }
    coord_cv.notify_all();
  }

  /// Dispatcher cadence: queues every parked round whose response timeout
  /// passed; the resumed step treats the missing replies as a timeout.
  void expire_rounds(Clock::time_point now) DTX_EXCLUDES(coord_mutex) {
    bool queued = false;
    {
      sync::MutexLock lock(coord_mutex);
      for (auto& [id, round] : parked) {
        if (round.queued || now < round.deadline) continue;
        round.queued = true;
        resumable.push_back(id);
        queued = true;
      }
    }
    if (queued) coord_cv.notify_all();
  }

 private:
  std::unique_ptr<SnapshotStore> snaps_;
  std::unique_ptr<DataManager> data_;
  std::unique_ptr<LockManager> locks_;
  std::unique_ptr<query::PlanCache> plans_;
};

}  // namespace dtx::core

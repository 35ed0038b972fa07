// Coordinator (paper Alg. 1): the scheduler of locally-submitted
// transactions, run by a pool of `SiteOptions::coordinator_workers` threads
// over one shared Coordinator. A worker runs one step of one transaction at
// a time (the `executing` claim in SiteContext): an operation, a snapshot
// read, a commit or an abort. A step that sends a network round — the
// Alg. 1 execute fan-out, a remote snapshot read, or the Alg. 5/6 commit
// and abort broadcasts — ends by parking the transaction instead of
// waiting for the replies, and the worker goes back to the queues. When the
// dispatcher files the round's last reply (or the response timeout passes)
// the transaction becomes resumable and the next free worker runs the rest
// of the step. No worker ever waits on the network, so one slow round
// delays only its own transaction.
#pragma once

#include <map>
#include <memory>
#include <set>

#include "dtx/site_context.hpp"

namespace dtx::core {

class Coordinator {
 public:
  explicit Coordinator(SiteContext& ctx) : ctx_(ctx) {}

  Coordinator(const Coordinator&) = delete;
  Coordinator& operator=(const Coordinator&) = delete;

  /// Worker body. Any number of threads may run it concurrently; every
  /// shared-state transition goes through ctx_.coord_mutex.
  void run();

 private:
  using Clock = SiteContext::Clock;
  using TransactionPtr = std::shared_ptr<txn::Transaction>;

  /// Drains victim aborts (Alg. 4 hands them to the scheduler). Victims
  /// that are claimed (executing or parked) are held in deferred_victims.
  /// Unlocks / relocks `lock` around each abort (coord_mutex is held again
  /// on return, which is all the REQUIRES clause promises).
  void process_victims(sync::UniqueLock& lock)
      DTX_REQUIRES(ctx_.coord_mutex);

  /// Lost-wakeup backstop: re-readies waiting transactions whose retry
  /// interval elapsed.
  void retry_overdue_waiters() DTX_REQUIRES(ctx_.coord_mutex);

  void execute_one_operation(const TransactionPtr& txn);

  /// MVCC fast path for read-only transactions: every operation is a
  /// query, so the whole transaction executes in one round against
  /// versioned snapshots — zero locks, zero wait-for entries, no 2PC
  /// (nothing was written anywhere, so commit is trivial and abort
  /// requires no remote cleanup). See dtx/snapshot_store.hpp.
  void execute_snapshot(const TransactionPtr& txn);

  void execute_local(const TransactionPtr& txn, std::size_t op_index);
  void execute_remote(const TransactionPtr& txn, std::size_t op_index,
                      const std::vector<SiteId>& sites);
  void commit_transaction(const TransactionPtr& txn);
  void abort_transaction(const TransactionPtr& txn, bool deadlock_victim);
  /// Retryable abort because the catalog moved under the transaction (or a
  /// replica it needs is still importing); counts stale_catalog_aborts.
  void abort_stale_catalog(const TransactionPtr& txn);
  void fail_transaction(const TransactionPtr& txn);
  void finish_transaction(const TransactionPtr& txn, txn::TxnState state);

  /// Hands the worker's claim back, parking the transaction as waiting. A
  /// pending wake re-readies it instead; a deferred victim abort runs now.
  void enter_wait(const TransactionPtr& txn);

  /// Hands the worker's claim back, re-queueing the transaction. A deferred
  /// victim abort runs now instead.
  void requeue(const TransactionPtr& txn);

  /// The one claim-handback sequence both of the above go through: consume
  /// a deferred victim abort (claim retained, abort runs), else release the
  /// claim and wait (`to_waiting`, unless a wake overtook us) or re-queue.
  void hand_back_claim(const TransactionPtr& txn, bool to_waiting);

  /// Ends a step that sent a network round: the worker's claim passes to
  /// the round. If every reply already arrived the transaction is queued
  /// for resumption at once (checked under coord_mutex, so no wake-up from
  /// the dispatcher can be lost in between).
  void park(SiteContext::ParkedRound round);

  /// True when the round's reply slot holds every expected reply.
  bool round_complete(lock::TxnId txn, const SiteContext::ParkedRound& round)
      DTX_REQUIRES(ctx_.coord_mutex);

  /// Runs the rest of the step a parked round belongs to.
  void resume(const SiteContext::ParkedRound& round);

  /// The second halves of the steps that park: they read (and drop) the
  /// round's reply slot; missing replies mean the round timed out.
  void complete_remote(const TransactionPtr& txn, std::uint32_t op_index);
  void complete_snapshot(const TransactionPtr& txn,
                         SiteContext::SnapshotSlot slot);
  void complete_commit_round(const TransactionPtr& txn,
                             std::uint32_t commit_round);
  void complete_abort(const TransactionPtr& txn);

  /// Alg. 6 l. 13-14: undo and release locally, then finish as aborted.
  void abort_locally(const TransactionPtr& txn);

  /// Sends one CommitRequest round to `sites` and parks on the acks.
  void send_commit_round(const TransactionPtr& txn,
                         const std::set<SiteId>& sites,
                         std::uint32_t commit_round);

  SiteContext& ctx_;
};

}  // namespace dtx::core

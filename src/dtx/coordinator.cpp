#include "dtx/coordinator.hpp"

#include <algorithm>
#include <chrono>
#include <optional>

#include "dtx/snapshot_read.hpp"
#include "util/log.hpp"

namespace dtx::core {

using lock::TxnId;
using txn::Transaction;
using txn::TxnState;

namespace {

void drop_from_ready(std::deque<std::shared_ptr<Transaction>>& ready,
                     const std::shared_ptr<Transaction>& txn) {
  ready.erase(std::remove(ready.begin(), ready.end(), txn), ready.end());
}

}  // namespace

void Coordinator::run() {
  while (ctx_.running.load()) {
    TransactionPtr next;
    std::optional<SiteContext::ParkedRound> resumed;
    {
      sync::UniqueLock lock(ctx_.coord_mutex);
      ctx_.coord_cv.wait_for(ctx_.coord_mutex, ctx_.options.poll_interval, [&] {
        return !ctx_.running.load() || !ctx_.resumable.empty() ||
               !ctx_.ready.empty() || !ctx_.victim_aborts.empty();
      });
      if (!ctx_.running.load()) return;

      // Victim aborts first (Alg. 4 hands them to the scheduler).
      process_victims(lock);
      retry_overdue_waiters();

      // Resumed rounds before new work: they hold locks the queue behind
      // them may need.
      if (!ctx_.resumable.empty()) {
        const TxnId id = ctx_.resumable.front();
        ctx_.resumable.pop_front();
        const auto it = ctx_.parked.find(id);
        if (it == ctx_.parked.end()) continue;
        resumed = std::move(it->second);
        ctx_.parked.erase(it);
        ctx_.executing.insert(id);
      } else {
        if (ctx_.ready.empty()) continue;
        next = ctx_.ready.front();
        ctx_.ready.pop_front();
        if (next->completed() || next->state() != TxnState::kActive) continue;
        ctx_.executing.insert(next->id());
      }
    }
    if (resumed.has_value()) {
      resume(*resumed);
    } else if (ctx_.options.snapshot_reads && next->read_only()) {
      execute_snapshot(next);
    } else {
      execute_one_operation(next);
    }
  }
}

void Coordinator::process_victims(sync::UniqueLock& lock) {
  while (!ctx_.victim_aborts.empty()) {
    const TxnId victim = ctx_.victim_aborts.front();
    ctx_.victim_aborts.pop_front();
    const auto it = ctx_.transactions.find(victim);
    if (it == ctx_.transactions.end() || it->second->completed()) continue;
    if (ctx_.executing.count(victim) != 0 || ctx_.parked.count(victim) != 0) {
      // A worker or a network round holds the victim's claim: defer the
      // abort; it runs the moment the claim is handed back.
      ctx_.deferred_victims.insert(victim);
      continue;
    }
    TransactionPtr txn = it->second;
    ctx_.waiting.erase(victim);
    drop_from_ready(ctx_.ready, txn);
    ctx_.executing.insert(victim);  // claim for the duration of the abort
    lock.unlock();
    abort_transaction(txn, /*deadlock_victim=*/true);
    lock.lock();
  }
}

void Coordinator::retry_overdue_waiters() {
  const auto now = Clock::now();
  for (auto it = ctx_.waiting.begin(); it != ctx_.waiting.end();) {
    const auto txn_it = ctx_.transactions.find(it->first);
    if (txn_it == ctx_.transactions.end()) {
      it = ctx_.waiting.erase(it);
      continue;
    }
    if (now - it->second >= ctx_.options.retry_interval) {
      txn_it->second->set_state(TxnState::kActive);
      ctx_.ready.push_back(txn_it->second);
      it = ctx_.waiting.erase(it);
    } else {
      ++it;
    }
  }
}

void Coordinator::execute_one_operation(const TransactionPtr& txn) {
  const std::size_t op_index = txn->next_operation();
  if (op_index == txn->op_count()) {
    // Alg. 1 l. 24-26: no operation left -> commit.
    commit_transaction(txn);
    return;
  }
  // Pin the catalog for this routing decision. The transaction was stamped
  // with the epoch current at submit; if the catalog moved since, its
  // earlier operations executed at old-epoch replicas — abort retryably
  // (kStaleCatalog) so the client resubmits routed under the new epoch.
  // This is also what makes the membership drain fast: no old-epoch
  // transaction starts new work after the flip.
  const Catalog::View view = ctx_.catalog.view();
  if (view->epoch != txn->catalog_epoch()) {
    abort_stale_catalog(txn);
    return;
  }
  const txn::Operation& op = txn->ops()[op_index];
  const std::vector<SiteId>& sites = view->sites_of(op.doc);
  if (sites.empty()) {
    txn->state_of(op_index).failed = true;
    txn->state_of(op_index).reason = txn::AbortReason::kParseError;
    txn->state_of(op_index).error =
        "document '" + op.doc + "' is not in the catalog";
    txn->set_abort_reason(txn::AbortReason::kParseError);
    abort_transaction(txn, false);
    return;
  }
  if (sites.size() == 1 && sites.front() == ctx_.options.id) {
    if (ctx_.is_importing(op.doc)) {
      // This replica is still being migrated in; the data is not here yet.
      abort_stale_catalog(txn);
      return;
    }
    execute_local(txn, op_index);
  } else {
    execute_remote(txn, op_index, sites);
  }
}

void Coordinator::abort_stale_catalog(const TransactionPtr& txn) {
  txn->set_abort_reason(txn::AbortReason::kStaleCatalog);
  {
    sync::MutexLock lock(ctx_.stats_mutex);
    ++ctx_.stats.stale_catalog_aborts;
  }
  abort_transaction(txn, false);
}

void Coordinator::execute_snapshot(const TransactionPtr& txn) {
  // The snapshot path never touches the LockManager and never populates
  // txn->sites(), so every exit is a bare finish_transaction: there are no
  // locks to release, no undo logs, no abort fan-out, no durable outcome
  // record needed (nothing a crash could leave half-applied).
  //
  // Operations are grouped per serving site — the local site whenever it
  // hosts the document, else the lowest-id replica — and each site
  // evaluates its whole group against one consistent cut, so a
  // transaction's view is consistent per serving site (the per-replica
  // version semantics of dtx/wal.hpp; cross-site cuts are independent).
  const Catalog::View view = ctx_.catalog.view();
  if (view->epoch != txn->catalog_epoch()) {
    // Snapshot reads hold no locks; a bare stale-catalog finish suffices.
    txn->set_abort_reason(txn::AbortReason::kStaleCatalog);
    {
      sync::MutexLock lock(ctx_.stats_mutex);
      ++ctx_.stats.stale_catalog_aborts;
    }
    finish_transaction(txn, TxnState::kAborted);
    return;
  }
  std::map<SiteId, net::SnapshotReadRequest> groups;
  for (std::size_t i = 0; i < txn->op_count(); ++i) {
    const txn::Operation& op = txn->ops()[i];
    txn::OperationState& state = txn->state_of(i);
    ++state.attempts;
    const std::vector<SiteId>& sites = view->sites_of(op.doc);
    if (sites.empty()) {
      state.failed = true;
      state.reason = txn::AbortReason::kParseError;
      state.error = "document '" + op.doc + "' is not in the catalog";
      txn->set_abort_reason(txn::AbortReason::kParseError);
      finish_transaction(txn, TxnState::kAborted);
      return;
    }
    const bool local =
        std::find(sites.begin(), sites.end(), ctx_.options.id) != sites.end();
    net::SnapshotReadRequest& request =
        groups[local ? ctx_.options.id : sites.front()];
    request.txn = txn->id();
    request.coordinator = ctx_.options.id;
    request.epoch = view->epoch;
    request.op_indices.push_back(static_cast<std::uint32_t>(i));
    request.ops.push_back(op);
  }

  const auto local_group = groups.find(ctx_.options.id);
  if (groups.size() == 1 && local_group != groups.end()) {
    // Every document is hosted here: no round to park on.
    SiteContext::SnapshotSlot slot;
    slot.replies[ctx_.options.id] = serve_snapshot_read(
        ctx_, txn->id(), view->epoch, local_group->second.op_indices,
        local_group->second.ops);
    complete_snapshot(txn, std::move(slot));
    return;
  }
  {
    sync::MutexLock lock(ctx_.resp_mutex);
    SiteContext::SnapshotSlot& slot = ctx_.snapshot_replies[txn->id()];
    for (const auto& [site, request] : groups) {
      slot.expected[site] = request.op_indices.front();
    }
  }
  for (const auto& [site, request] : groups) {
    if (site != ctx_.options.id) ctx_.send(site, request);
  }
  // Serve the local group inline while remote sites work in parallel; its
  // reply completes the round like any other.
  if (local_group != groups.end()) {
    net::SnapshotReadReply reply = serve_snapshot_read(
        ctx_, txn->id(), view->epoch, local_group->second.op_indices,
        local_group->second.ops);
    sync::MutexLock lock(ctx_.resp_mutex);
    ctx_.snapshot_replies[txn->id()].replies[ctx_.options.id] =
        std::move(reply);
  }
  SiteContext::ParkedRound round;
  round.kind = SiteContext::ParkedRound::Kind::kSnapshot;
  round.txn = txn;
  park(std::move(round));
}

void Coordinator::complete_snapshot(const TransactionPtr& txn,
                                    SiteContext::SnapshotSlot slot) {
  for (const auto& [site, op_index] : slot.expected) {
    if (slot.replies.count(site) != 0) continue;
    txn->set_abort_reason(txn::AbortReason::kSiteFailure);
    txn::OperationState& state = txn->state_of(op_index);
    state.failed = true;
    state.reason = txn::AbortReason::kSiteFailure;
    state.error = "snapshot-read timeout (site " + std::to_string(site) + ")";
    finish_transaction(txn, TxnState::kAborted);
    return;
  }

  for (auto& [site, reply] : slot.replies) {
    (void)site;
    if (!reply.ok) {
      const txn::AbortReason reason = reply.reason != txn::AbortReason::kNone
                                          ? reply.reason
                                          : txn::AbortReason::kSiteFailure;
      txn->set_abort_reason(reason);
      if (!reply.op_indices.empty()) {
        txn::OperationState& state = txn->state_of(reply.op_indices.front());
        state.failed = true;
        state.reason = reason;
        state.error = std::move(reply.error);
      }
      finish_transaction(txn, TxnState::kAborted);
      return;
    }
    for (std::size_t k = 0; k < reply.op_indices.size(); ++k) {
      txn::OperationState& state = txn->state_of(reply.op_indices[k]);
      state.executed = true;
      state.rows = std::move(reply.rows[k]);
    }
  }
  {
    sync::MutexLock lock(ctx_.stats_mutex);
    ++ctx_.stats.snapshot_txns;
  }
  finish_transaction(txn, TxnState::kCommitted);
}

void Coordinator::execute_local(const TransactionPtr& txn,
                                std::size_t op_index) {
  // Alg. 1 l. 6-10. The local path resolves through the same site plan
  // cache as remote executes, so a wait-mode retry reuses its plan.
  const txn::Operation& op = txn->ops()[op_index];
  txn::OperationState& state = txn->state_of(op_index);
  ++state.attempts;
  state.reset_attempt();
  auto plan = ctx_.plans().resolve(op);
  if (!plan) {
    state.failed = true;
    state.reason = txn::AbortReason::kParseError;
    state.error = plan.status().to_string();
    txn->set_abort_reason(txn::AbortReason::kParseError);
    abort_transaction(txn, false);
    return;
  }
  OpOutcome outcome = ctx_.locks().process_operation(
      txn->id(), static_cast<std::uint32_t>(op_index), *plan.value(),
      ctx_.options.id);
  switch (outcome.kind) {
    case OpOutcome::Kind::kExecuted:
      state.executed = true;
      state.rows = std::move(outcome.rows);
      txn->add_sites({ctx_.options.id});
      requeue(txn);
      return;
    case OpOutcome::Kind::kConflict:
      enter_wait(txn);
      return;
    case OpOutcome::Kind::kDeadlock:
      state.deadlock = true;
      abort_transaction(txn, /*deadlock_victim=*/true);
      return;
    case OpOutcome::Kind::kFailed:
      state.failed = true;
      state.reason = txn::AbortReason::kUnprocessableUpdate;
      state.error = std::move(outcome.error);
      txn->set_abort_reason(txn::AbortReason::kUnprocessableUpdate);
      abort_transaction(txn, false);
      return;
  }
}

void Coordinator::execute_remote(const TransactionPtr& txn,
                                 std::size_t op_index,
                                 const std::vector<SiteId>& sites) {
  // Alg. 1 l. 12-22.
  const txn::Operation& op = txn->ops()[op_index];
  txn::OperationState& state = txn->state_of(op_index);
  ++state.attempts;
  state.reset_attempt();
  const auto attempt = state.attempts;

  {
    sync::MutexLock lock(ctx_.resp_mutex);
    SiteContext::ResponseSlot& slot =
        ctx_.responses[{txn->id(), static_cast<std::uint32_t>(op_index)}];
    slot.attempt = attempt;
    slot.expected = sites.size();
    slot.replies.clear();
  }
  for (SiteId site : sites) {
    ctx_.send(site, net::ExecuteOperation{
                        txn->id(), static_cast<std::uint32_t>(op_index),
                        attempt, ctx_.options.id, txn->catalog_epoch(), op});
  }
  SiteContext::ParkedRound round;
  round.kind = SiteContext::ParkedRound::Kind::kExecute;
  round.txn = txn;
  round.op_index = static_cast<std::uint32_t>(op_index);
  park(std::move(round));
}

void Coordinator::complete_remote(const TransactionPtr& txn,
                                  std::uint32_t op_index) {
  SiteContext::ResponseSlot slot;
  {
    sync::MutexLock lock(ctx_.resp_mutex);
    const auto it = ctx_.responses.find({txn->id(), op_index});
    if (it != ctx_.responses.end()) {
      slot = std::move(it->second);
      ctx_.responses.erase(it);
    }
  }
  txn::OperationState& state = txn->state_of(op_index);
  const std::map<SiteId, net::OperationResult>& replies = slot.replies;
  const bool timed_out = slot.expected == 0 || !slot.complete();

  bool any_conflict = false;
  bool any_failed = timed_out;
  bool any_deadlock = false;
  txn::AbortReason participant_reason = txn::AbortReason::kNone;
  std::string participant_error;
  std::vector<SiteId> executed_at;
  for (const auto& [site, reply] : replies) {
    if (reply.executed) executed_at.push_back(site);
    any_conflict |= reply.lock_conflict;
    any_failed |= reply.failed;
    any_deadlock |= reply.deadlock;
    if (reply.failed && participant_reason == txn::AbortReason::kNone) {
      participant_reason = reply.reason;
      participant_error =
          reply.error + " (site " + std::to_string(site) + ")";
    }
  }

  if (any_failed || any_deadlock) {
    // Alg. 1 l. 19-21. Sites that executed the operation are cleaned up by
    // the abort broadcast (it reaches every site of the transaction).
    txn->add_sites(executed_at);
    state.failed = any_failed;
    state.deadlock = any_deadlock;
    if (timed_out) {
      state.reason = txn::AbortReason::kSiteFailure;
      state.error = "participant response timeout";
    } else if (any_failed) {
      state.reason = participant_reason != txn::AbortReason::kNone
                         ? participant_reason
                         : txn::AbortReason::kSiteFailure;
      state.error = participant_error.empty()
                        ? "operation failed at a participant site"
                        : std::move(participant_error);
    }
    if (any_failed) txn->set_abort_reason(state.reason);
    abort_transaction(txn, any_deadlock);
    return;
  }
  if (any_conflict) {
    // Alg. 1 l. 15-17: undo the operation wherever it executed; wait.
    for (SiteId site : executed_at) {
      ctx_.send(site, net::UndoOperation{txn->id(), op_index});
    }
    enter_wait(txn);
    return;
  }

  // Executed everywhere: adopt the rows of the lowest-id replica.
  state.executed = true;
  txn->add_sites(executed_at);
  state.rows = std::move(slot.replies.begin()->second.rows);  // lowest site id
  requeue(txn);
}

void Coordinator::enter_wait(const TransactionPtr& txn) {
  txn->note_wait_episode();
  {
    sync::MutexLock lock(ctx_.stats_mutex);
    ++ctx_.stats.wait_episodes;
  }
  if (ctx_.options.max_wait_episodes != 0 &&
      txn->wait_episodes() > ctx_.options.max_wait_episodes) {
    // The transaction keeps losing its locks; give up instead of letting
    // the client wait unboundedly. The claim is still ours, so a plain
    // abort is safe (finish_transaction clears any deferred victim mark).
    txn->set_abort_reason(txn::AbortReason::kLockWaitExhausted);
    abort_transaction(txn, /*deadlock_victim=*/false);
    return;
  }
  hand_back_claim(txn, /*to_waiting=*/true);
}

void Coordinator::requeue(const TransactionPtr& txn) {
  hand_back_claim(txn, /*to_waiting=*/false);
}

void Coordinator::hand_back_claim(const TransactionPtr& txn,
                                  bool to_waiting) {
  bool abort_now = false;
  bool requeued = false;
  {
    sync::MutexLock lock(ctx_.coord_mutex);
    if (ctx_.deferred_victims.erase(txn->id()) != 0) {
      abort_now = true;  // claim retained; abort below
    } else if (to_waiting && ctx_.pending_wakes.erase(txn->id()) == 0) {
      txn->set_state(TxnState::kWaiting);
      ctx_.executing.erase(txn->id());
      ctx_.waiting[txn->id()] = Clock::now();
    } else {
      // Plain requeue — or a wake overtook the wait; retry immediately.
      txn->set_state(TxnState::kActive);
      ctx_.executing.erase(txn->id());
      ctx_.ready.push_back(txn);
      requeued = true;
    }
  }
  if (abort_now) {
    abort_transaction(txn, /*deadlock_victim=*/true);
  } else if (requeued) {
    ctx_.coord_cv.notify_all();
  }
}

void Coordinator::park(SiteContext::ParkedRound round) {
  const TxnId id = round.txn->id();
  round.deadline = Clock::now() + ctx_.options.response_timeout;
  bool queued = false;
  {
    sync::MutexLock lock(ctx_.coord_mutex);
    // The dispatcher files a reply before it looks for the parked entry,
    // so a round that completed before this point is seen here instead.
    round.queued = round_complete(id, round);
    queued = round.queued;
    ctx_.executing.erase(id);
    ctx_.parked.emplace(id, std::move(round));
    if (queued) ctx_.resumable.push_back(id);
  }
  if (queued) ctx_.coord_cv.notify_all();
}

bool Coordinator::round_complete(TxnId txn,
                                 const SiteContext::ParkedRound& round) {
  using Kind = SiteContext::ParkedRound::Kind;
  if (round.kind == Kind::kExecute) {
    sync::MutexLock lock(ctx_.resp_mutex);
    const auto it = ctx_.responses.find({txn, round.op_index});
    return it == ctx_.responses.end() || it->second.complete();
  }
  if (round.kind == Kind::kSnapshot) {
    sync::MutexLock lock(ctx_.resp_mutex);
    const auto it = ctx_.snapshot_replies.find(txn);
    return it == ctx_.snapshot_replies.end() || it->second.complete();
  }
  sync::MutexLock lock(ctx_.ack_mutex);
  const auto it = ctx_.acks.find(txn);
  return it == ctx_.acks.end() || it->second.complete();
}

void Coordinator::resume(const SiteContext::ParkedRound& round) {
  switch (round.kind) {
    case SiteContext::ParkedRound::Kind::kExecute:
      complete_remote(round.txn, round.op_index);
      return;
    case SiteContext::ParkedRound::Kind::kSnapshot: {
      SiteContext::SnapshotSlot slot;
      {
        sync::MutexLock lock(ctx_.resp_mutex);
        const auto it = ctx_.snapshot_replies.find(round.txn->id());
        if (it != ctx_.snapshot_replies.end()) {
          slot = std::move(it->second);
          ctx_.snapshot_replies.erase(it);
        }
      }
      complete_snapshot(round.txn, std::move(slot));
      return;
    }
    case SiteContext::ParkedRound::Kind::kCommit:
      complete_commit_round(round.txn, round.commit_round);
      return;
    case SiteContext::ParkedRound::Kind::kAbort:
      complete_abort(round.txn);
      return;
  }
}

void Coordinator::commit_transaction(const TransactionPtr& txn) {
  // Algorithm 5, hardened for partial failure (presumed-abort style).
  // Every operation executed at every replica, so the coordinator now
  // takes the commit decision by persisting *locally first* and appending
  // the durable commit record — then broadcasts. From the decision on,
  // the transaction is never rolled back anywhere (the seed aborted on a
  // missing ack, which left replicas that had already persisted diverged):
  //
  //  1. local persist + release (a failure here still aborts cleanly —
  //     nothing was sent yet);
  //  2. durable commit record (answers status probes across a crash);
  //  3. CommitRequest fan-out with bounded resends for unacked sites.
  //
  // Coordinator-first ordering also means a participant that crashes
  // around the decision finds the committed bytes at the coordinator's
  // store the moment it rejoins (Cluster recovery sync); sites that miss
  // the request — partitioned, or briefly down — are served by the
  // resends and, past those, by the presumed-abort status probe their
  // orphan sweep sends (answered "committed" from the record of step 2).
  // Epoch re-validation: never take a commit decision under a catalog the
  // cluster has moved past. Participants fence new-epoch executes, but
  // CommitRequests carry no epoch — this check is what keeps a flip from
  // racing a commit into a replica that is being migrated away, and it
  // bounds the membership drain (see Site::epoch_drained).
  if (ctx_.catalog.epoch() != txn->catalog_epoch()) {
    abort_stale_catalog(txn);
    return;
  }
  std::set<SiteId> remote = txn->sites();
  remote.erase(ctx_.options.id);

  // Step 1 — Alg. 5 l. 10-11: persist and release locally.
  std::vector<WakeNotice> wakes;
  util::Status status = ctx_.locks().commit(txn->id(), wakes);
  ctx_.send_wakes(wakes);
  if (!status) {
    // Nothing persisted and nothing broadcast: a plain abort is sound.
    txn->set_abort_reason(txn::AbortReason::kSiteFailure);
    abort_transaction(txn, false);
    return;
  }
  if (remote.empty()) {
    finish_transaction(txn, TxnState::kCommitted);
    return;
  }

  // Step 2 — the decision outlives this worker and this site.
  {
    sync::MutexLock lock(ctx_.coord_mutex);
    ctx_.record_outcome(txn->id(), /*committed=*/true);
    const util::Status logged = ctx_.append_commit_record(txn->id());
    if (!logged) {
      DTX_ERROR() << "txn " << txn->id()
                  << ": commit log append failed: " << logged.to_string();
    }
  }

  // Step 3 — fan-out with resends.
  {
    sync::MutexLock lock(ctx_.ack_mutex);
    SiteContext::AckSlot& slot = ctx_.acks[txn->id()];
    slot.expected = remote.size();
    slot.acks.clear();
  }
  send_commit_round(txn, remote, 0);
}

void Coordinator::send_commit_round(const TransactionPtr& txn,
                                    const std::set<SiteId>& sites,
                                    std::uint32_t commit_round) {
  for (SiteId site : sites) {
    ctx_.send(site, net::CommitRequest{txn->id()});
  }
  SiteContext::ParkedRound round;
  round.kind = SiteContext::ParkedRound::Kind::kCommit;
  round.txn = txn;
  round.commit_round = commit_round;
  park(std::move(round));
}

void Coordinator::complete_commit_round(const TransactionPtr& txn,
                                        std::uint32_t commit_round) {
  std::set<SiteId> pending = txn->sites();
  pending.erase(ctx_.options.id);
  std::map<SiteId, bool> acks;
  {
    sync::MutexLock lock(ctx_.ack_mutex);
    acks = ctx_.acks[txn->id()].acks;
  }
  for (const auto& [site, ok] : acks) {
    (void)ok;
    pending.erase(site);
  }
  const std::uint32_t rounds =
      std::max<std::uint32_t>(1, ctx_.options.commit_ack_rounds);
  if (!pending.empty() && commit_round + 1 < rounds) {
    {
      sync::MutexLock lock(ctx_.stats_mutex);
      ctx_.stats.commit_resends += pending.size();
    }
    send_commit_round(txn, pending, commit_round + 1);
    return;
  }
  {
    sync::MutexLock lock(ctx_.ack_mutex);
    ctx_.acks.erase(txn->id());
  }
  // Unacked or not-ok sites hold a stale replica until their orphan probe
  // (answered from the outcome record) or the next recovery sync catches
  // them up; the decision stands regardless.
  for (SiteId site : pending) {
    DTX_WARN() << "txn " << txn->id() << ": commit unacked at site " << site
               << " after " << rounds << " rounds";
  }
  for (const auto& [site, ok] : acks) {
    if (!ok) {
      DTX_WARN() << "txn " << txn->id() << ": commit not served at site "
                 << site;
    }
  }
  finish_transaction(txn, TxnState::kCommitted);
}

void Coordinator::abort_transaction(const TransactionPtr& txn,
                                    bool deadlock_victim) {
  // Algorithm 6.
  if (deadlock_victim) txn->mark_deadlock_victim();
  std::set<SiteId> remote = txn->sites();
  remote.erase(ctx_.options.id);
  if (remote.empty()) {
    abort_locally(txn);
    return;
  }
  {
    sync::MutexLock lock(ctx_.ack_mutex);
    SiteContext::AckSlot& slot = ctx_.acks[txn->id()];
    slot.expected = remote.size();
    slot.acks.clear();
  }
  for (SiteId site : remote) {
    ctx_.send(site, net::AbortRequest{txn->id()});
  }
  SiteContext::ParkedRound round;
  round.kind = SiteContext::ParkedRound::Kind::kAbort;
  round.txn = txn;
  park(std::move(round));
}

void Coordinator::complete_abort(const TransactionPtr& txn) {
  std::set<SiteId> remote = txn->sites();
  remote.erase(ctx_.options.id);
  std::map<SiteId, bool> acks;
  {
    sync::MutexLock lock(ctx_.ack_mutex);
    const auto it = ctx_.acks.find(txn->id());
    if (it != ctx_.acks.end()) {
      acks = std::move(it->second.acks);
      ctx_.acks.erase(it);
    }
  }
  bool all_ok = acks.size() == remote.size();
  for (const auto& [site, ok] : acks) all_ok &= ok;
  if (!all_ok) {
    // Alg. 6 l. 5-10: the cancellation itself failed somewhere -> the
    // transaction *fails*; every site is told so.
    for (SiteId site : remote) {
      ctx_.send(site, net::FailNotice{txn->id()});
    }
    fail_transaction(txn);
    return;
  }
  abort_locally(txn);
}

void Coordinator::abort_locally(const TransactionPtr& txn) {
  // Alg. 6 l. 13-14: undo and release locally.
  std::vector<WakeNotice> wakes;
  ctx_.locks().abort(txn->id(), wakes);
  ctx_.send_wakes(wakes);
  finish_transaction(txn, TxnState::kAborted);
}

void Coordinator::fail_transaction(const TransactionPtr& txn) {
  // Local best-effort cleanup so this site's locks do not leak, then report
  // failure to the application (paper §2.2: "In case of failure, DTX alerts
  // the application stating that the transaction has failed").
  txn->set_abort_reason(txn::AbortReason::kSiteFailure);
  std::vector<WakeNotice> wakes;
  ctx_.locks().abort(txn->id(), wakes);
  ctx_.send_wakes(wakes);
  finish_transaction(txn, TxnState::kFailed);
}

void Coordinator::finish_transaction(const TransactionPtr& txn,
                                     TxnState state) {
  txn->set_state(state);
  {
    sync::MutexLock lock(ctx_.coord_mutex);
    ctx_.waiting.erase(txn->id());
    ctx_.pending_wakes.erase(txn->id());
    ctx_.deferred_victims.erase(txn->id());
    ctx_.executing.erase(txn->id());
    drop_from_ready(ctx_.ready, txn);
    ctx_.transactions.erase(txn->id());
    // Feed the presumed-abort status probes: participants that lost
    // contact ask for exactly this record (first write wins, so a commit
    // decision recorded in commit_transaction is never downgraded).
    ctx_.record_outcome(txn->id(), state == TxnState::kCommitted);
  }
  {
    sync::MutexLock lock(ctx_.stats_mutex);
    switch (state) {
      case TxnState::kCommitted: ++ctx_.stats.committed; break;
      case TxnState::kAborted: ++ctx_.stats.aborted; break;
      case TxnState::kFailed: ++ctx_.stats.failed; break;
      default: break;
    }
    if (txn->deadlock_victim()) ++ctx_.stats.deadlock_aborts;
  }

  txn::TxnResult result;
  result.id = txn->id();
  result.state = state;
  result.deadlock_victim = txn->deadlock_victim();
  result.wait_episodes = txn->wait_episodes();
  result.response_ms =
      static_cast<double>(steady_now_micros() -
                          txn::txn_begin_micros(txn->id())) /
      1000.0;
  if (state != TxnState::kCommitted) {
    result.reason = txn->deadlock_victim()
                        ? txn::AbortReason::kDeadlockVictim
                        : txn->abort_reason();
    if (result.reason == txn::AbortReason::kNone) {
      // Audited unreachable: every abort path records a reason first —
      // local/remote structural failures and parse errors set it inline,
      // deadlock outcomes mark the victim flag, lock-wait exhaustion and
      // every commit/ack failure set kSiteFailure, and stop()/crash()
      // complete transactions without passing through here. Keep a typed
      // fallback rather than asserting (a silent misclassification beats
      // a crash in release), but count it so the regression test in
      // chaos_test.cpp can prove the path stays dead.
      result.reason = txn::AbortReason::kSiteFailure;
      DTX_ERROR() << "txn " << txn->id() << ": abort without a recorded "
                  << "reason (state " << txn::txn_state_name(state) << ")";
      sync::MutexLock lock(ctx_.stats_mutex);
      ++ctx_.stats.unclassified_aborts;
    }
  }
  result.rows.reserve(txn->op_count());
  for (std::size_t i = 0; i < txn->op_count(); ++i) {
    result.rows.push_back(txn->state_of(i).rows);
    if (result.detail.empty() && !txn->state_of(i).error.empty()) {
      result.detail = "operation " + std::to_string(i) + ": " +
                      txn->state_of(i).error;
    }
  }
  if (result.detail.empty() && state != TxnState::kCommitted) {
    result.detail = txn::abort_reason_name(result.reason);
  }
  {
    sync::MutexLock lock(ctx_.stats_mutex);
    ctx_.stats.response_ms.add(result.response_ms);
  }
  txn->complete(std::move(result));
}

}  // namespace dtx::core

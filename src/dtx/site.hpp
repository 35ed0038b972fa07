// One DTX instance (paper Fig. 1): Listener + TransactionManager (Scheduler
// + LockManager) + DataManager, attached to a storage backend and the
// network. The engine is staged across three units sharing one SiteContext:
//
//  * dispatcher (this file)      — drains the mailbox and routes messages;
//                                  files round replies and resumes the
//                                  parked transaction a round's last reply
//                                  (or its timeout) completes; also fires
//                                  the periodic distributed deadlock
//                                  detector (Alg. 4);
//  * Coordinator (coordinator.*) — the scheduler of Alg. 1, run by a pool of
//                                  `coordinator_workers` threads pulling
//                                  resumed, then ready transactions from
//                                  shared queues; a step that sends a
//                                  network round parks its transaction
//                                  rather than waiting for the replies;
//  * Participant (participant.*) — the loop of Alg. 2, run by
//                                  `participant_workers` threads ("this
//                                  procedure is also common to the
//                                  coordinator" — every site runs both
//                                  roles).
//
// The client-facing submit() is the Listener: it accepts a transaction and
// hands back a handle whose await() blocks until commit / abort / fail.
#pragma once

#include <atomic>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "dtx/coordinator.hpp"
#include "dtx/participant.hpp"
#include "dtx/site_context.hpp"

namespace dtx::core {

class Site {
 public:
  /// `catalog` is this site's own mutable catalog replica — membership
  /// changes install newer epochs into it at runtime (CatalogUpdate), so
  /// the referenced object must outlive the Site and must not be shared
  /// with another site (each member evolves its replica independently).
  Site(SiteOptions options, net::Network& network, Catalog& catalog,
       storage::StorageBackend& store);
  ~Site();

  Site(const Site&) = delete;
  Site& operator=(const Site&) = delete;

  /// Loads documents from storage and spawns the dispatcher plus the
  /// coordinator / participant worker pools.
  util::Status start();

  /// Stops and joins the threads. Unfinished transactions abort.
  void stop();

  /// Simulated site crash: the site drops off the network (messages in
  /// both directions are discarded, the mailbox is emptied), every
  /// in-flight transaction coordinated here completes as aborted with
  /// txn::AbortReason::kSiteFailure, and all volatile engine state —
  /// documents, locks, undo logs, plan cache, scheduler queues — is
  /// wiped. Remote participants holding state for this site's
  /// transactions recover through the presumed-abort orphan sweep.
  ///
  /// Lifecycle vs. observation: crash()/restart() swap the engine
  /// components, so stats() and the component accessors below must not
  /// race them — observe a site either while it is up or after the
  /// restart returned (the chaos runner checks invariants only between
  /// recovery and the next fault for exactly this reason).
  void crash();

  /// Rejoins after stop() or crash(): rebuilds the DataManager /
  /// LockManager / plan cache from the storage backend (committed state
  /// only — exactly what a crash leaves behind), clears the mailbox and
  /// re-spawns the worker threads.
  util::Status restart();

  [[nodiscard]] bool running() const noexcept { return ctx_.running.load(); }

  [[nodiscard]] SiteId id() const noexcept { return ctx_.options.id; }

  /// The Listener: accepts a client transaction for coordination at this
  /// site. Returns the handle; await() blocks until termination.
  std::shared_ptr<txn::Transaction> submit(std::vector<txn::Operation> ops);

  /// Aggregated counters. Safe to call from any thread at any time — this
  /// is the sanctioned way to observe a running site (the lock-table
  /// counters are per-shard and aggregated here on read).
  [[nodiscard]] SiteStats stats();

  /// True once a decommission (a JoinRequest naming this site, or
  /// begin_leave via the daemon's signal handler) fully drained: every
  /// replica shipped to its new hosts and dropped here. The admin polls
  /// this before stopping the site for good.
  [[nodiscard]] bool decommissioned() const noexcept {
    return decommissioned_.load();
  }

  /// Direct component access for tests / benches / the inspector.
  ///
  /// QUIESCENCE CONTRACT: the DataManager is only internally consistent
  /// between operations; reading it while coordinator or participant
  /// workers are executing races with document mutation. Call these only
  /// when the site is quiescent — before start(), after stop(), or when
  /// every submitted transaction has completed and no remote traffic is in
  /// flight. For live monitoring use stats() instead. The LockManager's
  /// own entry points (stats, wfg_edges, lock_entries) are internally
  /// synchronized and safe at any time.
  DataManager& data_manager() noexcept { return ctx_.data(); }
  LockManager& lock_manager() noexcept { return ctx_.locks(); }

 private:
  using Clock = SiteContext::Clock;

  void dispatcher_loop();
  void run_deadlock_detection(Clock::time_point now);
  void act_on_victim(lock::TxnId victim);
  /// Joins the worker threads and completes in-flight transactions as
  /// kSiteFailure aborts (shared by stop() and crash()).
  void halt();
  /// Clears scheduler queues, response/ack slots, participant tracking
  /// and the outcome cache (crash, and restart-after-stop — new workers
  /// must never re-execute transactions halt() already completed).
  void wipe_volatile_state();
  /// Answers a presumed-abort status probe from the coordinator-side
  /// transaction table / outcome cache (dispatcher thread).
  void answer_status_request(const net::TxnStatusRequest& request);
  /// Presumed-abort sweep over remote transactions that went silent:
  /// probes their coordinators, rolls back after orphan_query_limit
  /// unanswered probes (dispatcher thread).
  void sweep_orphans(Clock::time_point now);
  /// The Listener's network face: accepts a remote client's transaction
  /// and wires its completion back into a ClientReply (dispatcher thread).
  void handle_client_submit(SiteId client, net::ClientSubmit submit);
  /// Serves a restarting peer's recovery pull with this site's stable
  /// durable state of the document (dispatcher thread).
  void answer_recovery_pull(const net::RecoveryPullRequest& request);

  lock::TxnId next_txn_id();  // expects coord_mutex held

  // --- placement & membership (src/placement) ------------------------------
  // All handlers and the tick run on the dispatcher thread only; the one
  // cross-thread signal is the decommissioned_ atomic. The protocol is
  // push+pull convergent: sources of a rehomed document ship MigrateDoc
  // until every gaining host acked, gaining hosts pull (RecoveryPull) while
  // fenced — either side alone completes a migration, which is what makes a
  // kill -9 on any single site restartable.

  /// Installs a newer epoch: catalog replica + durable ~catalog record,
  /// address book, importing fences for newly-gained documents, ship states
  /// for documents this site must hand off. Queues the drained CatalogAck.
  void handle_catalog_update(const net::CatalogUpdate& update);
  /// The install itself (shared with the JoinReply anti-entropy path):
  /// no-op unless `next` is strictly newer than the current epoch.
  void install_epoch(placement::CatalogEpoch next);
  void handle_catalog_ack(const net::CatalogAck& ack);
  /// Seed side of a join — or, when `request.site` names this site, the
  /// decommission order (begin_leave).
  void handle_join_request(net::SiteId from, const net::JoinRequest& request);
  void handle_migrate_doc(net::SiteId from, const net::MigrateDoc& migrate);
  void handle_migrate_ack(const net::MigrateAck& ack);
  void handle_drop_doc(const net::DropDoc& drop);
  /// Periodic membership work (dispatcher cadence): send drained
  /// CatalogAcks, time out a pending join, reconcile replicas (ship /
  /// pull / drop), complete a decommission.
  void membership_tick(Clock::time_point now);
  /// True when no transaction routed under an epoch older than `epoch`
  /// still has state at this site (coordinator table + remote_txns).
  [[nodiscard]] bool epoch_drained(std::uint64_t epoch);
  void maybe_send_catalog_acks();
  /// Computes the post-departure epoch and broadcasts it; reconcile then
  /// ships every replica away and flips decommissioned_.
  void begin_leave();
  /// Ship / pull / drop pass: resends MigrateDoc for pending handoffs,
  /// scans the store for replicas this site no longer hosts (restart
  /// resume), pulls fenced imports from current hosts.
  void reconcile_replicas(Clock::time_point now);
  /// Adopts a shipped durable state for a fenced document: write it (or
  /// keep the fresher local bytes), load into the engine, unfence.
  /// Returns the adopted durable version, or nullopt on failure.
  std::optional<std::uint64_t> adopt_replica(const std::string& doc,
                                             std::uint64_t version,
                                             const std::string& snapshot,
                                             const std::string& log);
  /// Removes a replica end to end: engine, snapshots, store bytes + log.
  void drop_replica(const std::string& doc);
  /// Loads the durable ~catalog record (if any) into the catalog replica
  /// and derives the membership resume state (leaving_). start() only.
  void load_durable_catalog();

  /// One handoff in flight: gaining hosts that have not acked durability,
  /// with per-target resend pacing.
  struct ShipState {
    std::set<net::SiteId> pending;
    std::map<net::SiteId, Clock::time_point> last_sent;
    bool drop_when_done = false;  ///< this site leaves the hosting set
  };

  /// Drained-ack debt: epoch -> admin that wants the CatalogAck.
  std::map<std::uint64_t, net::SiteId> pending_acks_;
  /// Seed-side state of one admission in progress.
  struct PendingJoin {
    std::uint64_t epoch = 0;
    net::SiteId joiner = 0;
    net::SiteId reply_to = 0;
    std::set<net::SiteId> waiting;  ///< old members yet to ack the drain
    std::string catalog;            ///< epoch text, for update resends
    Clock::time_point deadline{};
    Clock::time_point next_resend{};
  };
  std::optional<PendingJoin> pending_join_;
  std::map<std::string, ShipState> ship_states_;
  /// Pull pacing per fenced document.
  std::map<std::string, Clock::time_point> last_pull_;
  Clock::time_point last_reconcile_{};
  /// Dispatcher pacing of the parked-round timeout scan (poll_interval).
  Clock::time_point next_round_expiry_{};
  bool leaving_ = false;
  std::atomic<bool> decommissioned_{false};

  SiteContext ctx_;
  Coordinator coordinator_;
  Participant participant_;

  std::thread dispatcher_;
  std::vector<std::thread> coordinator_threads_;
  std::vector<std::thread> participant_threads_;
};

}  // namespace dtx::core

// Tests for the DTX support components: Catalog, the plan-based
// DataManager, the DeadlockDetector probe lifecycle, the legacy
// single-site session scenarios (now on client::Session), the site
// plan-cache integration (remote reuse + wait-mode retry reuse), the
// file-backed durability path (cluster restart on FileStore), the
// staged-engine worker pools (coordinator_workers / participant_workers /
// lock_shards) and the event-driven coordinator (transactions park on
// network rounds instead of blocking a worker).
#include <gtest/gtest.h>

#include <filesystem>
#include <thread>

#include "client/client.hpp"
#include "client/txn_builder.hpp"
#include "dtx/catalog.hpp"
#include "dtx/cluster.hpp"
#include "dtx/data_manager.hpp"
#include "dtx/deadlock_detector.hpp"
#include "dtx/wal.hpp"
#include "query/plan.hpp"
#include "storage/memory_store.hpp"
#include "xpath/parser.hpp"

namespace dtx::core {
namespace {

namespace fs = std::filesystem;
using namespace std::chrono_literals;
using txn::TxnState;

// --- Catalog -----------------------------------------------------------------

TEST(CatalogTest, AddAndLookup) {
  Catalog catalog;
  ASSERT_TRUE(catalog.add_document("d1", {2, 0, 2, 1}).is_ok());
  EXPECT_TRUE(catalog.has_document("d1"));
  EXPECT_FALSE(catalog.has_document("d2"));
  // Sorted and deduplicated.
  EXPECT_EQ(catalog.sites_of("d1"), (std::vector<SiteId>{0, 1, 2}));
  EXPECT_TRUE(catalog.sites_of("d2").empty());
}

TEST(CatalogTest, RejectsEmptyPlacementAndDuplicates) {
  Catalog catalog;
  EXPECT_FALSE(catalog.add_document("d1", {}).is_ok());
  ASSERT_TRUE(catalog.add_document("d1", {0}).is_ok());
  EXPECT_EQ(catalog.add_document("d1", {1}).code(),
            util::Code::kAlreadyExists);
}

TEST(CatalogTest, DocumentsAtSite) {
  Catalog catalog;
  ASSERT_TRUE(catalog.add_document("a", {0, 1}).is_ok());
  ASSERT_TRUE(catalog.add_document("b", {1}).is_ok());
  ASSERT_TRUE(catalog.add_document("c", {0}).is_ok());
  EXPECT_EQ(catalog.documents_at(0), (std::vector<std::string>{"a", "c"}));
  EXPECT_EQ(catalog.documents_at(1), (std::vector<std::string>{"a", "b"}));
  EXPECT_TRUE(catalog.documents_at(9).empty());
  EXPECT_EQ(catalog.documents(), (std::vector<std::string>{"a", "b", "c"}));
}

// --- DataManager --------------------------------------------------------------

class DataManagerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(store_.store("d1",
                             "<site><people>"
                             "<person id=\"p1\"><name>Ana</name></person>"
                             "</people></site>")
                    .is_ok());
    ASSERT_TRUE(store_.store("d2", "<catalog><entry id=\"e1\"/></catalog>")
                    .is_ok());
    data_ = std::make_unique<DataManager>(store_);
    ASSERT_TRUE(data_->load_all().is_ok());
  }

  /// Compiles one textual operation into the plan the DataManager executes.
  static query::Plan plan_of(const std::string& text) {
    auto plan = query::compile_text(text);
    EXPECT_TRUE(plan.is_ok()) << text;
    return std::move(plan).value();
  }

  storage::MemoryStore store_;
  std::unique_ptr<DataManager> data_;
};

TEST_F(DataManagerTest, LoadsEveryStoredDocument) {
  EXPECT_TRUE(data_->has_document("d1"));
  EXPECT_TRUE(data_->has_document("d2"));
  EXPECT_FALSE(data_->has_document("d3"));
  EXPECT_EQ(data_->documents(), (std::vector<std::string>{"d1", "d2"}));
  EXPECT_GT(data_->total_nodes(), 0u);
  EXPECT_GT(data_->total_guide_nodes(), 0u);
}

TEST_F(DataManagerTest, LoadAllFailsOnMalformedDocument) {
  storage::MemoryStore bad_store;
  ASSERT_TRUE(bad_store.store("broken", "<a><b></a>").is_ok());
  DataManager data(bad_store);
  EXPECT_FALSE(data.load_all().is_ok());
}

TEST_F(DataManagerTest, ContextProvidesDistinctScopes) {
  auto c1 = data_->context_of("d1");
  auto c2 = data_->context_of("d2");
  ASSERT_TRUE(c1.is_ok() && c2.is_ok());
  EXPECT_NE(c1.value().scope, c2.value().scope);
  EXPECT_FALSE(data_->context_of("nope").is_ok());
}

TEST_F(DataManagerTest, UpdateUndoPersistCycle) {
  const query::Plan insert = plan_of(
      "update d1 insert into /site/people ::= <person id=\"p2\"/>");
  auto applied = data_->run_update(7, insert);
  ASSERT_TRUE(applied.is_ok());
  EXPECT_EQ(applied.value(), 1u);

  // Undo everything the txn did: insert disappears.
  data_->undo_all(7);
  auto rows = data_->run_query(plan_of("query d1 /site/people/person"));
  ASSERT_TRUE(rows.is_ok());
  EXPECT_EQ(rows.value().size(), 1u);

  // Apply again and persist: the durable state (checkpoint snapshot +
  // replayed redo-log tail) reflects the change. The same compiled plan
  // is reused across executions.
  ASSERT_TRUE(data_->run_update(8, insert).is_ok());
  ASSERT_TRUE(data_->persist(8).is_ok());
  auto stored = wal::materialize(store_, "d1");
  ASSERT_TRUE(stored.is_ok());
  EXPECT_NE(stored.value().find("p2"), std::string::npos);
}

TEST_F(DataManagerTest, PersistOnlyWritesTouchedDocuments) {
  const auto count_before = store_.store_count();
  ASSERT_TRUE(
      data_->run_update(
               9, plan_of(
                      "update d2 insert into /catalog ::= <entry id=\"e2\"/>"))
          .is_ok());
  ASSERT_TRUE(data_->persist(9).is_ok());
  // One O(delta) redo-record append to d2's log — d1 and the document
  // snapshots untouched.
  EXPECT_EQ(store_.store_count(), count_before + 1);
  EXPECT_EQ(data_->version_of("d2"), 1u);
  EXPECT_EQ(data_->version_of("d1"), 0u);
  EXPECT_EQ(wal::durable_version(store_, "d2"), 1u);
  EXPECT_EQ(wal::durable_version(store_, "d1"), 0u);
}

TEST_F(DataManagerTest, ReplayIsIdempotentAcrossReloads) {
  // Three commits land three redo records; rebuilding the engine from the
  // store any number of times must replay to the same state and never
  // re-persist (reload is a pure read of snapshot + log).
  for (int i = 0; i < 3; ++i) {
    const auto txn = static_cast<TxnId>(100 + i);
    ASSERT_TRUE(
        data_->run_update(txn, plan_of("update d1 insert into /site/people "
                                       "::= <person id=\"r" +
                                       std::to_string(i) + "\"/>"))
            .is_ok());
    ASSERT_TRUE(data_->persist(txn).is_ok());
  }
  auto first = wal::materialize(store_, "d1");
  ASSERT_TRUE(first.is_ok());
  const auto writes_after_commits = store_.store_count();
  for (int reload = 0; reload < 2; ++reload) {
    DataManager rebuilt(store_);
    ASSERT_TRUE(rebuilt.load_all().is_ok());
    EXPECT_EQ(rebuilt.version_of("d1"), 3u);
    auto rows =
        rebuilt.run_query(plan_of("query d1 /site/people/person/@id"));
    ASSERT_TRUE(rows.is_ok());
    EXPECT_EQ(rows.value().size(), 4u);  // p1 + r0..r2, applied once each
  }
  EXPECT_EQ(store_.store_count(), writes_after_commits);
  EXPECT_EQ(wal::materialize(store_, "d1").value(), first.value());
}

TEST_F(DataManagerTest, CheckpointCompactsLogAndRoundTrips) {
  // checkpoint_interval=2: the second commit flags the compaction, which
  // runs via run_checkpoints and rewrites snapshot + marker-only log.
  DataManager data(store_, /*checkpoint_interval=*/2);
  ASSERT_TRUE(data.load_all().is_ok());
  std::vector<std::string> due;
  ASSERT_TRUE(
      data.run_update(21, plan_of("update d1 insert into /site/people ::= "
                                  "<person id=\"c1\"/>"))
          .is_ok());
  ASSERT_TRUE(data.persist(21, &due).is_ok());
  EXPECT_TRUE(due.empty());  // below the threshold
  ASSERT_TRUE(
      data.run_update(22, plan_of("update d1 insert into /site/people ::= "
                                  "<person id=\"c2\"/>"))
          .is_ok());
  ASSERT_TRUE(data.persist(22, &due).is_ok());
  ASSERT_EQ(due, (std::vector<std::string>{"d1"}));
  data.run_checkpoints(due);

  // Snapshot now carries both inserts; the log is exactly one marker
  // holding the commit-id history.
  auto snapshot = store_.load("d1");
  ASSERT_TRUE(snapshot.is_ok());
  EXPECT_NE(snapshot.value().find("c2"), std::string::npos);
  auto durable = wal::read_durable_doc(store_, "d1");
  ASSERT_TRUE(durable.is_ok());
  EXPECT_EQ(durable.value().checkpoint_version, 2u);
  EXPECT_TRUE(durable.value().tail.empty());
  EXPECT_FALSE(durable.value().needs_repair);
  EXPECT_EQ(durable.value().checkpoint_ids,
            (std::vector<TxnId>{21, 22}));

  // Post-compaction commits append after the marker; a rebuild replays
  // checkpoint + tail.
  ASSERT_TRUE(
      data.run_update(23, plan_of("update d1 insert into /site/people ::= "
                                  "<person id=\"c3\"/>"))
          .is_ok());
  ASSERT_TRUE(data.persist(23).is_ok());
  DataManager rebuilt(store_);
  ASSERT_TRUE(rebuilt.load_all().is_ok());
  EXPECT_EQ(rebuilt.version_of("d1"), 3u);
  auto rows = rebuilt.run_query(plan_of("query d1 /site/people/person/@id"));
  ASSERT_TRUE(rows.is_ok());
  EXPECT_EQ(rows.value().size(), 4u);
}

TEST_F(DataManagerTest, CheckpointDeferredWhileAnotherTxnIsLive) {
  // Snapshots must only ever contain committed state: a due checkpoint is
  // deferred while any live transaction holds an undo log on the
  // document, and unblocks when that transaction finishes.
  DataManager data(store_, /*checkpoint_interval=*/1);
  ASSERT_TRUE(data.load_all().is_ok());
  ASSERT_TRUE(
      data.run_update(31, plan_of("update d1 insert into /site/people ::= "
                                  "<person id=\"live\"/>"))
          .is_ok());
  std::vector<std::string> due;
  ASSERT_TRUE(
      data.run_update(30, plan_of("update d1 change "
                                  "/site/people/person[@id='p1']/name "
                                  "::= Zed"))
          .is_ok());
  ASSERT_TRUE(data.persist(30, &due).is_ok());
  EXPECT_TRUE(due.empty());  // txn 31 still holds an undo log on d1
  data.run_checkpoints({"d1"});  // must refuse for the same reason
  EXPECT_EQ(store_.load("d1").value().find("live"), std::string::npos);

  // Rolling txn 31 back unblocks the deferred compaction — and the
  // snapshot it writes contains only committed state.
  data.undo_all(31, &due);
  ASSERT_EQ(due, (std::vector<std::string>{"d1"}));
  data.run_checkpoints(due);
  auto snapshot = store_.load("d1");
  ASSERT_TRUE(snapshot.is_ok());
  EXPECT_NE(snapshot.value().find("Zed"), std::string::npos);
  EXPECT_EQ(snapshot.value().find("live"), std::string::npos);
  auto durable = wal::read_durable_doc(store_, "d1");
  ASSERT_TRUE(durable.is_ok());
  EXPECT_EQ(durable.value().checkpoint_version, 1u);
  EXPECT_TRUE(durable.value().tail.empty());
}

TEST_F(DataManagerTest, GuideStaysConsistentThroughUpdates) {
  ASSERT_TRUE(
      data_->run_update(3, plan_of("update d1 insert into /site/people ::= "
                                   "<person id=\"p3\"><age>9</age></person>"))
          .is_ok());
  auto context = data_->context_of("d1");
  ASSERT_TRUE(context.is_ok());
  // New label path appeared in the incrementally maintained guide.
  EXPECT_NE(context.value().guide.find_path("/site/people/person/age"),
            nullptr);
  EXPECT_EQ(
      context.value().guide.find_path("/site/people/person")->extent(), 2u);
  data_->undo_all(3);
  EXPECT_EQ(
      context.value().guide.find_path("/site/people/person")->extent(), 1u);
}

// --- DeadlockDetector ------------------------------------------------------------

TEST(DeadlockDetectorTest, ProbeLifecycle) {
  DeadlockDetector detector(10ms, 100ms);
  const auto t0 = DeadlockDetector::Clock::now();
  EXPECT_TRUE(detector.should_start(t0 + 11ms));

  // Local edges t2 -> t1; site 1 will contribute t1 -> t2.
  const auto probe =
      detector.begin_probe({wfg::Edge{2, 1}}, {1, 2}, t0 + 11ms);
  EXPECT_TRUE(detector.probe_active());
  EXPECT_FALSE(detector.should_start(t0 + 12ms));  // one probe at a time

  // First reply: still collecting.
  EXPECT_FALSE(detector.add_reply(probe, 1, {wfg::Edge{1, 2}}).has_value());
  // Second reply completes the probe; union has the cycle; victim = newest.
  const auto victim = detector.add_reply(probe, 2, {});
  ASSERT_TRUE(victim.has_value());
  EXPECT_EQ(*victim, 2u);
  EXPECT_FALSE(detector.probe_active());
  EXPECT_EQ(detector.cycles_found(), 1u);
}

TEST(DeadlockDetectorTest, CleanProbeReturnsZero) {
  DeadlockDetector detector(10ms, 100ms);
  const auto t0 = DeadlockDetector::Clock::now();
  const auto probe = detector.begin_probe({wfg::Edge{1, 2}}, {1}, t0);
  const auto victim = detector.add_reply(probe, 1, {wfg::Edge{2, 3}});
  ASSERT_TRUE(victim.has_value());
  EXPECT_EQ(*victim, 0u);  // acyclic union
  EXPECT_EQ(detector.cycles_found(), 0u);
}

TEST(DeadlockDetectorTest, StaleRepliesIgnored) {
  DeadlockDetector detector(10ms, 100ms);
  const auto t0 = DeadlockDetector::Clock::now();
  const auto probe = detector.begin_probe({}, {1}, t0);
  EXPECT_FALSE(detector.add_reply(probe + 99, 1, {wfg::Edge{1, 2}})
                   .has_value());  // wrong probe id
  EXPECT_TRUE(detector.probe_active());
}

TEST(DeadlockDetectorTest, ExpiryResolvesWithPartialReplies) {
  DeadlockDetector detector(10ms, 50ms);
  const auto t0 = DeadlockDetector::Clock::now();
  (void)detector.begin_probe({wfg::Edge{1, 2}, wfg::Edge{2, 1}}, {1, 2}, t0);
  EXPECT_FALSE(detector.resolve_if_expired(t0 + 10ms).has_value());
  const auto victim = detector.resolve_if_expired(t0 + 51ms);
  ASSERT_TRUE(victim.has_value());
  EXPECT_EQ(*victim, 2u);  // local edges alone already form the cycle
}

// --- legacy single-site session scenarios (client::Session) -----------------
// These were the deprecated Connection shim's tests; the shim is gone (it
// lived exactly one PR, as promised in PR 2) and the same scenarios now run
// on the canonical client::Session surface.

ClusterOptions small_options() {
  ClusterOptions options;
  options.site_count = 2;
  options.network.latency = std::chrono::microseconds(50);
  options.site.detect_period = std::chrono::microseconds(5'000);
  options.site.retry_interval = std::chrono::microseconds(10'000);
  options.site.poll_interval = std::chrono::microseconds(500);
  return options;
}

/// Site-pinned session, the old Connection shape: explicit routing + policy.
client::Session site_session(client::Client& client, SiteId site,
                             client::RetryPolicy policy = {}) {
  return client.session(client::SessionOptions{
      client::RoutingPolicy::explicit_site(site), policy,
      std::chrono::microseconds{0}});
}

TEST(SessionMigrationTest, ExecutesThroughBoundSite) {
  Cluster cluster(small_options());
  ASSERT_TRUE(cluster
                  .load_document("d1",
                                 "<site><people><person id=\"p1\">"
                                 "<name>Ana</name></person></people></site>",
                                 {0, 1})
                  .is_ok());
  ASSERT_TRUE(cluster.start().is_ok());
  client::Client client(cluster);
  client::Session session = site_session(client, 1);
  auto prepared = client::PreparedTxn::parse(
      {"query d1 /site/people/person[@id='p1']/name"});
  ASSERT_TRUE(prepared.is_ok());
  auto result = session.execute(prepared.value());
  ASSERT_TRUE(result.is_ok());
  EXPECT_EQ(result.value().state, TxnState::kCommitted);
  EXPECT_EQ(result.value().rows[0][0], "Ana");
  EXPECT_EQ(session.retries(), 0u);
}

TEST(SessionMigrationTest, RetriesDeadlockVictims) {
  ClusterOptions options = small_options();
  options.protocol = lock::ProtocolKind::kXdglPlain;
  Cluster cluster(options);
  ASSERT_TRUE(cluster
                  .load_document("a",
                                 "<site><people><person id=\"1\"/>"
                                 "</people></site>",
                                 {0})
                  .is_ok());
  ASSERT_TRUE(cluster
                  .load_document("b",
                                 "<site><people><person id=\"2\"/>"
                                 "</people></site>",
                                 {1})
                  .is_ok());
  ASSERT_TRUE(cluster.start().is_ok());
  client::Client client(cluster);

  client::RetryPolicy policy;
  policy.max_deadlock_retries = 50;
  policy.backoff = std::chrono::microseconds(2'000);
  std::atomic<int> committed{0};
  // Two adversarial sessions running opposite lock orders repeatedly: with
  // retries enabled, every transaction eventually commits.
  std::thread worker([&] {
    client::Session session = site_session(client, 0, policy);
    for (int i = 0; i < 10; ++i) {
      auto prepared = client::PreparedTxn::parse(
          {"query a /site/people/person/@id",
           "update b insert into /site/people ::= <person id=\"w" +
               std::to_string(i) + "\"/>"});
      ASSERT_TRUE(prepared.is_ok());
      auto result = session.execute(prepared.value());
      ASSERT_TRUE(result.is_ok());
      if (result.value().state == TxnState::kCommitted) ++committed;
    }
  });
  client::Session session = site_session(client, 1, policy);
  for (int i = 0; i < 10; ++i) {
    auto prepared = client::PreparedTxn::parse(
        {"query b /site/people/person/@id",
         "update a insert into /site/people ::= <person id=\"m" +
             std::to_string(i) + "\"/>"});
    ASSERT_TRUE(prepared.is_ok());
    auto result = session.execute(prepared.value());
    ASSERT_TRUE(result.is_ok());
    if (result.value().state == TxnState::kCommitted) ++committed;
  }
  worker.join();
  EXPECT_EQ(committed.load(), 20);
}

// --- plan cache integration --------------------------------------------------

// A repeated remote operation is compiled once at the participant site:
// the second execution resolves the cached plan (no re-parse, a hit).
TEST(PlanCacheIntegrationTest, RemoteExecutionReusesCachedPlan) {
  // Locked path on purpose: with MVCC on, a read-only transaction would be
  // served as a SnapshotReadRequest and never reach handle_execute.
  ClusterOptions remote_options = small_options();
  remote_options.site.snapshot_reads = false;
  Cluster cluster(remote_options);
  ASSERT_TRUE(cluster
                  .load_document("d1",
                                 "<site><people><person id=\"p1\">"
                                 "<name>Ana</name></person></people></site>",
                                 {1})  // only at site 1 -> remote from site 0
                  .is_ok());
  ASSERT_TRUE(cluster.start().is_ok());

  for (int i = 0; i < 2; ++i) {
    auto result = cluster.execute_text(
        0, {"query d1 /site/people/person[@id='p1']/name"});
    ASSERT_TRUE(result.is_ok());
    ASSERT_EQ(result.value().state, TxnState::kCommitted);
    EXPECT_EQ(result.value().rows[0][0], "Ana");
  }

  const SiteStats participant = cluster.site(1).stats();
  EXPECT_EQ(participant.remote_ops_processed, 2u);
  EXPECT_EQ(participant.plan_cache.misses, 1u);  // compiled exactly once
  EXPECT_GE(participant.plan_cache.hits, 1u);    // second run from cache
}

// Regression for the wait-mode path: an operation that enters wait mode and
// re-executes must run from the cached plan of its first attempt. The
// holder keeps document a's locks for >= 2 x 30 ms (a remote leg per op),
// the waiter conflicts, parks, is woken by the holder's commit and retries
// the *same* operation -> its second resolution is a cache hit.
TEST(PlanCacheIntegrationTest, WaitModeRetryExecutesFromCachedPlan) {
  ClusterOptions options = small_options();
  options.protocol = lock::ProtocolKind::kXdglPlain;
  options.network.latency = std::chrono::milliseconds(30);
  options.site.coordinator_workers = 2;
  options.site.detect_period = std::chrono::hours(1);
  options.site.retry_interval = std::chrono::microseconds(2'000);
  // The read-only holder must take locks for the waiter to conflict; MVCC
  // would serve it from a snapshot and no wait episode could ever happen.
  options.site.snapshot_reads = false;
  Cluster cluster(options);
  constexpr const char* kXml =
      "<site><people><person id=\"p1\"><name>Ana</name></person>"
      "</people></site>";
  ASSERT_TRUE(cluster.load_document("a", kXml, {0}).is_ok());
  ASSERT_TRUE(cluster.load_document("r", kXml, {1}).is_ok());
  ASSERT_TRUE(cluster.start().is_ok());
  client::Client client(cluster);
  client::Session session = site_session(client, 0);

  auto holder_txn = client::TxnBuilder()
                        .query("a", "/site/people/person/name")  // ST on a
                        .query("r", "/site/people/person/name")  // slow remote
                        .build();
  auto waiter_txn = client::TxnBuilder()
                        .insert("a", "/site/people", "<person id=\"w\"/>")
                        .build();
  ASSERT_TRUE(holder_txn.is_ok() && waiter_txn.is_ok());

  bool saw_wait_retry = false;
  for (int round = 0; round < 10 && !saw_wait_retry; ++round) {
    auto holder = session.submit(holder_txn.value());
    ASSERT_TRUE(holder.is_ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    auto waiter = session.execute(waiter_txn.value());
    ASSERT_TRUE(waiter.is_ok());
    EXPECT_EQ(holder.value().await().state, TxnState::kCommitted);
    if (waiter.value().state == TxnState::kCommitted &&
        waiter.value().wait_episodes > 0) {
      saw_wait_retry = true;
    }
  }
  ASSERT_TRUE(saw_wait_retry) << "no wait-mode retry observed in 10 rounds";

  // The waiter's insert resolved at least twice (attempt 1 + the retry)
  // but compiled at most once: the retry was served from the cache.
  const SiteStats coordinator = cluster.site(0).stats();
  EXPECT_GE(coordinator.plan_cache.hits, 1u);
  EXPECT_GT(coordinator.wait_episodes, 0u);
}

// --- durability (file-backed cluster restart) --------------------------------------

TEST(DurabilityTest, CommittedStateSurvivesClusterRestart) {
  const fs::path dir = fs::temp_directory_path() / "dtx_durability_test";
  fs::remove_all(dir);

  ClusterOptions options = small_options();
  options.storage_dir = dir.string();
  {
    Cluster cluster(options);
    ASSERT_TRUE(cluster
                    .load_document("d1",
                                   "<site><people><person id=\"p1\">"
                                   "<phone>111</phone></person></people>"
                                   "</site>",
                                   {0, 1})
                    .is_ok());
    ASSERT_TRUE(cluster.start().is_ok());
    auto result = cluster.execute_text(
        0, {"update d1 change /site/people/person[@id='p1']/phone ::= 999"});
    ASSERT_TRUE(result.is_ok());
    ASSERT_EQ(result.value().state, TxnState::kCommitted);
    cluster.stop();
  }
  {
    // Restart: same directory, placement re-declared, data already there.
    Cluster cluster(options);
    ASSERT_TRUE(cluster.declare_document("d1", {0, 1}).is_ok());
    ASSERT_TRUE(cluster.start().is_ok());
    auto result = cluster.execute_text(
        1, {"query d1 /site/people/person[@id='p1']/phone"});
    ASSERT_TRUE(result.is_ok());
    ASSERT_EQ(result.value().state, TxnState::kCommitted);
    EXPECT_EQ(result.value().rows[0][0], "999");
    cluster.stop();
  }
  fs::remove_all(dir);
}

TEST(DurabilityTest, DeclareDocumentRejectsMissingData) {
  const fs::path dir = fs::temp_directory_path() / "dtx_declare_test";
  fs::remove_all(dir);
  ClusterOptions options = small_options();
  options.storage_dir = dir.string();
  Cluster cluster(options);
  EXPECT_EQ(cluster.declare_document("ghost", {0}).code(),
            util::Code::kNotFound);
  fs::remove_all(dir);
}

TEST(ErrorReportingTest, AbortedTransactionCarriesTypedReason) {
  Cluster cluster(small_options());
  ASSERT_TRUE(cluster
                  .load_document("d1", "<site><people/></site>", {0})
                  .is_ok());
  ASSERT_TRUE(cluster.start().is_ok());
  auto result =
      cluster.execute_text(0, {"update d1 insert after /site ::= <bad/>"});
  ASSERT_TRUE(result.is_ok());
  EXPECT_EQ(result.value().state, TxnState::kAborted);
  // Tests branch on the code; the detail string is diagnostics only.
  EXPECT_EQ(result.value().reason, txn::AbortReason::kUnprocessableUpdate);
  EXPECT_NE(result.value().detail.find("operation 0"), std::string::npos)
      << result.value().detail;

  auto missing = cluster.execute_text(0, {"query nope /site/people"});
  ASSERT_TRUE(missing.is_ok());
  EXPECT_EQ(missing.value().reason, txn::AbortReason::kParseError);
  EXPECT_NE(missing.value().detail.find("not in the catalog"),
            std::string::npos);
}

// --- staged engine (coordinator pool + sharded locks) -----------------------

ClusterOptions staged_options() {
  ClusterOptions options = small_options();
  options.site.coordinator_workers = 4;
  options.site.participant_workers = 2;
  options.site.lock_shards = 8;
  return options;
}

constexpr const char* kStagedXml =
    "<site><people>"
    "<person id=\"p1\"><name>Ana</name><phone>111</phone></person>"
    "<person id=\"p2\"><name>Bruno</name><phone>222</phone></person>"
    "<person id=\"p3\"><name>Carla</name><phone>333</phone></person>"
    "</people></site>";

// Many clients against a multi-worker site: every transaction must
// terminate in exactly one of the three states and reads must see
// committed content (no torn documents under the pool).
TEST(StagedEngineTest, MultiWorkerSiteAccountsForEveryTransaction) {
  Cluster cluster(staged_options());
  ASSERT_TRUE(cluster.load_document("d1", kStagedXml, {0, 1}).is_ok());
  ASSERT_TRUE(cluster.start().is_ok());

  constexpr std::size_t kClients = 8;
  constexpr std::size_t kTxnsPerClient = 6;
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  std::atomic<std::size_t> committed{0};
  std::atomic<std::size_t> terminated{0};
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (std::size_t i = 0; i < kTxnsPerClient; ++i) {
        const SiteId home = static_cast<SiteId>(c % 2);
        const std::string id = "p" + std::to_string(1 + (c + i) % 3);
        auto result = cluster.execute_text(
            home, {"query d1 /site/people/person[@id='" + id + "']/name",
                   "update d1 change /site/people/person[@id='" + id +
                       "']/phone ::= 555" + std::to_string(c),
                   "query d1 /site/people/person[@id='" + id + "']/phone"});
        ASSERT_TRUE(result.is_ok());
        const TxnState state = result.value().state;
        ASSERT_TRUE(state == TxnState::kCommitted ||
                    state == TxnState::kAborted || state == TxnState::kFailed)
            << txn::txn_state_name(state);
        ++terminated;
        if (state == TxnState::kCommitted) {
          ++committed;
          ASSERT_EQ(result.value().rows.size(), 3u);
          ASSERT_EQ(result.value().rows[2].size(), 1u);
          EXPECT_EQ(result.value().rows[2][0], "555" + std::to_string(c));
        }
      }
    });
  }
  for (std::thread& client : clients) client.join();

  EXPECT_EQ(terminated.load(), kClients * kTxnsPerClient);
  EXPECT_GT(committed.load(), 0u);

  const ClusterStats stats = cluster.stats();
  EXPECT_EQ(stats.committed + stats.aborted + stats.failed,
            kClients * kTxnsPerClient);
  cluster.stop();
  // Quiescent now: the lock tables must be fully drained.
  for (SiteId site = 0; site < 2; ++site) {
    EXPECT_EQ(cluster.site(site).lock_manager().lock_entries(), 0u);
  }
}

// The pool must still serialize conflicting updates correctly: concurrent
// increments through read-modify-write transactions on one hot node lose no
// update that committed.
TEST(StagedEngineTest, MultiWorkerConflictingUpdatesStayConsistent) {
  Cluster cluster(staged_options());
  ASSERT_TRUE(cluster.load_document("d1", kStagedXml, {0, 1}).is_ok());
  ASSERT_TRUE(cluster.start().is_ok());

  constexpr std::size_t kWriters = 6;
  std::atomic<std::size_t> committed{0};
  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (std::size_t w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      auto result = cluster.execute_text(
          static_cast<SiteId>(w % 2),
          {"update d1 insert after /site/people/person[@id='p1'] ::= "
           "<visit writer=\"w" +
           std::to_string(w) + "\"/>"});
      ASSERT_TRUE(result.is_ok());
      if (result.value().state == TxnState::kCommitted) ++committed;
    });
  }
  for (std::thread& writer : writers) writer.join();
  cluster.stop();

  // Every committed insert is present at every replica.
  for (SiteId site = 0; site < 2; ++site) {
    auto xml_text = wal::materialize(cluster.store_of(site), "d1");
    ASSERT_TRUE(xml_text.is_ok());
    std::size_t visits = 0;
    std::string::size_type pos = 0;
    while ((pos = xml_text.value().find("<visit", pos)) !=
           std::string::npos) {
      ++visits;
      pos += 6;
    }
    EXPECT_EQ(visits, committed.load()) << "site " << site;
  }
  EXPECT_GT(committed.load(), 0u);
}

// The client wire protocol works over ANY Network — here SimNetwork: a
// mailbox registered in the client id range sends ClientSubmit to a running
// site and pops the ClientReply, exactly the exchange dtxd serves over TCP.
TEST(StagedEngineTest, ClientProtocolRunsOverSimNetwork) {
  Cluster cluster(small_options());
  ASSERT_TRUE(cluster.load_document("d1", kStagedXml, {0, 1}).is_ok());
  ASSERT_TRUE(cluster.start().is_ok());

  const SiteId client_id = net::kClientIdBase + 7;
  net::Mailbox& inbox = cluster.network().register_site(client_id);

  auto submit_and_await = [&](std::uint64_t seq,
                              std::vector<std::string> texts) {
    net::ClientSubmit submit;
    submit.seq = seq;
    for (const std::string& text : texts) {
      auto op = txn::parse_operation(text);
      EXPECT_TRUE(op.is_ok()) << text;
      submit.ops.push_back(std::move(op).value());
    }
    net::Message message;
    message.from = client_id;
    message.to = 0;
    message.payload = std::move(submit);
    cluster.network().send(std::move(message));
    const auto deadline = std::chrono::steady_clock::now() + 10s;
    while (std::chrono::steady_clock::now() < deadline) {
      auto reply = inbox.pop(100ms);
      if (!reply.has_value()) continue;
      auto* payload = std::get_if<net::ClientReply>(&reply->payload);
      if (payload != nullptr && payload->seq == seq) return *payload;
    }
    return net::ClientReply{};  // seq 0: never sent, fails the asserts below
  };

  const net::ClientReply write = submit_and_await(
      1, {"update d1 change /site/people/person[@id='p1']/phone ::= 4242"});
  ASSERT_EQ(write.seq, 1u);
  ASSERT_TRUE(write.accepted) << write.detail;
  EXPECT_EQ(static_cast<TxnState>(write.state), TxnState::kCommitted);
  EXPECT_GT(write.txn, 0u);

  const net::ClientReply read = submit_and_await(
      2, {"query d1 /site/people/person[@id='p1']/phone"});
  ASSERT_EQ(read.seq, 2u);
  ASSERT_TRUE(read.accepted) << read.detail;
  EXPECT_EQ(static_cast<TxnState>(read.state), TxnState::kCommitted);
  ASSERT_EQ(read.rows.size(), 1u);
  ASSERT_EQ(read.rows[0].size(), 1u);
  EXPECT_NE(read.rows[0][0].find("4242"), std::string::npos);

  // An empty submission is rejected at the door, not silently dropped.
  net::Message empty;
  empty.from = client_id;
  empty.to = 0;
  empty.payload = net::ClientSubmit{3, {}};
  cluster.network().send(std::move(empty));
  const auto deadline = std::chrono::steady_clock::now() + 10s;
  bool rejected = false;
  while (std::chrono::steady_clock::now() < deadline) {
    auto reply = inbox.pop(100ms);
    if (!reply.has_value()) continue;
    auto* payload = std::get_if<net::ClientReply>(&reply->payload);
    if (payload != nullptr && payload->seq == 3) {
      EXPECT_FALSE(payload->accepted);
      EXPECT_FALSE(payload->detail.empty());
      rejected = true;
      break;
    }
  }
  EXPECT_TRUE(rejected) << "empty submit got no rejection reply";
  cluster.stop();
}

// Single-worker, single-shard options must behave exactly like the seed
// engine: a deterministic sequential workload commits everything.
TEST(StagedEngineTest, DefaultOptionsPreserveSequentialBehavior) {
  ClusterOptions options = small_options();
  ASSERT_EQ(options.site.coordinator_workers, 1u);
  ASSERT_EQ(options.site.participant_workers, 1u);
  ASSERT_EQ(options.site.lock_shards, 1u);
  Cluster cluster(options);
  ASSERT_TRUE(cluster.load_document("d1", kStagedXml, {0, 1}).is_ok());
  ASSERT_TRUE(cluster.start().is_ok());
  for (int i = 0; i < 5; ++i) {
    auto result = cluster.execute_text(
        0, {"query d1 /site/people/person/name",
            "update d1 change /site/people/person[@id='p1']/phone ::= " +
                std::to_string(1000 + i)});
    ASSERT_TRUE(result.is_ok());
    ASSERT_EQ(result.value().state, TxnState::kCommitted);
    ASSERT_EQ(result.value().rows[0].size(), 3u);
  }
  const ClusterStats stats = cluster.stats();
  EXPECT_EQ(stats.committed, 5u);
  EXPECT_EQ(stats.aborted + stats.failed, 0u);
}

// --- event-driven coordinator (parked rounds) --------------------------------

ClusterOptions parking_options() {
  ClusterOptions options = small_options();
  options.site.coordinator_workers = 1;
  options.site.response_timeout = std::chrono::microseconds(2'000'000);
  return options;
}

constexpr const char* kTinyXml =
    "<site><people>"
    "<person id=\"p1\"><name>Ana</name><phone>111</phone></person>"
    "</people></site>";

void slow_link(Cluster& cluster, SiteId from, SiteId to) {
  cluster.network().faults([&](net::FaultPlan& plan) {
    net::LinkFault slow;
    slow.extra_delay = std::chrono::microseconds(300'000);
    plan.set_link_fault(from, to, slow);
  });
}

// One worker, one transaction parked on a 300 ms link: a read-only
// transaction on a document the coordinator hosts must not queue behind it.
TEST(EventDrivenCoordinatorTest, ParkedRoundDoesNotDelayLocalRead) {
  Cluster cluster(parking_options());
  ASSERT_TRUE(cluster.load_document("near", kTinyXml, {0}).is_ok());
  ASSERT_TRUE(cluster.load_document("far", kTinyXml, {1}).is_ok());
  ASSERT_TRUE(cluster.start().is_ok());
  slow_link(cluster, 0, 1);

  auto slow = cluster.submit_text(
      0, {"update far change /site/people/person[@id='p1']/phone ::= 7"});
  ASSERT_TRUE(slow.is_ok());
  std::this_thread::sleep_for(20ms);  // its execute round is in flight

  const auto begin = std::chrono::steady_clock::now();
  auto read = cluster.execute_text(0, {"query near /site/people/person/name"});
  const auto elapsed = std::chrono::steady_clock::now() - begin;
  ASSERT_TRUE(read.is_ok());
  EXPECT_EQ(read.value().state, TxnState::kCommitted);
  EXPECT_LT(elapsed, 100ms);
  EXPECT_FALSE(slow.value()->completed())
      << "the slow transaction finished before the read; nothing was tested";

  const auto result = slow.value()->await_for(5s);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->state, TxnState::kCommitted);
}

/// Runs `op` at site 0 against a document only site 1 hosts while every
/// `Dropped` reply is lost: the round must time out on schedule.
template <typename Dropped>
void expect_round_times_out(const std::string& op) {
  constexpr auto kTimeout = std::chrono::microseconds(200'000);
  ClusterOptions options = parking_options();
  options.site.response_timeout = kTimeout;
  Cluster cluster(options);
  ASSERT_TRUE(cluster.load_document("far", kTinyXml, {1}).is_ok());
  ASSERT_TRUE(cluster.start().is_ok());
  cluster.network().faults([](net::FaultPlan& plan) {
    plan.set_message_filter([](const net::Message& message) {
      return std::holds_alternative<Dropped>(message.payload);
    });
  });
  const auto begin = std::chrono::steady_clock::now();
  auto result = cluster.execute_text(0, {op});
  const auto elapsed = std::chrono::steady_clock::now() - begin;
  ASSERT_TRUE(result.is_ok());
  EXPECT_EQ(result.value().state, TxnState::kAborted);
  EXPECT_EQ(result.value().reason, txn::AbortReason::kSiteFailure);
  EXPECT_GE(elapsed, kTimeout);
  EXPECT_LE(elapsed, kTimeout + 100ms);
  cluster.stop();
}

TEST(EventDrivenCoordinatorTest, DroppedOperationResultTimesOutOnSchedule) {
  expect_round_times_out<net::OperationResult>(
      "update far change /site/people/person[@id='p1']/phone ::= 7");
}

TEST(EventDrivenCoordinatorTest, DroppedSnapshotReplyTimesOutOnSchedule) {
  expect_round_times_out<net::SnapshotReadReply>(
      "query far /site/people/person/name");
}

// A victim abort that reaches the coordinator while the victim is parked
// is deferred (the round holds the claim) and runs once the replies are
// in; the abort round then cleans the participant up.
TEST(EventDrivenCoordinatorTest, VictimChosenWhileParkedAbortsAfterReplies) {
  Cluster cluster(parking_options());
  ASSERT_TRUE(cluster.load_document("far", kTinyXml, {1}).is_ok());
  ASSERT_TRUE(cluster.start().is_ok());
  slow_link(cluster, 0, 1);

  const auto begin = std::chrono::steady_clock::now();
  auto victim = cluster.submit_text(
      0, {"update far change /site/people/person[@id='p1']/phone ::= 8"});
  ASSERT_TRUE(victim.is_ok());
  std::this_thread::sleep_for(50ms);  // its execute round is in flight
  // The message Alg. 4's detector sends to a remote victim's coordinator.
  cluster.network().send(
      net::Message{1, 0, net::VictimAbort{victim.value()->id()}});

  const auto result = victim.value()->await_for(5s);
  const auto elapsed = std::chrono::steady_clock::now() - begin;
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->state, TxnState::kAborted);
  EXPECT_TRUE(result->deadlock_victim);
  EXPECT_EQ(result->reason, txn::AbortReason::kDeadlockVictim);
  EXPECT_GE(elapsed, 300ms) << "aborted before its execute replies arrived";

  for (SiteId site = 0; site < 2; ++site) {
    EXPECT_EQ(cluster.site(site).lock_manager().lock_entries(), 0u)
        << "site " << site;
  }
  cluster.stop();
}

}  // namespace
}  // namespace dtx::core

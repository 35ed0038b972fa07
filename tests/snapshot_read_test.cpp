// MVCC snapshot-read correctness (src/dtx/snapshot_store.*,
// snapshot_read.*, the coordinator fast path):
//
//  * visibility — a read-only transaction sees the latest committed state,
//    including across the remote (SnapshotReadRequest) serving path;
//  * isolation — the lock-free path acquires zero locks and adds zero
//    wait-for entries (asserted by counters, not by construction);
//  * consistent cuts — a transaction updating several documents is seen
//    either entirely or not at all by concurrent multi-document readers;
//  * chain lifecycle — a handed-out snapshot stays valid (pinned by its
//    shared_ptr) across later commits, checkpoints and pruning; bounded
//    chains fall back to wal::materialize instead of failing;
//  * the locked baseline (SiteOptions::snapshot_reads = false) still
//    routes read-only transactions through the lock manager.
#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "client/client.hpp"
#include "client/txn_builder.hpp"
#include "dtx/cluster.hpp"
#include "dtx/data_manager.hpp"
#include "dtx/snapshot_store.hpp"
#include "dtx/wal.hpp"
#include "query/plan.hpp"
#include "storage/memory_store.hpp"
#include "xpath/evaluator.hpp"
#include "xpath/parser.hpp"

namespace dtx::core {
namespace {

using namespace std::chrono_literals;
using txn::TxnState;

constexpr const char* kPeopleXml =
    "<site><people>"
    "<person id=\"p1\"><name>Ana</name><phone>111</phone></person>"
    "<person id=\"p2\"><name>Bruno</name><phone>222</phone></person>"
    "</people></site>";

ClusterOptions fast_options(std::size_t sites) {
  ClusterOptions options;
  options.site_count = sites;
  options.network.latency = std::chrono::microseconds(50);
  options.site.detect_period = std::chrono::microseconds(5'000);
  options.site.retry_interval = std::chrono::microseconds(10'000);
  options.site.poll_interval = std::chrono::microseconds(500);
  return options;
}

std::vector<std::string> eval(const SnapshotStore::DocView& view,
                              const std::string& path_text) {
  auto path = xpath::parse(path_text);
  EXPECT_TRUE(path.is_ok()) << path.status().to_string();
  return xpath::evaluate_strings(path.value(), *view.tree);
}

// --- cluster-level visibility / isolation ------------------------------------

TEST(SnapshotReadTest, ReadOnlyTxnSeesLatestCommittedState) {
  Cluster cluster(fast_options(2));
  ASSERT_TRUE(cluster.load_document("d1", kPeopleXml, {0, 1}).is_ok());
  ASSERT_TRUE(cluster.start().is_ok());

  auto updated = cluster.execute_text(
      0, {"update d1 change /site/people/person[@id='p1']/phone ::= 999"});
  ASSERT_TRUE(updated.is_ok());
  ASSERT_EQ(updated.value().state, TxnState::kCommitted);

  auto read = cluster.execute_text(
      0, {"query d1 /site/people/person[@id='p1']/phone"});
  ASSERT_TRUE(read.is_ok());
  ASSERT_EQ(read.value().state, TxnState::kCommitted);
  ASSERT_EQ(read.value().rows.size(), 1u);
  ASSERT_EQ(read.value().rows[0].size(), 1u);
  EXPECT_EQ(read.value().rows[0][0], "999");
  EXPECT_GE(cluster.stats().snapshot_txns, 1u);
}

TEST(SnapshotReadTest, RemoteServingPathAnswersForUnhostedDocuments) {
  // d2 lives only on site 1; a read-only transaction submitted at site 0
  // must be served through a SnapshotReadRequest round to site 1.
  Cluster cluster(fast_options(2));
  ASSERT_TRUE(cluster.load_document("d1", kPeopleXml, {0}).is_ok());
  ASSERT_TRUE(cluster.load_document("d2", kPeopleXml, {1}).is_ok());
  ASSERT_TRUE(cluster.start().is_ok());

  auto read = cluster.execute_text(
      0, {"query d1 /site/people/person/name",
          "query d2 /site/people/person/name"});
  ASSERT_TRUE(read.is_ok());
  ASSERT_EQ(read.value().state, TxnState::kCommitted);
  ASSERT_EQ(read.value().rows.size(), 2u);
  EXPECT_EQ(read.value().rows[0].size(), 2u);
  EXPECT_EQ(read.value().rows[1].size(), 2u);
  EXPECT_GE(cluster.stats().snapshot_txns, 1u);
}

TEST(SnapshotReadTest, ReadOnlyTxnsAcquireZeroLocksAndNoWfgEntries) {
  Cluster cluster(fast_options(2));
  ASSERT_TRUE(cluster.load_document("d1", kPeopleXml, {0, 1}).is_ok());
  ASSERT_TRUE(cluster.load_document("d2", kPeopleXml, {1}).is_ok());
  ASSERT_TRUE(cluster.start().is_ok());

  const std::uint64_t locks_before = cluster.stats().lock_acquisitions;
  constexpr std::size_t kReads = 5;
  for (std::size_t i = 0; i < kReads; ++i) {
    auto read = cluster.execute_text(
        0, {"query d1 /site/people/person/phone",
            "query d2 /site/people/person/name"});
    ASSERT_TRUE(read.is_ok());
    ASSERT_EQ(read.value().state, TxnState::kCommitted);
  }
  const ClusterStats after = cluster.stats();
  EXPECT_EQ(after.lock_acquisitions, locks_before)
      << "read-only transactions must not touch the lock manager";
  EXPECT_EQ(after.snapshot_txns, kReads);
  EXPECT_GE(after.snapshots.reads, kReads);
  for (net::SiteId site = 0; site < 2; ++site) {
    EXPECT_TRUE(cluster.site(site).lock_manager().wfg_edges().empty())
        << "site " << site;
  }
}

TEST(SnapshotReadTest, LockedBaselineStillServesReadsThroughLockManager) {
  ClusterOptions options = fast_options(2);
  options.site.snapshot_reads = false;
  Cluster cluster(options);
  ASSERT_TRUE(cluster.load_document("d1", kPeopleXml, {0, 1}).is_ok());
  ASSERT_TRUE(cluster.start().is_ok());

  const std::uint64_t locks_before = cluster.stats().lock_acquisitions;
  auto read =
      cluster.execute_text(0, {"query d1 /site/people/person/phone"});
  ASSERT_TRUE(read.is_ok());
  ASSERT_EQ(read.value().state, TxnState::kCommitted);
  const ClusterStats after = cluster.stats();
  EXPECT_EQ(after.snapshot_txns, 0u);
  EXPECT_EQ(after.snapshots.reads, 0u);
  EXPECT_GT(after.lock_acquisitions, locks_before);
}

TEST(SnapshotReadTest, MultiDocumentCutIsNeverTorn) {
  // One writer commits {d1.phone = vi, d2.phone = vi} atomically; readers
  // snapshot both documents in one transaction. A consistent cut must show
  // the same vi on both sides — seeing d1 at vi and d2 at v(i-1) would be
  // a torn read across the atomic commit batch.
  Cluster cluster(fast_options(2));
  ASSERT_TRUE(cluster.load_document("d1", kPeopleXml, {0, 1}).is_ok());
  ASSERT_TRUE(cluster.load_document("d2", kPeopleXml, {0, 1}).is_ok());
  ASSERT_TRUE(cluster.start().is_ok());
  // Align the two documents before the race starts (the seeds differ only
  // in the base XML's phone, which is already equal).
  client::Client client(cluster);

  std::atomic<bool> stop{false};
  std::atomic<std::size_t> torn{0};
  std::thread writer([&] {
    client::SessionOptions session_options;
    session_options.retry.max_deadlock_retries = 3;
    client::Session session = client.session(session_options);
    for (int i = 1; i <= 40 && !stop.load(); ++i) {
      const std::string value = "v" + std::to_string(i);
      auto prepared =
          client::TxnBuilder()
              .change("d1", "/site/people/person[@id='p1']/phone", value)
              .change("d2", "/site/people/person[@id='p1']/phone", value)
              .build();
      ASSERT_TRUE(prepared.is_ok());
      auto result = session.execute(prepared.value());
      ASSERT_TRUE(result.is_ok());
    }
    stop.store(true);
  });
  std::vector<std::thread> readers;
  for (int reader = 0; reader < 2; ++reader) {
    readers.emplace_back([&] {
      client::Session session = client.session();
      auto prepared =
          client::TxnBuilder()
              .query("d1", "/site/people/person[@id='p1']/phone")
              .query("d2", "/site/people/person[@id='p1']/phone")
              .build();
      ASSERT_TRUE(prepared.is_ok());
      while (!stop.load()) {
        auto result = session.execute(prepared.value());
        ASSERT_TRUE(result.is_ok());
        if (result.value().state != TxnState::kCommitted) continue;
        ASSERT_EQ(result.value().rows.size(), 2u);
        if (result.value().rows[0] != result.value().rows[1]) ++torn;
      }
    });
  }
  writer.join();
  for (std::thread& thread : readers) thread.join();
  EXPECT_EQ(torn.load(), 0u);
  EXPECT_GT(cluster.stats().snapshot_txns, 0u);
}

// --- SnapshotStore unit behavior ---------------------------------------------

struct StoreFixture {
  storage::MemoryStore store;
  SnapshotStore snaps;
  DataManager manager;

  explicit StoreFixture(std::size_t checkpoint_interval = 1 << 16,
                        std::size_t chain_depth = 32)
      : snaps(store, /*enabled=*/true, chain_depth, /*chain_bytes=*/0),
        manager(store, checkpoint_interval, /*checkpoint_log_bytes=*/0,
                &snaps) {
    EXPECT_TRUE(store.store("d", kPeopleXml).is_ok());
    EXPECT_TRUE(manager.load_all().is_ok());
  }

  /// One committed phone change.
  void commit_change(TxnId txn, const std::string& value) {
    commit(txn, "update d change /site/people/person[@id='p1']/phone ::= " +
                    value);
  }

  /// One committed update operation, then any checkpoint it makes due.
  void commit(TxnId txn, const std::string& update) {
    auto plan = query::compile_text(update);
    ASSERT_TRUE(plan.is_ok()) << plan.status().to_string();
    ASSERT_TRUE(manager.run_update(txn, plan.value()).is_ok());
    std::vector<std::string> due;
    ASSERT_TRUE(manager.persist(txn, &due).is_ok());
    manager.run_checkpoints(due);
  }
};

TEST(SnapshotStoreTest, EarlyCutStaysPinnedAcrossCommitsAndCheckpoints) {
  // checkpoint_interval=2 compacts (and prunes the chain) constantly; the
  // handed-out shared_ptr is the pin, so the old view must keep serving
  // its original content regardless.
  StoreFixture fx(/*checkpoint_interval=*/2, /*chain_depth=*/2);
  auto early = fx.snaps.snapshot({"d"});
  ASSERT_TRUE(early.is_ok()) << early.status().to_string();
  const auto early_view = early.value().at("d");

  for (TxnId txn = 100; txn < 120; ++txn) {
    fx.commit_change(txn, "n" + std::to_string(txn));
  }

  const auto phones =
      eval(early_view, "/site/people/person[@id='p1']/phone");
  ASSERT_EQ(phones.size(), 1u);
  EXPECT_EQ(phones[0], "111") << "pinned snapshot changed under the reader";

  auto fresh = fx.snaps.snapshot({"d"});
  ASSERT_TRUE(fresh.is_ok());
  const auto now =
      eval(fresh.value().at("d"), "/site/people/person[@id='p1']/phone");
  ASSERT_EQ(now.size(), 1u);
  EXPECT_EQ(now[0], "n119");
  EXPECT_GT(fresh.value().at("d").version, early_view.version);
}

TEST(SnapshotStoreTest, DeltaChainAdvancesWithoutMaterializing) {
  StoreFixture fx;
  // The very first cut has no cached tree and must materialize the base.
  ASSERT_TRUE(fx.snaps.snapshot({"d"}).is_ok());
  const std::uint64_t base_materializes = fx.snaps.stats().materializes;
  for (TxnId txn = 200; txn < 205; ++txn) {
    fx.commit_change(txn, "m" + std::to_string(txn));
    auto cut = fx.snaps.snapshot({"d"});
    ASSERT_TRUE(cut.is_ok());
  }
  const SnapshotStats stats = fx.snaps.stats();
  EXPECT_EQ(stats.materializes, base_materializes)
      << "an unbroken delta chain must never re-read the store";
  EXPECT_GT(stats.chain_bytes_peak, 0u);
}

TEST(SnapshotStoreTest, PrunedChainFallsBackToMaterialize) {
  // chain_depth=1 keeps at most one delta: after several commits with no
  // intervening reads the cached tree is too old to roll forward, so the
  // next cut must rebuild from the durable log (and count it).
  StoreFixture fx(/*checkpoint_interval=*/1 << 16, /*chain_depth=*/1);
  ASSERT_TRUE(fx.snaps.snapshot({"d"}).is_ok());
  for (TxnId txn = 300; txn < 306; ++txn) {
    fx.commit_change(txn, "q" + std::to_string(txn));
  }
  auto cut = fx.snaps.snapshot({"d"});
  ASSERT_TRUE(cut.is_ok()) << cut.status().to_string();
  const auto phones =
      eval(cut.value().at("d"), "/site/people/person[@id='p1']/phone");
  ASSERT_EQ(phones.size(), 1u);
  EXPECT_EQ(phones[0], "q305");
  EXPECT_GE(fx.snaps.stats().materializes, 1u);
}

TEST(SnapshotStoreTest, UnpinnedOlderTreesLeaveTheCache) {
  // A reader pinning version v forces the next cut to clone; once the pin
  // is gone, the next cached version must not keep v's full tree alive.
  StoreFixture fx;
  std::optional<SnapshotStore::Cut> pinned;
  {
    auto cut = fx.snaps.snapshot({"d"});
    ASSERT_TRUE(cut.is_ok());
    pinned = std::move(cut).value();
  }
  fx.commit_change(400, "c400");
  const std::uint64_t clones_before = fx.snaps.stats().clones;
  ASSERT_TRUE(fx.snaps.snapshot({"d"}).is_ok());
  EXPECT_EQ(fx.snaps.stats().clones, clones_before + 1)
      << "a pinned base must be cloned, not advanced in place";
  EXPECT_EQ(fx.snaps.stats().cached_trees, 2u) << "pinned tree + its clone";
  pinned.reset();
  fx.commit_change(401, "c401");
  auto latest = fx.snaps.snapshot({"d"});
  ASSERT_TRUE(latest.is_ok());
  EXPECT_EQ(fx.snaps.stats().cached_trees, 1u)
      << "the unpinned older tree must leave the cache";
  const auto phones =
      eval(latest.value().at("d"), "/site/people/person[@id='p1']/phone");
  ASSERT_EQ(phones.size(), 1u);
  EXPECT_EQ(phones[0], "c401");
}

TEST(SnapshotStoreTest, PointQueriesAgreeOnAdvancedClonedAndMaterializedTrees) {
  // The versions insert an entity with a new id, rename its element, then
  // remove it. Each version is read from a tree the store advanced in place
  // (no reader pins its base), from a clone (a reader pins each base) and
  // from wal::materialize_at; the point queries, which the attribute index
  // answers, must return the same rows from all three.
  const std::vector<std::string> updates = {
      "update d insert into /site/people ::= "
      "<person id=\"p9\"><name>Nina</name></person>",
      "update d rename /site/people/person[@id='p9'] ::= vip",
      "update d remove /site/people/vip[@id='p9']",
  };
  const std::vector<std::vector<std::string>> expected_names = {
      {"Nina"}, {}, {}};
  const std::vector<std::string> queries = {
      "/site/people/person[@id='p9']/name", "//person[@id='p9']",
      "//vip[@id='p9']", "/site/people/*[@id='p9']/name",
      "//person[@id='p2']/name"};

  StoreFixture in_place;
  StoreFixture cloned;
  ASSERT_TRUE(in_place.snaps.snapshot({"d"}).is_ok());
  auto pinned = cloned.snaps.snapshot({"d"});
  ASSERT_TRUE(pinned.is_ok());
  for (std::size_t i = 0; i < updates.size(); ++i) {
    in_place.commit(500 + i, updates[i]);
    cloned.commit(500 + i, updates[i]);
    auto advanced = in_place.snaps.snapshot({"d"});
    auto copy = cloned.snaps.snapshot({"d"});
    ASSERT_TRUE(advanced.is_ok() && copy.is_ok());
    pinned = copy;  // pins this version, so the next one is cloned
    const SnapshotStore::DocView& a = advanced.value().at("d");
    const SnapshotStore::DocView& b = copy.value().at("d");
    ASSERT_EQ(a.version, b.version);
    auto materialized = wal::materialize_at(in_place.store, "d", a.version);
    ASSERT_TRUE(materialized.is_ok()) << materialized.status().to_string();
    const SnapshotStore::DocView m{a.version,
                                   std::move(materialized).value()};
    EXPECT_EQ(eval(a, queries[0]), expected_names[i]) << "version " << i;
    EXPECT_EQ(eval(a, "//vip[@id='p9']").size(), i == 1 ? 1u : 0u);
    for (const std::string& query : queries) {
      EXPECT_EQ(eval(a, query), eval(b, query)) << query << " version " << i;
      EXPECT_EQ(eval(a, query), eval(m, query)) << query << " version " << i;
    }
  }
  EXPECT_EQ(in_place.snaps.stats().clones, 0u);
  EXPECT_EQ(cloned.snaps.stats().clones, updates.size());
  EXPECT_EQ(in_place.snaps.stats().materializes, 1u) << "only the base";
}

TEST(SnapshotStoreTest, UnknownDocumentIsRejected) {
  StoreFixture fx;
  auto cut = fx.snaps.snapshot({"nope"});
  EXPECT_FALSE(cut.is_ok());
}

TEST(SnapshotStoreTest, StressReadersVsWritersVsCheckpoints) {
  // TSAN target: concurrent cuts race commits and checkpoint pruning.
  // Every cut must parse as a consistent document version — monotone
  // versions per reader, content matching the version's committed value.
  ClusterOptions options = fast_options(2);
  options.site.checkpoint_interval = 2;   // prune / compact constantly
  options.site.snapshot_chain_depth = 2;  // force materialize fallbacks too
  Cluster cluster(options);
  ASSERT_TRUE(cluster.load_document("d1", kPeopleXml, {0, 1}).is_ok());
  ASSERT_TRUE(cluster.start().is_ok());
  client::Client client(cluster);

  std::atomic<bool> stop{false};
  std::thread writer([&] {
    client::SessionOptions session_options;
    session_options.retry.max_deadlock_retries = 3;
    client::Session session = client.session(session_options);
    for (int i = 0; i < 30; ++i) {
      auto prepared =
          client::TxnBuilder()
              .change("d1", "/site/people/person[@id='p2']/phone",
                      "w" + std::to_string(i))
              .build();
      ASSERT_TRUE(prepared.is_ok());
      auto result = session.execute(prepared.value());
      ASSERT_TRUE(result.is_ok());
    }
    stop.store(true);
  });
  std::vector<std::thread> readers;
  for (int reader = 0; reader < 3; ++reader) {
    readers.emplace_back([&] {
      client::Session session = client.session();
      auto prepared = client::TxnBuilder()
                          .query("d1", "/site/people/person/phone")
                          .build();
      ASSERT_TRUE(prepared.is_ok());
      while (!stop.load()) {
        auto result = session.execute(prepared.value());
        ASSERT_TRUE(result.is_ok());
        if (result.value().state == TxnState::kCommitted) {
          ASSERT_EQ(result.value().rows.size(), 1u);
          ASSERT_EQ(result.value().rows[0].size(), 2u);
        }
      }
    });
  }
  writer.join();
  for (std::thread& thread : readers) thread.join();
  EXPECT_GT(cluster.stats().snapshot_txns, 0u);
}

}  // namespace
}  // namespace dtx::core

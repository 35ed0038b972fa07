// SnapshotStore: the multi-version read layer of one site (MVCC).
//
// Read-only transactions are served from immutable versioned document
// snapshots instead of the locked live tree: they acquire no locks, add no
// wait-for edges and can never deadlock (dtx/coordinator.cpp routes them
// down the snapshot-read path). The store keeps, per document,
//
//   * the committed version counter, advanced by DataManager::persist.
//     publish() runs inside persist, under the same exclusive data latch
//     that serializes commits, so publish order == commit order == WAL
//     record order, and one committing transaction's documents land in a
//     single publish() call — a cut can never observe half a commit;
//   * a bounded delta chain: the committed update operations of the most
//     recent commits (copy-on-commit of the O(delta) redo text, the same
//     bytes the WAL logs), so a cached tree advances to a newer version by
//     replaying a few deltas instead of re-parsing the document;
//   * a small cache of materialized immutable trees, handed out as
//     shared_ptr<const Document>. The handout IS the pin: a reader's cut
//     keeps its trees alive for the life of the transaction, so a
//     long-running read-only transaction keeps a stable, never-torn view
//     no matter how far the chain moves on or what pruning drops.
//
// A consistent cut is captured in two phases. Under the store mutex the
// target version of every requested document is recorded atomically; then,
// per document, an immutable tree at exactly that version is resolved:
// exact cache hit, or the nearest older cached tree advanced through chain
// deltas (cloned first when other readers still pin it), or — when the
// target aged out of the chain — wal::materialize_at rebuilds it from the
// checkpoint snapshot + log tail. A checkpoint can compact the durable log
// past a captured version inside the capture→resolve window; snapshot()
// then re-captures a fresher cut (counted in cut_retries).
//
// Versions are this replica's commit positions (see dtx/wal.hpp): a cut is
// consistent per serving site. The write path's strict 2PL orders
// conflicting commits identically at every replica, so a per-site cut is
// a snapshot-isolation view of the data that site serves.
//
// Thread-safe; internally synchronized. Lock order: store mutex_ → one
// per-document mutex; nothing here calls back into the engine, so the
// mutexes are leaves of the site's lock graph.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "storage/storage.hpp"
#include "util/status.hpp"
#include "util/sync.hpp"
#include "xml/document.hpp"

namespace dtx::core {

/// MVCC accounting, surfaced via SiteStats / ClusterStats / inspector.
struct SnapshotStats {
  std::uint64_t reads = 0;         ///< document views served into cuts
  std::uint64_t chain_hits = 0;    ///< exact cache hit or delta advance
  std::uint64_t materializes = 0;  ///< WAL fallback rebuilds
  std::uint64_t clones = 0;        ///< copy-on-advance (base was pinned)
  std::uint64_t cut_retries = 0;   ///< cut re-captures (checkpoint race)
  std::uint64_t chain_bytes = 0;       ///< current delta-chain memory
  std::uint64_t chain_bytes_peak = 0;  ///< high-water mark
  std::uint64_t cached_trees = 0;      ///< materialized trees cached now

  /// Cluster aggregation: counters sum; the byte gauges sum too, i.e. the
  /// cluster-wide chain memory (per-site peaks are in the site stats).
  void merge(const SnapshotStats& other) {
    reads += other.reads;
    chain_hits += other.chain_hits;
    materializes += other.materializes;
    clones += other.clones;
    cut_retries += other.cut_retries;
    chain_bytes += other.chain_bytes;
    chain_bytes_peak += other.chain_bytes_peak;
    cached_trees += other.cached_trees;
  }
};

class SnapshotStore {
 public:
  using TreePtr = std::shared_ptr<const xml::Document>;

  /// One document of a cut: an immutable tree at exactly `version`.
  struct DocView {
    std::uint64_t version = 0;
    TreePtr tree;
  };
  /// A consistent cut: every requested document at the committed version
  /// the capture observed atomically.
  using Cut = std::map<std::string, DocView>;

  /// One committed transaction's updates to one document — the redo
  /// operation texts the WAL logged, at the post-commit version.
  struct Delta {
    std::string doc;
    std::uint64_t version = 0;
    std::vector<std::string> ops;
  };

  /// `chain_depth` / `chain_bytes` bound the per-document delta chain
  /// (0 = unbounded). When `enabled` is false the store is inert: publish
  /// is a no-op and the locked baseline pays zero chain maintenance.
  SnapshotStore(storage::StorageBackend& store, bool enabled,
                std::size_t chain_depth, std::size_t chain_bytes);

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  /// Registers a loaded document at its recovered version (DataManager::
  /// load_all). Trees are materialized lazily on first read. Re-registering
  /// an adopted replica resets its chain (the old deltas belong to the
  /// dropped copy).
  void register_doc(const std::string& doc, std::uint64_t version);

  /// Unregisters a dropped replica. The state shell is retired, not
  /// destroyed — snapshot() captures raw DocState pointers outside the
  /// store mutex, so an in-flight cut may still resolve against it (and
  /// falls back to the WAL when the cleared cache misses). Trees and
  /// deltas are released immediately.
  void drop_doc(const std::string& doc);

  /// Publishes one committed transaction's deltas — every document it
  /// updated, in one atomic step. Called by DataManager::persist under the
  /// exclusive data latch, after the WAL append.
  void publish(std::vector<Delta> deltas);

  /// Checkpoint hook: versions below `version` are no longer durable in
  /// the log, so their deltas and cached trees are pruned. Cuts already
  /// handed out keep their pinned trees; a cut captured-but-unresolved
  /// across this boundary re-captures.
  void on_checkpoint(const std::string& doc, std::uint64_t version);

  /// Captures and resolves a consistent cut over `docs` (duplicates are
  /// fine). kNotFound when a document is not stored at this site.
  [[nodiscard]] util::Result<Cut> snapshot(const std::vector<std::string>& docs);

  [[nodiscard]] SnapshotStats stats() const;

 private:
  struct DeltaRec {
    std::vector<std::string> ops;
    std::size_t bytes = 0;
  };
  struct DocState {
    /// Committed version — guarded by the store-wide mutex_ so a cut's
    /// capture phase sees every document at one instant. (Annotated at
    /// the use sites: a nested struct cannot name the owner's mutex_.)
    std::uint64_t committed = 0;
    /// Guards trees / deltas below. Taken after mutex_ (or alone).
    sync::Mutex mutex{sync::LockRank::kSnapshotDoc};
    /// Materialized immutable trees by version. Mutable only while the
    /// map is the sole owner; once handed out a tree is frozen.
    std::map<std::uint64_t, std::shared_ptr<xml::Document>> trees
        DTX_GUARDED_BY(mutex);
    std::map<std::uint64_t, DeltaRec> deltas DTX_GUARDED_BY(mutex);
    std::size_t delta_bytes DTX_GUARDED_BY(mutex) = 0;
  };

  /// Resolves an immutable tree of `doc` at exactly `version`; takes the
  /// doc mutex. Caches the result.
  util::Result<TreePtr> resolve(const std::string& doc, DocState& state,
                                std::uint64_t version)
      DTX_EXCLUDES(mutex_);
  /// Inserts a resolved tree into the cache, dropping older trees no
  /// reader pins and the oldest versions past the cache cap, and returns
  /// the handout pointer.
  TreePtr insert_tree(DocState& state, std::uint64_t version,
                      std::shared_ptr<xml::Document> tree)
      DTX_REQUIRES(state.mutex);
  /// Drops the oldest deltas until the depth / byte bounds hold. Both
  /// mutexes held.
  void prune_chain(DocState& state)
      DTX_REQUIRES(mutex_, state.mutex);

  storage::StorageBackend& store_;
  const bool enabled_;
  const std::size_t chain_depth_;
  const std::size_t chain_bytes_;

  mutable sync::Mutex mutex_{
      sync::LockRank::kSnapshotStore};  ///< doc map + every committed counter
  std::map<std::string, std::unique_ptr<DocState>> docs_
      DTX_GUARDED_BY(mutex_);
  /// Dropped replicas' state shells, kept alive for stray in-flight cuts
  /// (see drop_doc). Cleared of trees/deltas, so each is a few hundred
  /// bytes; membership changes are rare enough that this never matters.
  std::vector<std::unique_ptr<DocState>> retired_ DTX_GUARDED_BY(mutex_);
  std::uint64_t total_chain_bytes_ DTX_GUARDED_BY(mutex_) = 0;
  std::uint64_t chain_bytes_peak_ DTX_GUARDED_BY(mutex_) = 0;

  std::atomic<std::uint64_t> reads_{0};
  std::atomic<std::uint64_t> chain_hits_{0};
  std::atomic<std::uint64_t> materializes_{0};
  std::atomic<std::uint64_t> clones_{0};
  std::atomic<std::uint64_t> cut_retries_{0};
};

}  // namespace dtx::core

#include "dtx/snapshot_store.hpp"

#include <utility>

#include "dtx/wal.hpp"

namespace dtx::core {

using util::Code;
using util::Result;
using util::Status;

namespace {

/// Materialized trees cached per document. Small on purpose: the common
/// shape is every reader at (or near) the committed head, so one or two
/// trees absorb almost all cuts; genuine laggards fall back to the WAL.
constexpr std::size_t kTreeCacheDepth = 4;

}  // namespace

SnapshotStore::SnapshotStore(storage::StorageBackend& store, bool enabled,
                             std::size_t chain_depth, std::size_t chain_bytes)
    : store_(store),
      enabled_(enabled),
      chain_depth_(chain_depth),
      chain_bytes_(chain_bytes) {}

void SnapshotStore::register_doc(const std::string& doc,
                                 std::uint64_t version) {
  sync::MutexLock lock(mutex_);
  auto it = docs_.find(doc);
  if (it == docs_.end()) {
    it = docs_.emplace(doc, std::make_unique<DocState>()).first;
  } else {
    // Re-registration (replica adoption): the cached trees and deltas
    // describe the replaced copy's version history, not the adopted one's.
    sync::MutexLock doc_lock(it->second->mutex);
    it->second->trees.clear();
    it->second->deltas.clear();
    total_chain_bytes_ -= it->second->delta_bytes;
    it->second->delta_bytes = 0;
  }
  it->second->committed = version;
}

void SnapshotStore::drop_doc(const std::string& doc) {
  std::unique_ptr<DocState> victim;
  {
    sync::MutexLock lock(mutex_);
    const auto it = docs_.find(doc);
    if (it == docs_.end()) return;
    victim = std::move(it->second);
    docs_.erase(it);
    {
      sync::MutexLock doc_lock(victim->mutex);
      victim->trees.clear();
      victim->deltas.clear();
      total_chain_bytes_ -= victim->delta_bytes;
      victim->delta_bytes = 0;
    }
    retired_.push_back(std::move(victim));
  }
}

void SnapshotStore::publish(std::vector<Delta> deltas) {
  if (!enabled_) return;
  sync::MutexLock lock(mutex_);
  for (Delta& delta : deltas) {
    auto it = docs_.find(delta.doc);
    if (it == docs_.end()) {
      it = docs_.emplace(delta.doc, std::make_unique<DocState>()).first;
    }
    DocState& state = *it->second;
    sync::MutexLock doc_lock(state.mutex);
    std::size_t bytes = 0;
    for (const std::string& op : delta.ops) bytes += op.size();
    state.deltas[delta.version] = DeltaRec{std::move(delta.ops), bytes};
    state.delta_bytes += bytes;
    total_chain_bytes_ += bytes;
    if (delta.version > state.committed) state.committed = delta.version;
    prune_chain(state);
    if (total_chain_bytes_ > chain_bytes_peak_) {
      chain_bytes_peak_ = total_chain_bytes_;
    }
  }
}

void SnapshotStore::prune_chain(DocState& state) {
  const auto drop_oldest = [&] {
    const auto oldest = state.deltas.begin();
    state.delta_bytes -= oldest->second.bytes;
    total_chain_bytes_ -= oldest->second.bytes;
    state.deltas.erase(oldest);
  };
  if (chain_depth_ != 0) {
    while (state.deltas.size() > chain_depth_) drop_oldest();
  }
  if (chain_bytes_ != 0) {
    while (state.delta_bytes > chain_bytes_ && !state.deltas.empty()) {
      drop_oldest();
    }
  }
}

void SnapshotStore::on_checkpoint(const std::string& doc,
                                  std::uint64_t version) {
  if (!enabled_) return;
  sync::MutexLock lock(mutex_);
  const auto it = docs_.find(doc);
  if (it == docs_.end()) return;
  DocState& state = *it->second;
  sync::MutexLock doc_lock(state.mutex);
  // The log was compacted to `version`: trees below it can no longer be
  // rebuilt from the store, and deltas at or below it can only extend
  // bases that are being pruned with them — drop both. Handed-out cuts
  // are unaffected (their shared_ptrs pin the trees); a cut captured but
  // not yet resolved across this boundary re-captures.
  while (!state.deltas.empty() && state.deltas.begin()->first <= version) {
    state.delta_bytes -= state.deltas.begin()->second.bytes;
    total_chain_bytes_ -= state.deltas.begin()->second.bytes;
    state.deltas.erase(state.deltas.begin());
  }
  while (!state.trees.empty() && state.trees.begin()->first < version) {
    state.trees.erase(state.trees.begin());
  }
}

SnapshotStore::TreePtr SnapshotStore::insert_tree(
    DocState& state, std::uint64_t version,
    std::shared_ptr<xml::Document> tree) {
  state.trees[version] = tree;
  // Cuts only move forward, so an older tree is worth its memory (a full
  // document) only while a reader still pins it. A rare laggard cut that
  // needs a dropped version falls back to wal::materialize_at.
  for (auto it = state.trees.begin();
       it != state.trees.end() && it->first < version;) {
    if (it->second.use_count() == 1) {
      it = state.trees.erase(it);
    } else {
      ++it;
    }
  }
  while (state.trees.size() > kTreeCacheDepth) {
    state.trees.erase(state.trees.begin());
  }
  return TreePtr(std::move(tree));
}

Result<SnapshotStore::TreePtr> SnapshotStore::resolve(const std::string& doc,
                                                      DocState& state,
                                                      std::uint64_t version) {
  sync::MutexLock lock(state.mutex);
  const auto exact = state.trees.find(version);
  if (exact != state.trees.end()) {
    chain_hits_.fetch_add(1, std::memory_order_relaxed);
    return TreePtr(exact->second);
  }

  // Nearest older cached tree. If its delta chain up to `version` is
  // incomplete, any older base needs a superset of those deltas — so this
  // is the only candidate worth checking.
  auto below = state.trees.lower_bound(version);
  if (below != state.trees.begin()) {
    --below;
    bool complete = true;
    for (std::uint64_t v = below->first + 1; v <= version; ++v) {
      if (state.deltas.find(v) == state.deltas.end()) {
        complete = false;
        break;
      }
    }
    if (complete) {
      const std::uint64_t base_version = below->first;
      std::shared_ptr<xml::Document> tree;
      if (below->second.use_count() == 1) {
        // The cache is the sole owner: no handed-out cut can reach this
        // tree (handouts only happen under this mutex), so it advances in
        // place instead of being copied.
        tree = std::move(below->second);
        state.trees.erase(below);
      } else {
        clones_.fetch_add(1, std::memory_order_relaxed);
        tree = below->second->clone(doc);
      }
      std::vector<wal::LogEntry> records;
      records.reserve(static_cast<std::size_t>(version - base_version));
      for (std::uint64_t v = base_version + 1; v <= version; ++v) {
        wal::LogEntry entry;
        entry.version = v;
        entry.ops = state.deltas[v].ops;
        records.push_back(std::move(entry));
      }
      const Status applied = wal::apply_records(records, *tree, nullptr, doc);
      if (!applied) return applied;
      chain_hits_.fetch_add(1, std::memory_order_relaxed);
      return insert_tree(state, version, std::move(tree));
    }
  }

  // The chain cannot produce this version: rebuild from the durable log
  // (checkpoint snapshot + record prefix). kNotFound here means a
  // checkpoint compacted past `version` while the cut was in flight — the
  // caller re-captures a fresher cut.
  auto rebuilt = wal::materialize_at(store_, doc, version);
  if (!rebuilt) return rebuilt.status();
  materializes_.fetch_add(1, std::memory_order_relaxed);
  return insert_tree(state, version,
                     std::shared_ptr<xml::Document>(
                         std::move(rebuilt).value()));
}

Result<SnapshotStore::Cut> SnapshotStore::snapshot(
    const std::vector<std::string>& docs) {
  for (int attempt = 0;; ++attempt) {
    // Phase 1: capture every target version atomically. persist publishes
    // a whole transaction under the same mutex, so the captured vector is
    // a transaction-consistent cut.
    std::map<std::string, std::pair<DocState*, std::uint64_t>> targets;
    {
      sync::MutexLock lock(mutex_);
      for (const std::string& doc : docs) {
        const auto it = docs_.find(doc);
        if (it == docs_.end()) {
          return Status(Code::kNotFound,
                        "document '" + doc + "' is not stored at this site");
        }
        targets.emplace(
            doc, std::make_pair(it->second.get(), it->second->committed));
      }
    }
    // Phase 2: resolve each document at its captured version.
    Cut cut;
    Status error = Status::ok();
    for (auto& [doc, target] : targets) {
      auto tree = resolve(doc, *target.first, target.second);
      if (!tree) {
        error = tree.status();
        break;
      }
      cut.emplace(doc, DocView{target.second, std::move(tree).value()});
    }
    if (error) {  // Status converts to true on OK
      reads_.fetch_add(targets.size(), std::memory_order_relaxed);
      return cut;
    }
    if (attempt >= 2) return error;
    cut_retries_.fetch_add(1, std::memory_order_relaxed);
  }
}

SnapshotStats SnapshotStore::stats() const {
  SnapshotStats out;
  out.reads = reads_.load(std::memory_order_relaxed);
  out.chain_hits = chain_hits_.load(std::memory_order_relaxed);
  out.materializes = materializes_.load(std::memory_order_relaxed);
  out.clones = clones_.load(std::memory_order_relaxed);
  out.cut_retries = cut_retries_.load(std::memory_order_relaxed);
  {
    sync::MutexLock lock(mutex_);
    out.chain_bytes = total_chain_bytes_;
    out.chain_bytes_peak = chain_bytes_peak_;
    for (const auto& [doc, state] : docs_) {
      (void)doc;
      sync::MutexLock doc_lock(state->mutex);
      out.cached_trees += state->trees.size();
    }
  }
  return out;
}

}  // namespace dtx::core

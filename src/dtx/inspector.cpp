#include "dtx/inspector.hpp"

#include <sstream>

namespace dtx::core {

std::string describe_site(Site& site) {
  const SiteStats stats = site.stats();
  std::ostringstream out;
  out << "site " << site.id() << " [" << site.lock_manager().protocol_name()
      << "]\n";
  out << "  transactions: committed=" << stats.committed
      << " aborted=" << stats.aborted << " failed=" << stats.failed
      << " deadlock_aborts=" << stats.deadlock_aborts << "\n";
  out << "  scheduler: wait_episodes=" << stats.wait_episodes
      << " remote_ops=" << stats.remote_ops_processed
      << " distributed_cycles=" << stats.distributed_cycles_found << "\n";
  out << "  recovery: restarts=" << stats.restarts
      << " orphans_committed=" << stats.orphans_committed
      << " orphans_aborted=" << stats.orphans_aborted
      << " commit_resends=" << stats.commit_resends << "\n";
  out << "  lock manager: acquisitions=" << stats.lock_manager.lock_acquisitions
      << " conflicts=" << stats.lock_manager.conflicts
      << " local_deadlocks=" << stats.lock_manager.local_deadlocks
      << " entries_now=" << site.lock_manager().lock_entries() << "\n";
  out << "  plan cache: hits=" << stats.plan_cache.hits
      << " misses=" << stats.plan_cache.misses
      << " evictions=" << stats.plan_cache.evictions
      << " entries=" << stats.plan_cache.entries << "\n";
  out << "  placement: catalog_epoch=" << stats.catalog_epoch
      << " stale_catalog_aborts=" << stats.stale_catalog_aborts
      << " migrations=" << stats.migrations
      << " migrated_bytes=" << stats.migrated_bytes << "\n";
  out << "  mvcc: snapshot_txns=" << stats.snapshot_txns
      << " views=" << stats.snapshots.reads
      << " chain_hits=" << stats.snapshots.chain_hits
      << " clones=" << stats.snapshots.clones
      << " materializes=" << stats.snapshots.materializes
      << " cut_retries=" << stats.snapshots.cut_retries
      << " chain_bytes_peak=" << stats.snapshots.chain_bytes_peak
      << " cached_trees=" << stats.snapshots.cached_trees << "\n";
  const auto& table = site.lock_manager().table();
  if (table.shard_count() > 1) {
    out << "  lock shards (" << table.shard_count() << "):";
    for (const auto& shard : table.shard_stats()) {
      out << " " << shard.acquisitions << "/" << shard.conflicts;
    }
    out << "  (acquisitions/conflicts per shard)\n";
  }
  // NOTE: reading the DataManager requires site quiescence (see
  // Site::data_manager()); the inspector is a post-run diagnostic.
  out << "  data: documents=" << site.data_manager().documents().size()
      << " nodes=" << site.data_manager().total_nodes()
      << " guide_nodes=" << site.data_manager().total_guide_nodes() << "\n";
  const auto edges = site.lock_manager().wfg_edges();
  if (edges.empty()) {
    out << "  wait-for graph: empty\n";
  } else {
    out << "  wait-for graph:\n";
    for (const auto& edge : edges) {
      out << "    t" << edge.waiter << " -> t" << edge.holder << "\n";
    }
  }
  return out.str();
}

std::string describe_cluster(Cluster& cluster) {
  std::ostringstream out;
  // One pinned view: document list and hosting sets from the same epoch.
  const Catalog::View view = cluster.catalog().view();
  out << "cluster: " << cluster.site_count() << " sites, "
      << view->placement.size() << " documents (catalog epoch "
      << view->epoch << ")\n";
  for (const auto& [doc, sites] : view->placement) {
    out << "  " << doc << " @ sites";
    for (SiteId site : sites) out << " " << site;
    out << "\n";
  }
  for (std::size_t i = 0; i < cluster.site_count(); ++i) {
    out << describe_site(cluster.site(static_cast<SiteId>(i)));
  }
  const ClusterStats stats = cluster.stats();
  out << "network: messages=" << stats.network.messages_sent
      << " bytes=" << stats.network.bytes_sent
      << " dropped=" << stats.network.messages_dropped << "\n";
  return out.str();
}

std::string describe_tcp(const net::TcpStats& stats) {
  std::ostringstream out;
  out << "tcp: dials=" << stats.dials << " connects=" << stats.connects
      << " accepts=" << stats.accepts
      << " disconnects=" << stats.disconnects
      << " reconnects=" << stats.reconnects
      << " frames_rejected=" << stats.frames_rejected;
  return out.str();
}

}  // namespace dtx::core

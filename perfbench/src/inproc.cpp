// In-process rounds: a Cluster over SimNetwork at its library defaults,
// driven closed-loop by one thread through Cluster::submit and
// Transaction::set_on_complete.
#include <algorithm>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <thread>

#include "bench.hpp"
#include "dtx/cluster.hpp"

namespace dtxbench {
namespace {

using dtx::core::Cluster;
using dtx::core::ClusterStats;

struct Completion {
  std::size_t slot = 0;
  dtx::txn::TxnState state = dtx::txn::TxnState::kAborted;
  dtx::lock::TxnId id = 0;
  Clock::time_point at;
};

struct Slot {
  std::size_t txn = 0;
  Clock::time_point submitted;
  Clock::time_point submit_returned;
  std::shared_ptr<dtx::txn::Transaction> handle;
};

double per(double count, double base) { return base > 0 ? count / base : 0.0; }

std::uint64_t cycles_found(Cluster& cluster) {
  std::uint64_t cycles = 0;
  for (std::size_t i = 0; i < cluster.site_count(); ++i) {
    cycles += cluster.site(static_cast<dtx::net::SiteId>(i))
                  .stats()
                  .distributed_cycles_found;
  }
  return cycles;
}

/// Waits (bounded) for every site's lock table to drain: commit and abort
/// fan-outs release remote locks after the client already has its result.
std::size_t settle_lock_entries(Cluster& cluster) {
  std::size_t entries = 0;
  const Clock::time_point deadline = Clock::now() + std::chrono::seconds(5);
  do {
    entries = 0;
    for (std::size_t i = 0; i < cluster.site_count(); ++i) {
      entries += cluster.site(static_cast<dtx::net::SiteId>(i))
                     .lock_manager()
                     .lock_entries();
    }
    if (entries == 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  } while (Clock::now() < deadline);
  return entries;
}

}  // namespace

void run_inproc_round(const WorkloadSpec& spec, RoundInputs inputs,
                      Tracer& tracer, bool traced, RoundResult& result) {
  const Clock::time_point setup_start = Clock::now();
  dtx::core::ClusterOptions options;
  options.site_count = spec.sites;
  Cluster cluster(options);
  for (const auto& placement : inputs.placements) {
    const auto fragment = std::find_if(
        inputs.fragments.begin(), inputs.fragments.end(),
        [&](const auto& f) { return f.doc_name == placement.doc; });
    const dtx::util::Status loaded =
        cluster.load_document(placement.doc, fragment->xml, placement.sites);
    if (!loaded) {
      result.correct = false;
      result.errors.push_back("load_document: " + loaded.to_string());
      return;
    }
  }
  const Clock::time_point loaded = Clock::now();
  tracer.add("dtx.load", setup_start, loaded, 0, 0);
  const dtx::util::Status started = cluster.start();
  const Clock::time_point setup_end = Clock::now();
  tracer.add("dtx.start", loaded, setup_end, 0, 0);
  result.setup_s += std::chrono::duration<double>(setup_end - setup_start).count();
  if (!started) {
    result.correct = false;
    result.errors.push_back("cluster start: " + started.to_string());
    return;
  }

  std::mutex mutex;
  std::condition_variable cv;
  std::vector<Completion> done;
  std::vector<Completion> batch;
  std::vector<Slot> slots(std::min(kInFlight, inputs.txns.size()));
  std::size_t next = 0;
  std::size_t outstanding = 0;

  const auto submit = [&](std::size_t slot) {
    Slot& s = slots[slot];
    s.txn = next++;
    s.submitted = Clock::now();
    auto handle = cluster.submit(static_cast<dtx::net::SiteId>(slot % spec.sites),
                                 std::move(inputs.txns[s.txn].ops));
    ++result.submitted;
    ++outstanding;
    if (!handle) {
      result.errors.push_back("submit: " + handle.status().to_string());
      std::lock_guard<std::mutex> lock(mutex);
      done.push_back(Completion{slot, dtx::txn::TxnState::kFailed, 0, Clock::now()});
      return;
    }
    s.handle = std::move(handle).value();
    s.handle->set_on_complete([&, slot](const dtx::txn::TxnResult& r) {
      const Clock::time_point at = Clock::now();
      // Notify under the lock: the client thread may return (destroying cv) as
      // soon as it sees the last completion.
      std::lock_guard<std::mutex> lock(mutex);
      done.push_back(Completion{slot, r.state, r.id, at});
      cv.notify_one();
    });
    s.submit_returned = Clock::now();
  };

  const ClusterStats before = cluster.stats();
  const std::uint64_t cycles_before = cycles_found(cluster);
  const Clock::time_point window_start = Clock::now();
  double blocked_s = 0.0;
  for (std::size_t slot = 0; slot < slots.size(); ++slot) submit(slot);
  while (outstanding > 0) {
    {
      std::unique_lock<std::mutex> lock(mutex);
      const Clock::time_point wait_start = Clock::now();
      cv.wait(lock, [&] { return !done.empty(); });
      blocked_s += std::chrono::duration<double>(Clock::now() - wait_start).count();
      batch.swap(done);
    }
    for (const Completion& c : batch) {
      --outstanding;
      Slot& s = slots[c.slot];
      const double ms = ms_between(s.submitted, c.at);
      (inputs.txns[s.txn].update ? result.latency.update_ms
                                 : result.latency.read_ms)
          .push_back(ms);
      switch (c.state) {
        case dtx::txn::TxnState::kCommitted: ++result.committed; break;
        case dtx::txn::TxnState::kAborted: ++result.aborted; break;
        default: ++result.failed; break;
      }
      if (traced) {
        const std::uint64_t span =
            tracer.add("txn", s.submitted, c.at, 0, c.id);
        tracer.add("client.submit", s.submitted, s.submit_returned, span, c.id);
      }
      s.handle.reset();
      if (next < inputs.txns.size()) {
        submit(c.slot);
        result.lag_ms.push_back(ms_between(c.at, s.submitted));
      }
    }
    batch.clear();
  }
  const Clock::time_point window_end = Clock::now();
  const double window = std::chrono::duration<double>(window_end - window_start).count();
  result.window_s += window;
  result.busy_s += window - blocked_s;

  const ClusterStats after = cluster.stats();
  const std::uint64_t cycles = cycles_found(cluster) - cycles_before;

  // Correctness: engine accounting, drained lock tables, replica agreement.
  const std::uint64_t terminated = (after.committed - before.committed) +
                                   (after.aborted - before.aborted) +
                                   (after.failed - before.failed);
  if (terminated != result.submitted ||
      after.committed - before.committed != result.committed ||
      after.failed - before.failed != 0) {
    result.correct = false;
    result.errors.push_back(
        "accounting: submitted=" + std::to_string(result.submitted) +
        " engine committed+aborted+failed=" + std::to_string(terminated) +
        " engine failed=" + std::to_string(after.failed - before.failed));
  }
  if (const std::size_t entries = settle_lock_entries(cluster); entries != 0) {
    result.correct = false;
    result.errors.push_back("lock entries left after drain: " +
                            std::to_string(entries));
  }
  result.peak_rss_mb = peak_rss_mb(0);
  cluster.stop();

  check_replicas(inputs, [&](dtx::net::SiteId site) -> dtx::storage::StorageBackend& {
    return cluster.store_of(site);
  }, result);

  const double n = static_cast<double>(result.submitted);
  const auto delta = [](std::uint64_t a, std::uint64_t b) {
    return static_cast<double>(b - a);
  };
  auto& m = result.metrics;
  const double hits = delta(before.plan_cache.hits, after.plan_cache.hits);
  const double misses = delta(before.plan_cache.misses, after.plan_cache.misses);
  const double acquisitions = delta(before.lock_acquisitions, after.lock_acquisitions);
  const double reads = delta(before.snapshots.reads, after.snapshots.reads);
  m["query.plan_hit_rate"] = per(hits, hits + misses);
  m["lock.acq_per_txn"] = per(acquisitions, n);
  m["lock.conflicts_per_acq"] =
      per(delta(before.lock_conflicts, after.lock_conflicts), acquisitions);
  m["wfg.wait_episodes_per_txn"] =
      per(delta(before.wait_episodes, after.wait_episodes), n);
  m["wfg.deadlock_aborts"] = delta(before.deadlock_aborts, after.deadlock_aborts);
  m["wfg.cycles_found"] = static_cast<double>(cycles);
  m["snapshot.chain_hit_ratio"] =
      per(delta(before.snapshots.chain_hits, after.snapshots.chain_hits), reads);
  m["snapshot.materializes"] =
      delta(before.snapshots.materializes, after.snapshots.materializes);
  m["snapshot.clones"] = delta(before.snapshots.clones, after.snapshots.clones);
  m["snapshot.cut_retries"] =
      delta(before.snapshots.cut_retries, after.snapshots.cut_retries);
  m["snapshot.chain_bytes_peak"] =
      static_cast<double>(after.snapshots.chain_bytes_peak);
  m["dtx.remote_ops_per_txn"] = per(delta(before.remote_ops, after.remote_ops), n);
  m["dtx.snapshot_txn_frac"] =
      per(delta(before.snapshot_txns, after.snapshot_txns), n);
  m["dtx.commit_resends"] = delta(before.commit_resends, after.commit_resends);
  m["net.msgs_per_txn"] = per(
      delta(before.network.messages_sent, after.network.messages_sent), n);
  m["net.bytes_per_txn"] =
      per(delta(before.network.bytes_sent, after.network.bytes_sent), n);
}

}  // namespace dtxbench

// Shared pieces of the DTX benchmark program (dtxbench): the workload table, the
// seeded inputs every round is built from, the in-memory span recorder and
// the per-round result main() aggregates.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "storage/storage.hpp"
#include "txn/operation.hpp"
#include "workload/fragmentation.hpp"

namespace dtxbench {

using Clock = std::chrono::steady_clock;

/// Transactions in flight in every closed loop (the prototype's 32).
inline constexpr std::size_t kInFlight = 32;

/// One workload. Everything here is topology, placement or input shape:
/// the engine itself always runs at its library defaults.
struct WorkloadSpec {
  std::string name;
  bool daemons = false;        ///< dtxd processes over loopback TCP
  std::size_t sites = 4;
  std::size_t copies = 2;      ///< partial replication factor
  std::size_t doc_bytes = 0;   ///< XMark base size
  double update_txn_fraction = 0.0;
  double update_op_fraction = 0.2;
  std::size_t txns_per_round = 0;  ///< fixed work of one round
  std::size_t warmup_txns = 0;     ///< closed-loop warm-up before the window
  double rate_per_s = 0.0;         ///< open loop: arrival rate (0: closed loop)
  double open_rate_per_s = 0.0;    ///< traced runs: rate of the extra open-loop rounds
};

/// Returns the spec for `name`, scaled down when `tiny` (smoke test).
/// Unknown names return a spec with an empty name.
WorkloadSpec find_workload(const std::string& name, bool tiny);

/// One generated transaction of the fixed work list.
struct TxnInput {
  std::vector<dtx::txn::Operation> ops;
  bool update = false;
};

/// The seeded inputs of one round: fragments, their placement and the
/// transaction list, all made before anything is timed.
struct RoundInputs {
  std::vector<dtx::workload::Fragment> fragments;
  std::vector<dtx::workload::Placement> placements;
  std::vector<TxnInput> txns;
  std::vector<TxnInput> warmup;  ///< generated after txns, run before them
  std::size_t base_bytes = 0;  ///< sum of fragment sizes
};

/// In-memory span recorder (single-threaded: only the client thread
/// records). Written out once at the end of the run.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  /// Records a finished span; returns its id (0 when disabled).
  std::uint64_t add(const char* name, Clock::time_point start,
                    Clock::time_point end, std::uint64_t parent,
                    std::uint64_t txn);

  /// Writes "name start_us end_us id parent txn" rows (tab-separated,
  /// one header line). Returns false on an I/O error.
  bool write(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    Clock::time_point start;
    Clock::time_point end;
    std::uint64_t id;
    std::uint64_t parent;
    std::uint64_t txn;
  };
  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

/// Latency samples of one class (read-only / update transactions).
struct Latencies {
  std::vector<double> read_ms;
  std::vector<double> update_ms;
};

/// What one round measured. `metrics` holds the counter-derived per-layer
/// numbers of the round (already normalised per transaction or per round).
struct RoundResult {
  bool correct = true;
  std::vector<std::string> errors;
  std::size_t submitted = 0;
  std::size_t committed = 0;
  std::size_t aborted = 0;
  std::size_t failed = 0;
  double setup_s = 0.0;
  double window_s = 0.0;  ///< first submit to last completion
  double peak_rss_mb = 0.0;
  Latencies latency;
  std::vector<double> lag_ms;  ///< generator lateness / refill lag
  double busy_s = 0.0;         ///< client thread time not blocked
  std::map<std::string, double> metrics;
};

/// Builds the round's inputs from `seed`: XMark base, fragments,
/// placement and the transaction list. Records setup spans.
RoundInputs make_inputs(const WorkloadSpec& spec, std::uint64_t seed,
                        Tracer& tracer, RoundResult& result);

/// Runs one in-process round (Cluster over SimNetwork, closed loop).
void run_inproc_round(const WorkloadSpec& spec, RoundInputs inputs,
                      Tracer& tracer, bool traced, RoundResult& result);

/// Runs one dtxd round (three processes over loopback TCP; closed loop, or
/// open loop when spec.rate_per_s > 0).
/// `workdir` is a scratch directory inside the checkout.
void run_daemon_round(const WorkloadSpec& spec, RoundInputs inputs,
                      const std::string& dtxd_path,
                      const std::string& workdir, Tracer& tracer,
                      bool traced, RoundResult& result);

/// Replay phase of a traced run: times each layer's public entry point on
/// a seeded sample of the round's own operations, against private copies
/// of the fragments they target. Adds spans and counter metrics.
void run_replay(const RoundInputs& inputs, std::uint64_t seed,
                std::size_t sample, Tracer& tracer,
                std::map<std::string, double>& metrics);

/// Checks that every document's replicas agree under wal::materialize and
/// records storage.doc_growth (committed bytes over base bytes). Agreement
/// is structural and ignores sibling order: XDGL lets independent
/// transactions insert under the same node concurrently, so replicas may
/// order those siblings differently.
void check_replicas(
    const RoundInputs& inputs,
    const std::function<dtx::storage::StorageBackend&(dtx::net::SiteId)>& store_of,
    RoundResult& result);

/// Peak resident set of a process in MiB (VmHWM; pid 0 = this process).
double peak_rss_mb(int pid);

/// Resets this process's VmHWM to its current RSS, so each round reports
/// its own peak.
void reset_peak_rss();

double ms_between(Clock::time_point a, Clock::time_point b);

}  // namespace dtxbench

// dtxbench: runs one workload of the DTX benchmark for a fixed time as a
// sequence of fixed-work rounds and prints one JSON line of raw metrics.
// perfbench/run.py builds this binary, adds the span-derived metrics and
// prints the final result; see perfbench/README.md.
//
//   dtxbench --workload=NAME --seed=N --seconds=S --trace=0|1
//            [--spans=FILE] [--workdir=DIR] [--tiny=1]
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <string>

#include "bench.hpp"
#include "util/flags.hpp"
#include "util/log.hpp"

namespace dtxbench {
namespace {

/// Replay sample size of a traced run (operations).
constexpr std::size_t kReplaySample = 800;

/// Open-loop rounds a traced run of a daemon workload adds after its
/// closed-loop rounds.
constexpr std::size_t kOpenRounds = 3;

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(values.size())));
  return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

double median(std::vector<double> values) { return percentile(std::move(values), 0.5); }

std::string json_escape(const std::string& text) {
  std::string out;
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out;
}

/// Sub-seed of round `round`: every round runs on its own seeded inputs,
/// so a run averages over several documents and transaction lists.
std::uint64_t round_seed(std::uint64_t seed, std::size_t round) {
  std::uint64_t x = seed * 0x9e3779b97f4a7c15ULL + round + 1;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  return x ^ (x >> 31);
}

}  // namespace
}  // namespace dtxbench

int main(int argc, char** argv) {
  using namespace dtxbench;
  dtx::util::Flags flags(argc, argv);
  dtx::util::set_log_level(dtx::util::LogLevel::kError);
  const std::string name = flags.get_string("workload", "");
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
  const double seconds = flags.get_double("seconds", 10.0);
  const bool trace = flags.get_int("trace", 0) != 0;
  const std::string spans_path = flags.get_string("spans", "");
  const std::string workdir = flags.get_string("workdir", ".bench_build/perfbench/work");
  WorkloadSpec spec = find_workload(name, flags.get_int("tiny", 0) != 0);
  if (spec.name.empty()) {
    std::fprintf(stderr, "dtxbench: unknown workload '%s'\n", name.c_str());
    return 2;
  }
  std::filesystem::create_directories(workdir);

  Tracer tracer(trace);
  std::vector<RoundResult> rounds;
  std::vector<bool> traced_round;
  const Clock::time_point run_start = Clock::now();
  const auto elapsed = [&] {
    return std::chrono::duration<double>(Clock::now() - run_start).count();
  };
  // A traced run alternates untraced and traced rounds on the same inputs;
  // the pairs give the tracing overhead.
  for (std::size_t r = 0; rounds.empty() || elapsed() < seconds || (trace && r % 2 == 1);
       ++r) {
    const bool traced = trace && r % 2 == 1;
    RoundResult result;
    reset_peak_rss();
    const Clock::time_point setup_start = Clock::now();
    RoundInputs inputs =
        make_inputs(spec, round_seed(seed, trace ? r / 2 : r), tracer, result);
    result.setup_s = std::chrono::duration<double>(Clock::now() - setup_start).count();
    if (spec.daemons) {
      run_daemon_round(spec, std::move(inputs), DTXD_BIN, workdir, tracer, traced, result);
    } else {
      run_inproc_round(spec, std::move(inputs), tracer, traced, result);
    }
    std::vector<double> all = result.latency.read_ms;
    all.insert(all.end(), result.latency.update_ms.begin(), result.latency.update_ms.end());
    std::fprintf(stderr,
                 "round %zu%s: setup %.3f s, %zu txns in %.3f s, %zu committed, "
                 "%zu aborted, %zu failed, p50 %.3f ms, p99 %.3f ms\n",
                 r, traced ? " (traced)" : "", result.setup_s, result.submitted,
                 result.window_s, result.committed, result.aborted, result.failed,
                 percentile(all, 0.5), percentile(all, 0.99));
    const bool ok = result.correct;
    rounds.push_back(std::move(result));
    traced_round.push_back(traced);
    if (!ok) break;
  }

  // End-to-end numbers are medians over the untraced rounds of each
  // round's own value: a round is a fixed amount of work, and the median
  // keeps one stalled round (see README: Findings) from
  // deciding the run. Stalls stay visible in rounds.stalled_frac.
  bool correct = true;
  std::size_t attempted = 0, committed = 0, aborted = 0, failed = 0;
  std::size_t samples = 0, reads = 0, updates = 0;
  std::vector<std::string> errors;
  std::vector<double> setup, rss, tps, windows, traced_tps, lag_ms;
  std::map<std::string, std::vector<double>> per_round;
  double busy = 0.0, window = 0.0;
  std::map<std::string, double> layer;
  for (std::size_t r = 0; r < rounds.size(); ++r) {
    const RoundResult& round = rounds[r];
    correct = correct && round.correct;
    errors.insert(errors.end(), round.errors.begin(), round.errors.end());
    attempted += round.submitted;
    committed += round.committed;
    aborted += round.aborted;
    failed += round.failed;
    setup.push_back(round.setup_s);
    rss.push_back(round.peak_rss_mb);
    for (const auto& [key, value] : round.metrics) {
      layer[key] += value / static_cast<double>(rounds.size());
    }
    const double round_tps =
        round.window_s > 0 ? static_cast<double>(round.committed) / round.window_s : 0.0;
    if (traced_round[r]) {
      traced_tps.push_back(round_tps);
      continue;
    }
    const auto& read = round.latency.read_ms;
    const auto& update = round.latency.update_ms;
    std::vector<double> all = read;
    all.insert(all.end(), update.begin(), update.end());
    tps.push_back(round_tps);
    windows.push_back(round.window_s);
    per_round["txn_p50_ms"].push_back(percentile(all, 0.50));
    per_round["txn_p90_ms"].push_back(percentile(all, 0.90));
    per_round["txn_p99_ms"].push_back(percentile(all, 0.99));
    per_round["update_p50_ms"].push_back(percentile(update, 0.50));
    per_round["update_p90_ms"].push_back(percentile(update, 0.90));
    per_round["update_p99_ms"].push_back(percentile(update, 0.99));
    per_round["read_p50_ms"].push_back(percentile(read, 0.50));
    per_round["read_p99_ms"].push_back(percentile(read, 0.99));
    per_round["abort_frac"].push_back(
        all.empty() ? 0.0
                    : static_cast<double>(round.aborted + round.failed) /
                          static_cast<double>(all.size()));
    samples += all.size();
    reads += read.size();
    updates += update.size();
    lag_ms.insert(lag_ms.end(), round.lag_ms.begin(), round.lag_ms.end());
    busy += round.busy_s;
    window += round.window_s;
  }
  if (failed != 0) correct = false;

  std::map<std::string, double> m = layer;
  for (const auto& [key, values] : per_round) m[key] = median(values);
  m["setup_s"] = median(setup);
  m["commit_tps"] = median(tps);
  m["peak_rss_mb"] = median(rss);
  m["txn_samples"] = static_cast<double>(samples);
  m["read_samples"] = static_cast<double>(reads);
  m["update_samples"] = static_cast<double>(updates);
  m["rounds"] = static_cast<double>(tps.size());
  const double typical = median(windows);
  m["rounds.stalled_frac"] =
      windows.empty() ? 0.0
                      : static_cast<double>(std::count_if(windows.begin(), windows.end(),
                                                          [&](double w) { return w > 1.5 * typical; })) /
                            static_cast<double>(windows.size());
  m["gen.busy_frac"] = window > 0 ? busy / window : 0.0;
  m["gen.late_p99_ms"] = percentile(lag_ms, 0.99);
  if (trace && spec.open_rate_per_s > 0 && correct) {
    // Queueing: a few untraced rounds driven open loop at a fixed arrival
    // rate, latency from each transaction's scheduled send time. Reported
    // per layer only; the closed-loop rounds above give the end-to-end
    // numbers.
    WorkloadSpec open = spec;
    open.rate_per_s = spec.open_rate_per_s;
    Tracer silent(false);
    std::map<std::string, std::vector<double>> open_round;
    std::vector<double> open_lag;
    double open_busy = 0.0, open_window = 0.0, open_samples = 0.0;
    for (std::size_t k = 0; k < kOpenRounds && correct; ++k) {
      RoundResult result;
      RoundInputs inputs = make_inputs(open, round_seed(seed, rounds.size() + k), silent, result);
      run_daemon_round(open, std::move(inputs), DTXD_BIN, workdir, silent, false, result);
      const auto& update = result.latency.update_ms;
      std::vector<double> all = result.latency.read_ms;
      all.insert(all.end(), update.begin(), update.end());
      std::fprintf(stderr,
                   "open round %zu: %zu txns at %.0f/s in %.3f s, %zu committed, %zu aborted, "
                   "%zu failed, p50 %.3f ms, p99 %.3f ms\n",
                   k, result.submitted, open.rate_per_s, result.window_s, result.committed,
                   result.aborted, result.failed, percentile(all, 0.5), percentile(all, 0.99));
      correct = correct && result.correct && result.failed == 0;
      errors.insert(errors.end(), result.errors.begin(), result.errors.end());
      attempted += result.submitted;
      committed += result.committed;
      aborted += result.aborted;
      failed += result.failed;
      open_round["open.txn_p50_ms"].push_back(percentile(all, 0.50));
      open_round["open.txn_p99_ms"].push_back(percentile(all, 0.99));
      open_round["open.update_p50_ms"].push_back(percentile(update, 0.50));
      open_round["open.update_p99_ms"].push_back(percentile(update, 0.99));
      open_lag.insert(open_lag.end(), result.lag_ms.begin(), result.lag_ms.end());
      open_busy += result.busy_s;
      open_window += result.window_s;
      open_samples += static_cast<double>(all.size());
    }
    for (const auto& [key, values] : open_round) m[key] = median(values);
    m["open.samples"] = open_samples;
    m["open.late_p99_ms"] = percentile(open_lag, 0.99);
    m["open.busy_frac"] = open_window > 0 ? open_busy / open_window : 0.0;
  }
  if (trace) {
    // The in-process workloads have no open-loop rounds.
    for (const char* key : {"open.txn_p50_ms", "open.txn_p99_ms", "open.update_p50_ms",
                            "open.update_p99_ms", "open.samples", "open.late_p99_ms",
                            "open.busy_frac"}) {
      m.try_emplace(key, 0.0);
    }
    // Overhead of tracing: throughput lost by traced rounds against the
    // untraced round on the same inputs, median over pairs.
    std::vector<double> overhead;
    for (std::size_t i = 0; i < traced_tps.size() && i < tps.size(); ++i) {
      if (tps[i] > 0) overhead.push_back((tps[i] - traced_tps[i]) / tps[i]);
    }
    m["trace.overhead_frac"] = median(overhead);
    if (correct) {
      // Replay the first round's own operations (regenerated from its seed).
      Tracer silent(false);
      RoundResult scratch;
      const RoundInputs inputs = make_inputs(spec, round_seed(seed, 0), silent, scratch);
      run_replay(inputs, seed, kReplaySample, tracer, m);
      if (m["replay.errors"] > 0) {
        correct = false;
        errors.push_back("replay: " + std::to_string(m["replay.errors"]) +
                         " layer calls failed on the run's own operations");
      }
    }
    if (!spans_path.empty() && !tracer.write(spans_path)) {
      correct = false;
      errors.push_back("cannot write spans to " + spans_path);
    }
  }

  for (const std::string& error : errors) {
    std::fprintf(stderr, "dtxbench: check failed: %s\n", error.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"committed\": %zu, \"aborted\": %zu, "
              "\"failed\": %zu, \"errors\": [",
              correct ? "true" : "false", attempted, committed, aborted, failed);
  for (std::size_t i = 0; i < errors.size() && i < 20; ++i) {
    std::printf("%s\"%s\"", i ? ", " : "", json_escape(errors[i]).c_str());
  }
  std::printf("], \"metrics\": {");
  bool first = true;
  for (const auto& [key, value] : m) {
    std::printf("%s\"%s\": %.17g", first ? "" : ", ", key.c_str(),
                std::isfinite(value) ? value : 0.0);
    first = false;
  }
  std::printf("}}\n");
  return correct ? 0 : 1;
}

#include <algorithm>
#include <cstdio>
#include <fstream>

#include "bench.hpp"
#include "dtx/wal.hpp"
#include "util/rng.hpp"
#include "workload/workload_gen.hpp"
#include "workload/xmark.hpp"
#include "xml/parser.hpp"

namespace dtxbench {

WorkloadSpec find_workload(const std::string& name, bool tiny) {
  WorkloadSpec spec;
  if (name == "read_mostly") {
    // MVCC read path, xpath and query; the lock layer stays near idle.
    spec.sites = 4;
    spec.doc_bytes = 800 * 1024;
    spec.update_txn_fraction = 0.05;
    spec.txns_per_round = 6000;
  } else if (name == "update_contended") {
    // XDGL lock sets, the lock table, waits and deadlock detection.
    spec.sites = 4;
    spec.doc_bytes = 200 * 1024;
    spec.update_txn_fraction = 1.0;
    spec.update_op_fraction = 0.4;
    spec.txns_per_round = 1500;
  } else if (name == "dtxd_tcp") {
    // TcpNetwork, the daemon and FileStore, closed loop.
    spec.daemons = true;
    spec.sites = 3;
    spec.doc_bytes = 200 * 1024;
    spec.update_txn_fraction = 0.2;
    spec.txns_per_round = 3600;
    spec.warmup_txns = 600;
    // Traced runs add open-loop rounds at half the closed-loop capacity
    // measured on a 4-core x86 box (~3700 txn/s), so queueing shows.
    spec.open_rate_per_s = 1800.0;
  } else {
    return spec;
  }
  spec.name = name;
  if (tiny) {
    spec.doc_bytes = 40 * 1024;
    spec.txns_per_round = 120;
    spec.warmup_txns = std::min<std::size_t>(spec.warmup_txns, 40);
  }
  return spec;
}

RoundInputs make_inputs(const WorkloadSpec& spec, std::uint64_t seed,
                        Tracer& tracer, RoundResult& result) {
  RoundInputs inputs;
  const Clock::time_point start = Clock::now();
  dtx::workload::XmarkOptions xmark;
  xmark.target_bytes = spec.doc_bytes;
  xmark.seed = seed;
  const dtx::workload::XmarkData data = dtx::workload::generate_xmark(xmark);
  inputs.fragments = dtx::workload::fragment_xmark(data, 2 * spec.sites);
  inputs.placements = dtx::workload::place_fragments(
      inputs.fragments, spec.sites, dtx::workload::Replication::kPartial,
      spec.copies);
  for (const auto& fragment : inputs.fragments) {
    inputs.base_bytes += fragment.xml.size();
  }
  const Clock::time_point generated = Clock::now();
  tracer.add("workload.xmark", start, generated, 0, 0);

  dtx::workload::WorkloadOptions options;
  options.update_txn_fraction = spec.update_txn_fraction;
  options.update_op_fraction = spec.update_op_fraction;
  dtx::workload::WorkloadGenerator generator(inputs.fragments, options);
  dtx::util::Rng rng(seed * 0x9e3779b97f4a7c15ULL + 1);
  inputs.txns.reserve(spec.txns_per_round);
  for (std::size_t i = 0; i < spec.txns_per_round + spec.warmup_txns; ++i) {
    TxnInput txn;
    for (const std::string& text : generator.make_transaction(rng, &txn.update)) {
      auto op = dtx::txn::parse_operation(text);
      if (!op) {
        result.correct = false;
        result.errors.push_back("generated operation does not parse: " + text);
        continue;
      }
      txn.ops.push_back(std::move(op).value());
    }
    (i < spec.txns_per_round ? inputs.txns : inputs.warmup).push_back(std::move(txn));
  }
  tracer.add("workload.txns", generated, Clock::now(), 0, 0);
  return inputs;
}

std::uint64_t Tracer::add(const char* name, Clock::time_point start,
                          Clock::time_point end, std::uint64_t parent,
                          std::uint64_t txn) {
  if (!enabled_) return 0;
  const std::uint64_t id = spans_.size() + 1;
  spans_.push_back(Span{name, start, end, id, parent, txn});
  return id;
}

bool Tracer::write(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fprintf(out, "name\tstart_us\tend_us\tid\tparent\ttxn\n");
  const auto us = [&](Clock::time_point t) {
    return std::chrono::duration<double, std::micro>(t - origin_).count();
  };
  for (const Span& span : spans_) {
    std::fprintf(out, "%s\t%.3f\t%.3f\t%llu\t%llu\t%llu\n", span.name,
                 us(span.start), us(span.end),
                 static_cast<unsigned long long>(span.id),
                 static_cast<unsigned long long>(span.parent),
                 static_cast<unsigned long long>(span.txn));
  }
  return std::fclose(out) == 0;
}

namespace {

std::string fingerprint(const dtx::xml::Node& node) {
  std::string out = node.is_element() ? "<" + node.name() : "#t:" + node.value();
  if (node.is_element()) {
    auto attributes = node.attributes();
    std::sort(attributes.begin(), attributes.end());
    for (const auto& [key, value] : attributes) out += " " + key + "=" + value;
    std::vector<std::string> children;
    for (const auto& child : node.children()) children.push_back(fingerprint(*child));
    std::sort(children.begin(), children.end());
    out += "{";
    for (const auto& child : children) out += child + ",";
    out += "}>";
  }
  return out;
}

}  // namespace

void check_replicas(
    const RoundInputs& inputs,
    const std::function<dtx::storage::StorageBackend&(dtx::net::SiteId)>& store_of,
    RoundResult& result) {
  std::size_t final_bytes = 0;
  for (const auto& placement : inputs.placements) {
    std::string reference;
    for (std::size_t i = 0; i < placement.sites.size(); ++i) {
      auto text = dtx::core::wal::materialize(store_of(placement.sites[i]), placement.doc);
      auto doc = text ? dtx::xml::parse(text.value(), placement.doc)
                      : dtx::util::Result<std::unique_ptr<dtx::xml::Document>>(text.status());
      if (!doc) {
        result.correct = false;
        result.errors.push_back(placement.doc + " unreadable at site " +
                                std::to_string(placement.sites[i]) + ": " +
                                doc.status().to_string());
        break;
      }
      const std::string print = fingerprint(*doc.value()->root());
      if (i == 0) {
        reference = print;
        final_bytes += text.value().size();
      } else if (print != reference) {
        result.correct = false;
        result.errors.push_back("replicas of " + placement.doc + " diverge");
      }
    }
  }
  result.metrics["storage.doc_growth"] =
      static_cast<double>(final_bytes) / static_cast<double>(inputs.base_bytes);
}

double peak_rss_mb(int pid) {
  const std::string path =
      pid == 0 ? "/proc/self/status" : "/proc/" + std::to_string(pid) + "/status";
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

void reset_peak_rss() { std::ofstream("/proc/self/clear_refs") << "5"; }

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

}  // namespace dtxbench

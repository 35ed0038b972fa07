// Replay phase of a traced run. Spans inside the engine do not exist yet,
// so per-layer cost is measured from outside: a seeded sample of the
// round's own operations is pushed through each layer's public entry point,
// one call per span, on private copies of the fragments they target.
#include <algorithm>
#include <memory>

#include "bench.hpp"
#include "dataguide/dataguide.hpp"
#include "dtx/data_manager.hpp"
#include "lock/protocol.hpp"
#include "net/codec.hpp"
#include "query/plan_cache.hpp"
#include "storage/memory_store.hpp"
#include "util/rng.hpp"
#include "xml/parser.hpp"
#include "xpath/evaluator.hpp"
#include "xupdate/applier.hpp"

namespace dtxbench {
namespace {

/// Counts the bytes the redo log appends (the DataManager's only append).
class CountingStore final : public dtx::storage::StorageBackend {
 public:
  [[nodiscard]] const char* kind() const noexcept override { return "counting"; }
  dtx::util::Result<std::string> load(const std::string& name) override {
    return inner_.load(name);
  }
  dtx::util::Status store(const std::string& name, const std::string& xml) override {
    return inner_.store(name, xml);
  }
  dtx::util::Status append(const std::string& name, const std::string& data) override {
    appended += data.size();
    return inner_.append(name, data);
  }
  dtx::util::Result<std::string> read_log(const std::string& name) override {
    return inner_.read_log(name);
  }
  dtx::util::Status truncate(const std::string& name) override {
    return inner_.truncate(name);
  }
  bool exists(const std::string& name) override { return inner_.exists(name); }
  std::vector<std::string> list() override { return inner_.list(); }
  dtx::util::Status remove(const std::string& name) override {
    return inner_.remove(name);
  }

  std::uint64_t appended = 0;

 private:
  dtx::storage::MemoryStore inner_;
};

/// Private state for one fragment: a tree + guide for lock sets and XPath,
/// a second tree + guide that XUpdate mutates.
struct FragmentState {
  std::uint64_t scope = 0;
  std::unique_ptr<dtx::xml::Document> doc;
  std::unique_ptr<dtx::dataguide::DataGuide> guide;
  std::unique_ptr<dtx::xml::Document> scratch;
  std::unique_ptr<dtx::dataguide::DataGuide> scratch_guide;
};

}  // namespace

void run_replay(const RoundInputs& inputs, std::uint64_t seed,
                std::size_t sample, Tracer& tracer,
                std::map<std::string, double>& metrics) {
  const Clock::time_point setup_start = Clock::now();
  std::map<std::string, FragmentState> fragments;
  CountingStore store;
  for (const auto& fragment : inputs.fragments) {
    FragmentState state;
    state.scope = fragments.size() + 1;
    state.doc = dtx::xml::parse(fragment.xml, fragment.doc_name).value();
    state.guide = dtx::dataguide::DataGuide::build(*state.doc);
    state.scratch = dtx::xml::parse(fragment.xml, fragment.doc_name).value();
    state.scratch_guide = dtx::dataguide::DataGuide::build(*state.scratch);
    (void)store.store(fragment.doc_name, fragment.xml);
    fragments.emplace(fragment.doc_name, std::move(state));
  }
  dtx::core::DataManager data(store);
  for (const auto& fragment : inputs.fragments) {
    (void)data.load_document(fragment.doc_name);
  }
  store.appended = 0;
  dtx::query::PlanCache cache(1024);
  dtx::lock::LockTable table;
  const auto protocol = dtx::lock::make_protocol(dtx::lock::ProtocolKind::kXdgl);
  tracer.add("replay.setup", setup_start, Clock::now(), 0, 0);

  // The seeded sample, replayed in list order (inserts before the removes
  // that target them, as in the run).
  struct Pick {
    std::size_t txn;
    std::size_t op;
  };
  std::vector<Pick> all;
  for (std::size_t t = 0; t < inputs.txns.size(); ++t) {
    for (std::size_t o = 0; o < inputs.txns[t].ops.size(); ++o) all.push_back({t, o});
  }
  dtx::util::Rng rng(seed ^ 0x5eed5eedULL);
  rng.shuffle(all);
  all.resize(std::min(sample, all.size()));
  std::sort(all.begin(), all.end(), [](const Pick& a, const Pick& b) {
    return a.txn != b.txn ? a.txn < b.txn : a.op < b.op;
  });

  double lock_requests = 0, ops = 0, nodes = 0, queries = 0, updates = 0;
  double errors = 0;
  for (const Pick& pick : all) {
    const TxnInput& txn = inputs.txns[pick.txn];
    const dtx::txn::Operation& op = txn.ops[pick.op];
    FragmentState& frag = fragments.at(op.doc);
    const std::uint64_t id = pick.txn + 1;
    const Clock::time_point op_start = Clock::now();
    struct Child {
      const char* name;
      Clock::time_point start;
      Clock::time_point end;
    };
    std::vector<Child> children;
    const auto timed = [&](const char* name, auto&& fn) {
      const Clock::time_point start = Clock::now();
      fn();
      children.push_back(Child{name, start, Clock::now()});
    };

    dtx::txn::Operation copy = op;
    timed("query.compile", [&] {
      if (!dtx::query::compile(std::move(copy))) ++errors;
    });
    dtx::query::PlanPtr plan;
    timed("query.resolve", [&] { plan = cache.resolve(op).value(); });

    dtx::lock::DocContext ctx{frag.scope, *frag.doc, *frag.guide};
    std::vector<dtx::lock::LockRequest> requests;
    timed("lock.lockset", [&] {
      auto set = op.is_update()
                     ? protocol->locks_for_update(plan->update(), ctx, plan->prematch())
                     : protocol->locks_for_query(plan->query(), ctx);
      if (set) {
        requests = std::move(set).value();
      } else {
        ++errors;
      }
    });
    timed("lock.table", [&] {
      if (!table.try_acquire_all(id, requests).granted) ++errors;
      table.release_all(id);
    });
    lock_requests += static_cast<double>(requests.size());
    ++ops;

    if (op.is_update()) {
      ++updates;
      dtx::xupdate::UndoLog undo;
      timed("xupdate.apply", [&] {
        if (!dtx::xupdate::apply(plan->update(), *frag.scratch, undo,
                                 frag.scratch_guide.get())) {
          ++errors;
        }
      });
      undo.commit(*frag.scratch);
      timed("dtx.run_update", [&] {
        if (!data.run_update(id, *plan)) ++errors;
      });
      timed("wal.persist", [&] {
        if (!data.persist(id)) ++errors;
      });
    } else {
      ++queries;
      timed("xpath.eval", [&] {
        nodes += static_cast<double>(dtx::xpath::evaluate(plan->query(), *frag.doc).size());
      });
    }

    // The message carrying this operation: an ExecuteOperation on the
    // locked path, a SnapshotReadRequest for read-only transactions.
    dtx::net::Message message;
    message.from = 0;
    message.to = 1;
    if (txn.update) {
      message.payload = dtx::net::ExecuteOperation{id, static_cast<std::uint32_t>(pick.op),
                                                   0, 0, 0, op};
    } else {
      dtx::net::SnapshotReadRequest request;
      request.txn = id;
      request.op_indices.push_back(static_cast<std::uint32_t>(pick.op));
      request.ops.push_back(op);
      message.payload = std::move(request);
    }
    std::string frame;
    timed("net.size", [&] {
      (void)dtx::net::codec::encoded_payload_size(message.payload);
    });
    timed("net.encode", [&] { frame = dtx::net::codec::encode(message); });
    timed("net.decode", [&] {
      if (!dtx::net::codec::decode(frame)) ++errors;
    });

    const std::uint64_t parent = tracer.add("replay.op", op_start, Clock::now(), 0, id);
    for (const Child& child : children) {
      tracer.add(child.name, child.start, child.end, parent, id);
    }
  }
  metrics["lock.locks_per_op"] = ops > 0 ? lock_requests / ops : 0.0;
  metrics["xpath.nodes_per_query"] = queries > 0 ? nodes / queries : 0.0;
  metrics["storage.log_bytes_per_update"] =
      updates > 0 ? static_cast<double>(store.appended) / updates : 0.0;
  metrics["replay.ops"] = ops;
  metrics["replay.errors"] = errors;
}

}  // namespace dtxbench

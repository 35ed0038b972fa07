// Micro-benchmarks (google-benchmark) for the substrate layers: XML parse /
// serialize, XPath evaluation, DataGuide construction and matching. These
// quantify the per-operation costs behind the figure benches.
#include <benchmark/benchmark.h>

#include "dataguide/dataguide.hpp"
#include "dataguide/guide_match.hpp"
#include "workload/xmark.hpp"
#include "xml/parser.hpp"
#include "xml/serializer.hpp"
#include "xpath/evaluator.hpp"
#include "xpath/parser.hpp"

namespace {

using namespace dtx;

const workload::XmarkData& xmark_of(std::size_t bytes) {
  static std::map<std::size_t, workload::XmarkData> cache;
  auto it = cache.find(bytes);
  if (it == cache.end()) {
    workload::XmarkOptions options;
    options.target_bytes = bytes;
    it = cache.emplace(bytes, workload::generate_xmark(options)).first;
  }
  return it->second;
}

void BM_XmlParse(benchmark::State& state) {
  const auto bytes = static_cast<std::size_t>(state.range(0));
  const std::string text = xml::serialize(*xmark_of(bytes).document);
  for (auto _ : state) {
    auto parsed = xml::parse(text, "bench");
    benchmark::DoNotOptimize(parsed);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(text.size()));
}
BENCHMARK(BM_XmlParse)->Arg(50'000)->Arg(200'000)->Arg(800'000);

void BM_XmlSerialize(benchmark::State& state) {
  const auto bytes = static_cast<std::size_t>(state.range(0));
  const workload::XmarkData& data = xmark_of(bytes);
  for (auto _ : state) {
    std::string text = xml::serialize(*data.document);
    benchmark::DoNotOptimize(text);
  }
}
BENCHMARK(BM_XmlSerialize)->Arg(50'000)->Arg(200'000)->Arg(800'000);

void BM_XPathPointQuery(benchmark::State& state) {
  const workload::XmarkData& data = xmark_of(200'000);
  const std::string id = data.person_ids[data.person_ids.size() / 2];
  auto path = xpath::parse("/site/people/person[@id='" + id + "']/name");
  for (auto _ : state) {
    auto nodes = xpath::evaluate(path.value(), *data.document);
    benchmark::DoNotOptimize(nodes);
  }
}
BENCHMARK(BM_XPathPointQuery);

void BM_XPathDescendantScan(benchmark::State& state) {
  const workload::XmarkData& data = xmark_of(200'000);
  auto path = xpath::parse("//item/price");
  for (auto _ : state) {
    auto nodes = xpath::evaluate(path.value(), *data.document);
    benchmark::DoNotOptimize(nodes);
  }
}
BENCHMARK(BM_XPathDescendantScan);

// The workload's 25 % scan shape: one string per person, as the read paths
// return it.
void BM_XPathScanStrings(benchmark::State& state) {
  const workload::XmarkData& data = xmark_of(200'000);
  auto path = xpath::parse("/site/people/person/name");
  for (auto _ : state) {
    auto rows = xpath::evaluate_strings(path.value(), *data.document);
    benchmark::DoNotOptimize(rows);
  }
}
BENCHMARK(BM_XPathScanStrings);

// The workload's '//' point query: an attribute-index lookup and an
// ancestor check, then one child step.
void BM_XPathDescendantPoint(benchmark::State& state) {
  const workload::XmarkData& data = xmark_of(200'000);
  const std::string id = data.person_ids[data.person_ids.size() / 2];
  auto path = xpath::parse("//person[@id='" + id + "']/emailaddress");
  for (auto _ : state) {
    auto nodes = xpath::evaluate(path.value(), *data.document);
    benchmark::DoNotOptimize(nodes);
  }
}
BENCHMARK(BM_XPathDescendantPoint);

void BM_XPathParse(benchmark::State& state) {
  for (auto _ : state) {
    auto path = xpath::parse(
        "/site/people/person[@id='person42']/profile/age");
    benchmark::DoNotOptimize(path);
  }
}
BENCHMARK(BM_XPathParse);

void BM_DataGuideBuild(benchmark::State& state) {
  const auto bytes = static_cast<std::size_t>(state.range(0));
  const workload::XmarkData& data = xmark_of(bytes);
  for (auto _ : state) {
    auto guide = dataguide::DataGuide::build(*data.document);
    benchmark::DoNotOptimize(guide);
  }
  state.counters["doc_nodes"] =
      static_cast<double>(data.document->node_count());
}
BENCHMARK(BM_DataGuideBuild)->Arg(50'000)->Arg(200'000)->Arg(800'000);

void BM_GuideMatch(benchmark::State& state) {
  const workload::XmarkData& data = xmark_of(200'000);
  auto guide = dataguide::DataGuide::build(*data.document);
  auto path = xpath::parse("/site/people/person[@id='person1']/name");
  for (auto _ : state) {
    auto result = dataguide::match(path.value(), *guide);
    benchmark::DoNotOptimize(result);
  }
  // The headline contrast: the guide has orders of magnitude fewer nodes
  // than the document.
  state.counters["guide_nodes"] = static_cast<double>(guide->node_count());
  state.counters["doc_nodes"] =
      static_cast<double>(data.document->node_count());
}
BENCHMARK(BM_GuideMatch);

}  // namespace

BENCHMARK_MAIN();

// Evaluation fan-out scaling: end-to-end throughput of TENET as the
// harness's worker count (EvalOptions::num_threads) grows, on the four
// evaluation corpora.  The workers call the linker directly — no serving
// layer — so this measures how the pipeline scales across documents.  The
// PRF columns double as a determinism check: they must not move with the
// thread count (the harness merges results in dataset order).
#include <cstdio>

#include "bench_common.h"
#include "obs/metrics.h"

namespace tenet {
namespace bench {
namespace {

void Run() {
  const Environment& env = GetEnvironment();
  baselines::TenetLinker tenet(MakeSubstrate(env));

  // The per-document latency histogram the pipeline publishes — filled by
  // serial and parallel runs alike, so the quantile columns stay
  // comparable across thread counts.  The registry is reset per row to
  // window the cumulative counters.
  obs::MetricsRegistry* registry = obs::MetricsRegistry::Default();
  obs::Histogram* doc_latency = registry->GetHistogram(
      "tenet_document_latency_ms",
      "End-to-end per-document linking latency in milliseconds, by "
      "degradation mode.",
      obs::LabelPair("mode", "full"));

  std::printf(
      "Evaluation throughput: TENET end-to-end, by harness worker threads\n");
  PrintRule();
  std::printf("%-10s %8s %12s %12s %10s %22s  %s\n", "dataset", "threads",
              "total_ms", "wall_ms", "docs/s", "p50/p95/p99 ms",
              "entity P/R/F");
  PrintRule();
  for (const datasets::Dataset& dataset : env.datasets) {
    for (int threads : {1, 2, 4, 8}) {
      registry->Reset();
      eval::EvalOptions options;
      options.num_threads = threads;
      eval::SystemScores scores =
          eval::EvaluateEndToEnd(tenet, dataset, options);
      double docs_per_s = scores.wall_ms > 0.0
                              ? 1000.0 * dataset.documents.size() /
                                    scores.wall_ms
                              : 0.0;
      char quantiles[48];
      std::snprintf(quantiles, sizeof(quantiles), "%.2f/%.2f/%.2f",
                    doc_latency->P50(), doc_latency->P95(),
                    doc_latency->P99());
      std::printf("%-10s %8d %12.1f %12.1f %10.1f %22s  %s\n",
                  dataset.name.c_str(), threads, scores.total_ms,
                  scores.wall_ms, docs_per_s, quantiles,
                  eval::FormatPRF(scores.entity_linking).c_str());
    }
  }
  PrintRule();
  std::printf("total_ms sums per-document latencies (comparable across "
              "thread counts);\nwall_ms is the end-to-end clock; "
              "p50/p95/p99 come from the tenet_document_latency_ms "
              "histogram.\n");
}

}  // namespace
}  // namespace bench
}  // namespace tenet

int main() {
  tenet::bench::Run();
  return 0;
}

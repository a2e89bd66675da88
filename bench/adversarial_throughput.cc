// Hostile-input serving cost: end-to-end throughput of TENET through the
// BatchLinkingService on three workloads — the clean T-REx42 corpus, the
// same corpus through the adversarial mutator (typos, homoglyphs,
// ambiguity storms, degenerate punctuation, oversized tokens, invalid
// UTF-8), and multi-turn streaming sessions with per-session state
// (SessionContext re-ranking each turn against the conversation memory).
//
// The interesting numbers are the ratios: how much a hostile document
// costs relative to a clean one with the guardrails on, and what the
// session layer adds per turn.  `--json <path>` writes the
// BENCH_adversarial.json records CI archives; `--smoke` shrinks the
// round count for tier-1.
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "common/timer.h"
#include "datasets/adversarial.h"
#include "datasets/session_generator.h"
#include "json_out.h"
#include "obs/metrics.h"
#include "serving/batch_service.h"
#include "serving/kb_generation.h"
#include "serving/session.h"

namespace tenet {
namespace bench {
namespace {

struct WorkloadResult {
  double wall_ms = 0.0;
  int64_t docs = 0;
  int64_t full = 0;
  int64_t degraded = 0;
  int64_t failed = 0;
  int64_t shed = 0;

  double DocsPerSec() const {
    return wall_ms > 0.0 ? 1000.0 * static_cast<double>(docs) / wall_ms : 0.0;
  }
  double MsPerDoc() const {
    return docs > 0 ? wall_ms / static_cast<double>(docs) : 0.0;
  }
};

void Classify(const std::vector<serving::ServedResult>& served,
              WorkloadResult* out) {
  out->docs += static_cast<int64_t>(served.size());
  for (const serving::ServedResult& r : served) {
    if (r.shed) {
      ++out->shed;
    } else if (!r.result.ok()) {
      ++out->failed;
    } else if (r.result->degradation.degraded()) {
      ++out->degraded;
    } else {
      ++out->full;
    }
  }
}

WorkloadResult RunBatches(serving::BatchLinkingService* service,
                          const std::vector<std::string>& texts, int rounds) {
  WorkloadResult out;
  WallTimer timer;
  for (int round = 0; round < rounds; ++round) {
    Classify(service->LinkBatch(texts), &out);
  }
  out.wall_ms = timer.ElapsedMillis();
  return out;
}

WorkloadResult RunSessions(serving::BatchLinkingService* service,
                           const kb::KnowledgeBase& kb,
                           const datasets::SessionDataset& sessions,
                           int rounds) {
  WorkloadResult out;
  WallTimer timer;
  for (int round = 0; round < rounds; ++round) {
    for (const datasets::Session& session : sessions.sessions) {
      serving::SessionContext context;
      for (const datasets::Document& turn : session.turns) {
        std::vector<serving::ServedResult> served =
            service->LinkBatch({turn.text});
        Classify(served, &out);
        if (served.size() == 1 && !served[0].shed && served[0].result.ok()) {
          core::LinkingResult result = *served[0].result;
          context.ApplySessionCoherence(kb, &result);
          context.ObserveTurn(result);
        }
      }
    }
  }
  out.wall_ms = timer.ElapsedMillis();
  return out;
}

void PrintRow(const char* workload, const WorkloadResult& r) {
  std::printf("%-10s %8lld %10.1f %10.1f %10.3f %6lld %9lld %7lld %5lld\n",
              workload, static_cast<long long>(r.docs), r.wall_ms,
              r.DocsPerSec(), r.MsPerDoc(), static_cast<long long>(r.full),
              static_cast<long long>(r.degraded),
              static_cast<long long>(r.failed),
              static_cast<long long>(r.shed));
}

void Run(const JsonArgs& json_args) {
  const Environment& env = GetEnvironment();
  // The service serves a generation over its own copy of the synthetic
  // world (BuildWorld is deterministic, so it matches the environment's).
  datasets::SyntheticWorld world = datasets::BuildWorld();
  std::shared_ptr<const serving::KbGeneration> generation =
      serving::KbGeneration::FromSubstrate(std::move(world.kb_world.kb),
                                           std::move(world.embeddings),
                                           /*id=*/1);

  const datasets::Dataset& clean = env.dataset("T-REx42");
  std::vector<std::string> clean_texts;
  for (const datasets::Document& doc : clean.documents) {
    clean_texts.push_back(doc.text);
  }

  datasets::AdversarialSpec adv_spec;
  datasets::MutationStats mutation_stats;
  datasets::Dataset hostile =
      datasets::AdversarialMutator(adv_spec).Mutate(clean, &mutation_stats);
  std::vector<std::string> hostile_texts;
  for (const datasets::Document& doc : hostile.documents) {
    hostile_texts.push_back(doc.text);
  }

  datasets::SessionGenerator session_generator(&env.world.kb_world);
  datasets::SessionSpec session_spec;
  Rng rng(kCorpusSeed);
  datasets::SessionDataset sessions =
      session_generator.Generate(session_spec, rng);

  obs::MetricsRegistry registry;
  serving::ServingOptions options;
  options.metrics = &registry;
  options.num_threads = 4;
  options.queue_capacity = 256;  // throughput run: no shedding wanted
  serving::BatchLinkingService service(generation, options);

  const int rounds = json_args.smoke ? 1 : 8;
  const int session_rounds = json_args.smoke ? 1 : 4;

  // Warm up allocators, caches, and the gazetteer before timing.
  RunBatches(&service, clean_texts, 1);

  WorkloadResult clean_result = RunBatches(&service, clean_texts, rounds);
  WorkloadResult hostile_result = RunBatches(&service, hostile_texts, rounds);
  WorkloadResult session_result =
      RunSessions(&service, generation->kb(), sessions, session_rounds);

  std::printf("Adversarial serving throughput: TENET via BatchLinkingService "
              "(4 workers)\n");
  PrintRule();
  std::printf("%-10s %8s %10s %10s %10s %6s %9s %7s %5s\n", "workload",
              "docs", "wall_ms", "docs/s", "ms/doc", "full", "degraded",
              "failed", "shed");
  PrintRule();
  PrintRow("clean", clean_result);
  PrintRow("hostile", hostile_result);
  PrintRow("sessions", session_result);
  PrintRule();
  std::printf(
      "hostile = clean corpus through the adversarial mutator "
      "(%d typo'd words, %d homoglyph words, %d storm docs, %d invalid-UTF-8 "
      "docs);\nhostile/clean ms-per-doc ratio: %.2fx.  sessions = %d "
      "conversations x %d turns\nwith per-session coherence re-ranking on "
      "every turn.\n",
      mutation_stats.typo_words, mutation_stats.homoglyph_words,
      mutation_stats.ambiguity_storm_docs, mutation_stats.invalid_utf8_docs,
      clean_result.MsPerDoc() > 0.0
          ? hostile_result.MsPerDoc() / clean_result.MsPerDoc()
          : 0.0,
      session_spec.num_sessions, session_spec.turns_per_session);

  if (!json_args.json_path.empty()) {
    std::vector<JsonRecord> records;
    auto record = [&](const char* name, const WorkloadResult& r) {
      JsonRecord rec;
      rec.bench = std::string("adversarial_throughput/") + name;
      rec.ns_per_op = r.MsPerDoc() * 1e6;
      rec.pairs_per_sec = r.DocsPerSec();
      records.push_back(rec);
    };
    record("clean", clean_result);
    record("hostile", hostile_result);
    record("sessions", session_result);
    WriteJsonRecords(json_args.json_path, records);
  }
}

}  // namespace
}  // namespace bench
}  // namespace tenet

int main(int argc, char** argv) {
  tenet::bench::JsonArgs json_args = tenet::bench::StripJsonArgs(&argc, argv);
  tenet::bench::Run(json_args);
  return 0;
}

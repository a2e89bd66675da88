#include "eval/harness.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <latch>
#include <limits>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "serving/batch_service.h"

namespace tenet {
namespace eval {
namespace {

// A deliberate guardrail refusal, as opposed to a malfunction.  The text
// guardrails reject with kInvalidArgument (oversized / un-sanitizable
// input) and admission control sheds with kResourceExhausted; anything
// else that fails a document counts as a crash.
bool IsRejection(const Status& status) {
  return status.code() == StatusCode::kInvalidArgument ||
         status.code() == StatusCode::kResourceExhausted;
}

// Linear-interpolated percentile over an unsorted sample (sorts in place).
// An empty sample has no percentiles: NaN, not 0.0 — an all-rejected run
// must not report itself as infinitely fast (render with FormatLatencyMs).
double Percentile(std::vector<double>& sample, double p) {
  if (sample.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(sample.begin(), sample.end());
  const double rank = p * static_cast<double>(sample.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  if (lo + 1 >= sample.size()) return sample.back();
  const double frac = rank - static_cast<double>(lo);
  return sample[lo] + frac * (sample[lo + 1] - sample[lo]);
}

// Folds the per-document latency sample into the score percentiles.
void FinishLatencies(std::vector<double>& latencies, SystemScores* scores) {
  scores->latency_p50_ms = Percentile(latencies, 0.50);
  scores->latency_p99_ms = Percentile(latencies, 0.99);
}

// Counts one document's outcome — failed (and whether it was a
// rejection), or served on which rung — into the running scores.  Returns
// whether the document produced a result to score.
bool CountOutcome(const datasets::Document& doc,
                  const Result<core::LinkingResult>& result,
                  SystemScores* scores) {
  if (!result.ok()) {
    ++scores->failed_documents;
    if (IsRejection(result.status())) ++scores->rejected_documents;
    scores->failures.push_back(DocumentFailure{doc.id, result.status()});
    return false;
  }
  if (result->degradation.degraded()) {
    ++scores->degraded_documents;
    if (result->degradation.mode == core::DegradationInfo::Mode::kPairLink) {
      ++scores->pairlink_documents;
    } else {
      ++scores->prior_only_documents;
    }
  } else {
    ++scores->full_documents;
  }
  return true;
}

// Merges one document's outcome into the running scores.  Shared by the
// static and live evaluations so the two merge byte-identically; callers
// iterate documents in dataset order.
void ScoreDocument(const baselines::Linker& linker, bool has_relation_gold,
                   const datasets::Document& doc,
                   const Result<core::LinkingResult>& result,
                   SystemScores* scores) {
  if (!CountOutcome(doc, result, scores)) return;
  SystemPrediction prediction = FromLinkingResult(*result);
  scores->entity_linking.Add(ScoreEntityLinking(doc, prediction));
  if (has_relation_gold && linker.links_relations()) {
    scores->relation_linking.Add(ScoreRelationLinking(doc, prediction));
  }
  scores->mention_detection.Add(ScoreMentionDetection(doc, prediction));
  scores->isolated_detection.Add(ScoreIsolatedDetection(doc, prediction));
}

// Folds per-document outcomes into the scores in dataset order, whatever
// order the documents finished in: results[i] and latencies_ms[i] belong to
// dataset.documents[i].
void ScoreInDatasetOrder(
    const baselines::Linker& linker, const datasets::Dataset& dataset,
    const std::vector<Result<core::LinkingResult>>& results,
    const std::vector<double>& latencies_ms, SystemScores* scores) {
  for (size_t i = 0; i < dataset.documents.size(); ++i) {
    scores->total_ms += latencies_ms[i];
    scores->max_doc_ms = std::max(scores->max_doc_ms, latencies_ms[i]);
    ScoreDocument(linker, dataset.has_relation_gold, dataset.documents[i],
                  results[i], scores);
  }
}

}  // namespace

SystemScores EvaluateEndToEnd(const baselines::Linker& linker,
                              const datasets::Dataset& dataset,
                              const EvalOptions& options) {
  SystemScores scores;
  scores.system = std::string(linker.name());
  scores.dataset = dataset.name;
  WallTimer wall;

  // One body per document, whichever worker runs it: link, time, store at
  // the document's own index.  No admission, breakers or retries stand
  // between the harness and the linker, so N workers score exactly what
  // one does.
  const size_t n = dataset.documents.size();
  std::vector<Result<core::LinkingResult>> results(
      n, Status::Internal("not linked"));
  std::vector<double> latencies(n, 0.0);
  {
    ThreadPool::Options pool_options;
    pool_options.num_threads = std::max(1, options.num_threads);
    ThreadPool pool(pool_options);
    for (size_t i = 0; i < n; ++i) {
      Status queued =
          pool.Submit([&linker, &dataset, &results, &latencies, i] {
            WallTimer doc_timer;
            results[i] = linker.LinkDocument(dataset.documents[i].text);
            latencies[i] = doc_timer.ElapsedMillis();
          });
      TENET_CHECK(queued.ok()) << queued;
    }
    // The pool's destructor drains the queue and joins the workers.
  }
  ScoreInDatasetOrder(linker, dataset, results, latencies, &scores);
  scores.wall_ms = wall.ElapsedMillis();
  FinishLatencies(latencies, &scores);
  scores.metrics = obs::MetricsRegistry::Default()->Snapshot();
  return scores;
}

SystemScores EvaluateEndToEndLive(const baselines::Linker& linker,
                                  serving::BatchLinkingService& service,
                                  const datasets::Dataset& dataset,
                                  const KbUpdatePlan& plan) {
  SystemScores scores;
  scores.system = std::string(linker.name());
  scores.dataset = dataset.name;
  WallTimer wall;

  // Documents are submitted one at a time (not LinkBatch) so updates can
  // land between submissions: every document before an update pins the old
  // generation, every one after pins the new.
  const size_t n = dataset.documents.size();
  std::vector<Result<core::LinkingResult>> results(
      n, Status::Internal("not linked"));
  std::vector<double> latencies(n, 0.0);
  std::latch drained(static_cast<ptrdiff_t>(n));
  int updates = 0;
  for (size_t i = 0; i < n; ++i) {
    if (plan.every > 0 && plan.apply && i > 0 &&
        i % static_cast<size_t>(plan.every) == 0) {
      plan.apply(service, updates++);
    }
    Status submitted = service.Submit(
        dataset.documents[i].text,
        [&results, &latencies, &drained, i](serving::ServedResult served) {
          results[i] = std::move(served.result);
          latencies[i] = served.latency_ms;
          drained.count_down();
        });
    if (!submitted.ok()) {
      // Shed at the door: the callback never runs, account for it here.
      results[i] = submitted;
      drained.count_down();
    }
  }
  drained.wait();

  ScoreInDatasetOrder(linker, dataset, results, latencies, &scores);
  scores.wall_ms = wall.ElapsedMillis();
  FinishLatencies(latencies, &scores);
  scores.metrics = service.metrics()->Snapshot();
  return scores;
}

SystemScores EvaluateSessions(const baselines::Linker& linker,
                              const kb::KbView& view,
                              const datasets::SessionDataset& sessions,
                              const SessionEvalOptions& options) {
  SystemScores scores;
  scores.system = std::string(linker.name());
  scores.dataset = sessions.name;
  WallTimer wall;
  std::vector<double> latencies;
  latencies.reserve(static_cast<size_t>(sessions.TotalTurns()));
  for (const datasets::Session& session : sessions.sessions) {
    // One context per conversation; turns replay strictly in order.
    serving::SessionContext context(options.session);
    for (const datasets::Document& turn : session.turns) {
      WallTimer doc_timer;
      Result<core::LinkingResult> result =
          options.use_session_context
              ? linker.LinkDocument(turn.text, context.MakeLinkContext())
              : linker.LinkDocument(turn.text);
      if (result.ok() && options.use_session_context) {
        serving::SessionTurnStats stats =
            context.ApplySessionCoherence(view, &result.value());
        scores.session_relinked += stats.relinked_to_memory;
        scores.session_isolated_resolved += stats.isolated_resolved;
        context.ObserveTurn(result.value());
      }
      double doc_ms = doc_timer.ElapsedMillis();
      scores.total_ms += doc_ms;
      if (doc_ms > scores.max_doc_ms) scores.max_doc_ms = doc_ms;
      latencies.push_back(doc_ms);
      ScoreDocument(linker, /*has_relation_gold=*/false, turn, result,
                    &scores);
    }
  }
  scores.wall_ms = wall.ElapsedMillis();
  FinishLatencies(latencies, &scores);
  scores.metrics = obs::MetricsRegistry::Default()->Snapshot();
  return scores;
}

SystemScores EvaluateDisambiguation(const baselines::Linker& linker,
                                    const datasets::Dataset& dataset,
                                    const text::Gazetteer& gazetteer) {
  SystemScores scores;
  scores.system = std::string(linker.name());
  scores.dataset = dataset.name;
  WallTimer wall;
  std::vector<double> latencies;
  latencies.reserve(dataset.documents.size());
  for (const datasets::Document& doc : dataset.documents) {
    core::MentionSet mentions = MentionSetFromGold(doc, gazetteer);
    WallTimer doc_timer;
    Result<core::LinkingResult> result =
        linker.LinkMentionSet(std::move(mentions));
    double doc_ms = doc_timer.ElapsedMillis();
    scores.total_ms += doc_ms;
    if (doc_ms > scores.max_doc_ms) scores.max_doc_ms = doc_ms;
    latencies.push_back(doc_ms);
    if (!CountOutcome(doc, result, &scores)) continue;
    SystemPrediction prediction = FromLinkingResult(*result);
    scores.entity_linking.Add(ScoreEntityLinking(doc, prediction));
  }
  scores.wall_ms = wall.ElapsedMillis();
  FinishLatencies(latencies, &scores);
  scores.metrics = obs::MetricsRegistry::Default()->Snapshot();
  return scores;
}

std::string FormatPRF(const PRF& prf) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.3f %.3f %.3f", prf.Precision(),
                prf.Recall(), prf.F1());
  return std::string(buffer);
}

std::string FormatDegradation(const SystemScores& scores) {
  char buffer[160];
  if (scores.degraded_documents > 0) {
    std::snprintf(buffer, sizeof(buffer),
                  "full %d | degraded %d (pair_link %d, prior_only %d) | "
                  "failed %d",
                  scores.full_documents, scores.degraded_documents,
                  scores.pairlink_documents, scores.prior_only_documents,
                  scores.failed_documents);
  } else {
    std::snprintf(buffer, sizeof(buffer),
                  "full %d | degraded %d | failed %d",
                  scores.full_documents, scores.degraded_documents,
                  scores.failed_documents);
  }
  return std::string(buffer);
}

std::string FormatLatencyMs(double ms) {
  if (std::isnan(ms)) return "n/a";
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.2f", ms);
  return std::string(buffer);
}

}  // namespace eval
}  // namespace tenet

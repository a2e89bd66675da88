#ifndef TENET_EVAL_HARNESS_H_
#define TENET_EVAL_HARNESS_H_

#include <functional>
#include <string>
#include <vector>

#include "baselines/linker.h"
#include "common/status.h"
#include "datasets/document.h"
#include "datasets/session_generator.h"
#include "eval/metrics.h"
#include "kb/kb_view.h"
#include "obs/metrics.h"
#include "serving/session.h"
#include "text/gazetteer.h"

namespace tenet {

namespace serving {
class BatchLinkingService;
}  // namespace serving

namespace eval {

// One document the system errored on.  Failures are isolated per document:
// the batch run records them and continues, so one corrupt or pathological
// document can no longer abort an evaluation.
struct DocumentFailure {
  std::string doc_id;
  Status status;
};

// Aggregate scores of one system over one dataset.
struct SystemScores {
  std::string system;
  std::string dataset;
  PRF entity_linking;       // Table 3
  PRF relation_linking;     // Table 4
  PRF mention_detection;    // Figure 6(a)
  PRF isolated_detection;   // Figure 6(c)
  /// Sum of per-document linking latencies.  Identical in meaning whether
  /// the run was serial or parallel, so runtime tables stay comparable.
  double total_ms = 0.0;
  /// End-to-end wall clock of the evaluation; ~total_ms for a serial run,
  /// ~total_ms / num_threads for a well-scaled parallel one.
  double wall_ms = 0.0;
  /// Largest single-document linking latency of the run.  Whatever the
  /// thread count, wall_ms >= max_doc_ms: no document can finish after the
  /// evaluation that contains it.
  double max_doc_ms = 0.0;
  /// Per-document latency percentiles (linear interpolation over the
  /// sorted sample).  NaN when the run produced no latency sample (empty
  /// dataset): there is no percentile of nothing, and 0.0 would read as
  /// "infinitely fast".  Render with FormatLatencyMs.
  double latency_p50_ms = 0.0;
  double latency_p99_ms = 0.0;
  /// Snapshot of the metrics registry the run published to, taken after
  /// the last document resolved (counters are process-cumulative; diff two
  /// snapshots for a per-run window).
  std::vector<obs::MetricPoint> metrics;
  int failed_documents = 0; // documents the system errored on
  /// Subset of failed_documents the guardrails rejected deliberately
  /// (kInvalidArgument / kResourceExhausted): the input was refused, the
  /// system did not malfunction.
  int rejected_documents = 0;
  /// Documents answered by the full pipeline.
  int full_documents = 0;
  /// Documents answered by a degraded mode (ok() with
  /// DegradationInfo.degraded()); these still count toward the PRF scores.
  int degraded_documents = 0;
  /// Breakdown of degraded_documents by ladder rung: the pair-link rung
  /// (Mode::kPairLink) vs per-canopy prior-only (Mode::kPriorOnly).
  /// pairlink_documents + prior_only_documents == degraded_documents.
  int pairlink_documents = 0;
  int prior_only_documents = 0;
  /// Session-layer interventions (EvaluateSessions only): links flipped to
  /// a remembered entity, and isolated mentions resolved from memory.
  int session_relinked = 0;
  int session_isolated_resolved = 0;
  /// One record per failed document, in dataset order.
  std::vector<DocumentFailure> failures;

  /// Failures that were NOT deliberate rejections — the signal a hardened
  /// run must keep at zero (tenet_cli exits non-zero otherwise).
  int CrashedDocuments() const {
    return failed_documents - rejected_documents;
  }
};

struct EvalOptions {
  /// Worker threads calling the linker, one document at a time each.
  /// Every document is linked once, straight through the linker (no
  /// serving layer, no retries), and results are merged in dataset order,
  /// so the scores are identical at every thread count.
  int num_threads = 1;
};

/// Runs `linker` end-to-end over every document of `dataset` and scores
/// all four measures.
SystemScores EvaluateEndToEnd(const baselines::Linker& linker,
                              const datasets::Dataset& dataset,
                              const EvalOptions& options = {});

// The live-update drill (`tenet_cli eval --kb-update-every N`): what to do
// to the serving KB, and how often, while an evaluation batch is in
// flight.
struct KbUpdatePlan {
  /// Documents between updates; 0 disables the plan entirely.
  int every = 0;
  /// Invoked synchronously from the submitting thread after every `every`
  /// documents, with the running update index (0, 1, ...).  Typically
  /// builds a delta generation from service.generation() and calls
  /// SwapGeneration; failures are the callback's to report.  Documents
  /// submitted before the call finish on the generation they pinned.
  std::function<void(serving::BatchLinkingService& service, int update)>
      apply;
};

/// Runs `dataset` through a caller-owned (typically generation-aware)
/// service, interleaving `plan`'s updates with document submissions, and
/// scores exactly as EvaluateEndToEnd does.  `linker` is only consulted
/// for scoring policy (name, links_relations) — the documents are linked
/// by whatever generation each one pinned at submission, so with a plan
/// that changes answers, scores can legitimately differ from a static run.
SystemScores EvaluateEndToEndLive(const baselines::Linker& linker,
                                  serving::BatchLinkingService& service,
                                  const datasets::Dataset& dataset,
                                  const KbUpdatePlan& plan);

struct SessionEvalOptions {
  /// When false, every turn is linked in isolation (no SessionContext):
  /// the baseline the session-replay table compares against.
  bool use_session_context = true;
  serving::SessionOptions session;
};

/// Session-replay evaluation (DESIGN.md §13): turns of each session are
/// linked in conversation order through one serving::SessionContext —
/// turn k's result is re-ranked against the entities turns 0..k-1
/// resolved, then observed into the memory — and scored per turn exactly
/// as EvaluateEndToEnd scores documents.  `view` is the KB the session
/// layer probes for candidate overlap.
SystemScores EvaluateSessions(const baselines::Linker& linker,
                              const kb::KbView& view,
                              const datasets::SessionDataset& sessions,
                              const SessionEvalOptions& options = {});

/// Disambiguation-only evaluation (Figure 6(b)): gold mentions are handed
/// to the system as input.
SystemScores EvaluateDisambiguation(const baselines::Linker& linker,
                                    const datasets::Dataset& dataset,
                                    const text::Gazetteer& gazetteer);

/// Formats "P R F" with three decimals for the harness tables.
std::string FormatPRF(const PRF& prf);

/// Formats the degraded-vs-full accounting for the harness tables:
/// "full 4 | degraded 0 | failed 0" for a clean run, with a per-rung
/// breakdown appended when anything degraded, e.g.
/// "full 2 | degraded 2 (pair_link 1, prior_only 1) | failed 0".
std::string FormatDegradation(const SystemScores& scores);

/// Formats a latency in milliseconds with two decimals, rendering the NaN
/// no-sample sentinel (see latency_p50_ms) as "n/a".
std::string FormatLatencyMs(double ms);

}  // namespace eval
}  // namespace tenet

#endif  // TENET_EVAL_HARNESS_H_

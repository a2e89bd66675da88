#include "serving/batch_service.h"

#include <condition_variable>
#include <cstring>
#include <mutex>
#include <utility>

#include "common/fault_injection.h"
#include "common/logging.h"
#include "common/timer.h"
#include "serving/kb_generation.h"

namespace tenet {
namespace serving {
namespace {

// Request-level retry eligibility: transient producer-side errors only.
// Deadline expiry can only get worse, invalid input can only repeat.
bool IsRetryable(const Status& status) {
  return status.code() == StatusCode::kInternal ||
         status.code() == StatusCode::kBoundTooSmall;
}

obs::MetricsRegistry* ResolveRegistry(const ServingOptions& options) {
  return options.metrics != nullptr ? options.metrics
                                    : obs::MetricsRegistry::Default();
}

AdmissionOptions ResolveAdmission(const ServingOptions& options) {
  AdmissionOptions admission = options.admission;
  if (admission.max_pending == 0) {
    admission.max_pending =
        static_cast<int>(options.queue_capacity) + options.num_threads;
  }
  if (admission.metrics == nullptr) admission.metrics = options.metrics;
  return admission;
}

CircuitBreakerOptions ResolveBreaker(const ServingOptions& options) {
  CircuitBreakerOptions breaker = options.breaker;
  if (breaker.metrics == nullptr) breaker.metrics = options.metrics;
  return breaker;
}

RetryBudget::Options ResolveRetryBudget(const ServingOptions& options) {
  RetryBudget::Options budget = options.retry_budget;
  if (budget.metrics == nullptr) budget.metrics = options.metrics;
  return budget;
}

std::unique_ptr<embedding::SimilarityCache> MakeSimilarityCache(
    const ServingOptions& options) {
  if (options.similarity_cache_bytes == 0) return nullptr;
  embedding::SimilarityCacheOptions cache_options;
  cache_options.capacity_bytes = options.similarity_cache_bytes;
  cache_options.metrics = ResolveRegistry(options);
  return std::make_unique<embedding::SimilarityCache>(cache_options);
}

ThreadPool::Options PoolOptions(const ServingOptions& options) {
  ThreadPool::Options pool;
  pool.num_threads = options.num_threads;
  pool.queue_capacity = options.queue_capacity;
  pool.overflow = options.overflow;
  return pool;
}

constexpr const char* kCompletedHelp =
    "Requests that reached a worker and resolved, by outcome.";
constexpr const char* kSwapHelp =
    "KB generation swap attempts: ok = published, rolled_back = failed "
    "(injected fault, id regression, or all RCU slots pinned) with the old "
    "generation kept serving.";
constexpr const char* kMergeHelp =
    "Background delta merges (compact + reload + swap), by outcome.";

}  // namespace

BatchLinkingService::Instruments BatchLinkingService::MakeInstruments(
    obs::MetricsRegistry* registry) {
  BatchLinkingService::Instruments m;
  m.submitted = registry->GetCounter(
      "tenet_serving_submitted_total",
      "Requests submitted to the serving layer (admitted or shed).");
  m.shed = registry->GetCounter(
      "tenet_serving_shed_total",
      "Requests refused before reaching a worker (admission or full "
      "queue); see tenet_admission_rejected_total for the reason split.");
  m.rejected_queue_full = registry->GetCounter(
      "tenet_admission_rejected_total",
      "Requests shed at the serving front door, by reason (capacity = "
      "pending budget, deadline = too little slack, queue_full = the worker "
      "queue refused).",
      obs::LabelPair("reason", "queue_full"));
  m.completed_full = registry->GetCounter("tenet_serving_completed_total",
                                          kCompletedHelp,
                                          obs::LabelPair("outcome", "full"));
  m.completed_degraded = registry->GetCounter(
      "tenet_serving_completed_total", kCompletedHelp,
      obs::LabelPair("outcome", "degraded"));
  m.completed_failed = registry->GetCounter(
      "tenet_serving_completed_total", kCompletedHelp,
      obs::LabelPair("outcome", "failed"));
  m.breaker_degraded = registry->GetCounter(
      "tenet_serving_breaker_degraded_total",
      "Degraded answers routed down the ladder by an open circuit breaker "
      "(a subset of outcome=\"degraded\").");
  m.retries = registry->GetCounter(
      "tenet_serving_retries_total",
      "Request-level retry attempts granted by the shared retry budget.");
  m.queue_depth = registry->GetGauge(
      "tenet_serving_queue_depth",
      "Requests enqueued for the worker pool and not yet picked up.");
  m.inflight = registry->GetGauge(
      "tenet_serving_inflight", "Requests currently linking on a worker.");
  m.request_latency = registry->GetHistogram(
      "tenet_request_latency_ms",
      "Worker-side processing latency per completed request in "
      "milliseconds, degraded answers included.");
  m.generation = registry->GetGauge(
      "tenet_kb_generation",
      "Id of the KB generation currently serving new requests.");
  m.swaps_ok = registry->GetCounter(
      "tenet_kb_swaps_total", kSwapHelp, obs::LabelPair("outcome", "ok"));
  m.swaps_rolled_back =
      registry->GetCounter("tenet_kb_swaps_total", kSwapHelp,
                           obs::LabelPair("outcome", "rolled_back"));
  m.merges_ok = registry->GetCounter(
      "tenet_kb_merges_total", kMergeHelp, obs::LabelPair("outcome", "ok"));
  m.merges_failed =
      registry->GetCounter("tenet_kb_merges_total", kMergeHelp,
                           obs::LabelPair("outcome", "failed"));
  m.swap_latency = registry->GetHistogram(
      "tenet_kb_swap_latency_ms",
      "Wall time of a successful SwapGeneration, from the call to the "
      "epoch publish, in milliseconds.");
  return m;
}

void BatchLinkingService::BreakerObserver::ObserveDependency(
    const char* dependency, bool ok) {
  CircuitBreaker* breaker = service_->MutableBreaker(dependency);
  if (breaker != nullptr) breaker->RecordOutcome(ok);
}

BatchLinkingService::BatchLinkingService(
    std::shared_ptr<const KbGeneration> generation, ServingOptions options)
    : options_(options),
      registry_(ResolveRegistry(options)),
      m_(MakeInstruments(registry_)),
      kb_alias_breaker_(kKbAliasDependency, ResolveBreaker(options)),
      embedding_breaker_(kEmbeddingDependency, ResolveBreaker(options)),
      cover_breaker_(kCoverSolveDependency, ResolveBreaker(options)),
      retry_budget_(ResolveRetryBudget(options)),
      admission_(ResolveAdmission(options)),
      similarity_cache_(MakeSimilarityCache(options)),
      generation_(std::move(generation)),
      observer_(this),
      observer_scope_(&observer_),
      pool_(PoolOptions(options)) {
  m_.generation->Set(static_cast<double>(generation_id()));
}

BatchLinkingService::~BatchLinkingService() { pool_.Shutdown(); }

CircuitBreaker* BatchLinkingService::MutableBreaker(const char* dependency) {
  if (std::strcmp(dependency, kKbAliasDependency) == 0) {
    return &kb_alias_breaker_;
  }
  if (std::strcmp(dependency, kEmbeddingDependency) == 0) {
    return &embedding_breaker_;
  }
  if (std::strcmp(dependency, kCoverSolveDependency) == 0) {
    return &cover_breaker_;
  }
  return nullptr;
}

const CircuitBreaker* BatchLinkingService::breaker(
    const char* dependency) const {
  return const_cast<BatchLinkingService*>(this)->MutableBreaker(dependency);
}

Deadline BatchLinkingService::DefaultDeadline() const {
  return Deadline::AfterMillis(options_.default_deadline_ms);
}

Status BatchLinkingService::Submit(std::string text, Callback done) {
  return Submit(std::move(text), core::LinkContext{}, std::move(done));
}

Status BatchLinkingService::Submit(std::string text, core::LinkContext context,
                                   Callback done) {
  TENET_CHECK(done != nullptr) << "Submit needs a completion callback";
  m_.submitted->Increment();
  const Deadline deadline = context.deadline_or(DefaultDeadline());
  Status admitted = admission_.Admit(deadline);
  if (!admitted.ok()) {
    m_.shed->Increment();
    return admitted;
  }
  embedding::SimilarityCache* cache = context.similarity_cache != nullptr
                                          ? context.similarity_cache
                                          : similarity_cache_.get();
  // Pin the serving generation at the door: whatever swaps land while this
  // request waits in the queue, it links against the generation that
  // admitted it, and that generation cannot be freed under it.
  Request request{std::move(text), deadline, context.trace, cache,
                  generation_.Acquire(), std::move(done)};
  Status queued = pool_.Submit(
      [this, request = std::move(request)]() mutable {
        Process(std::move(request));
      });
  if (!queued.ok()) {
    admission_.Complete();
    m_.shed->Increment();
    m_.rejected_queue_full->Increment();
    // Normalize "queue full" to the admission-shed contract.
    return Status::ResourceExhausted("shed: " + queued.message());
  }
  m_.queue_depth->Add(1.0);
  return Status::Ok();
}

void BatchLinkingService::Process(Request request) {
  m_.queue_depth->Add(-1.0);
  m_.inflight->Add(1.0);
  WallTimer timer;
  core::LinkContext context;
  // An infinite request deadline leaves the linker's own per-document
  // policy in charge.
  if (!request.deadline.infinite()) context.deadline = request.deadline;
  context.trace = request.trace;
  context.similarity_cache = request.similarity_cache;
  context.similarity_epoch = request.generation->id();
  const baselines::Linker& linker = request.generation->linker();

  // Routing: a request that meets any open breaker bypasses the full
  // pipeline instead of hammering the sick dependency with a doomed
  // attempt.  How far down the ladder it lands depends on which
  // dependency is sick: with only the cover-solve breaker open the KB and
  // embeddings are still healthy, so the request keeps its real budget
  // and is capped at the pair-link rung; a KB or embedding outage leaves
  // nothing better than the prior-only rung (expired deadline).
  const bool kb_allowed = kb_alias_breaker_.Allow();
  const bool embedding_allowed = embedding_breaker_.Allow();
  const bool cover_allowed = cover_breaker_.Allow();
  const bool breaker_bypass =
      !(kb_allowed && embedding_allowed && cover_allowed);
  const bool pair_link_route = kb_allowed && embedding_allowed &&
                               !cover_allowed;

  Result<core::LinkingResult> result = Status::Internal("not linked");
  if (breaker_bypass) {
    if (pair_link_route) {
      // The pair-link rung still consumes KB candidate lookups and
      // embedding similarities, so those probes stay legitimately spent.
      context.cap_to_pair_link = true;
    } else {
      // The prior-only route will not touch the dependencies, so any
      // half-open probes the other breakers just granted must be handed
      // back — otherwise staggered recoveries starve each other's probes
      // and breakers wedge in half-open.
      if (kb_allowed) kb_alias_breaker_.ReturnProbe();
      if (embedding_allowed) embedding_breaker_.ReturnProbe();
      if (cover_allowed) cover_breaker_.ReturnProbe();
      context.deadline = Deadline::Expired();
    }
    result = linker.LinkDocument(request.text, context);
  } else {
    RetrySchedule schedule(options_.retry, /*initial_value=*/0.0);
    for (;;) {
      result = linker.LinkDocument(request.text, context);
      if (result.ok() || !IsRetryable(result.status())) break;
      if (request.deadline.expired()) break;
      if (schedule.exhausted()) break;
      // The shared budget has the last word: no tokens, no retry —
      // whatever the per-request policy would still allow.
      if (!retry_budget_.TryAcquireRetry()) break;
      schedule.Next();
      m_.retries->Increment();
    }
    if (result.ok()) retry_budget_.RecordSuccess();
  }

  if (!result.ok()) {
    m_.completed_failed->Increment();
  } else if (result->degradation.degraded()) {
    m_.completed_degraded->Increment();
    if (breaker_bypass) m_.breaker_degraded->Increment();
  } else {
    m_.completed_full->Increment();
  }
  admission_.Complete();

  ServedResult served;
  served.result = std::move(result);
  served.latency_ms = timer.ElapsedMillis();
  served.shed = false;
  // Degraded and failed requests land in the same latency histogram as
  // full answers: a degraded answer is still a served request, and hiding
  // it would make the tail look better exactly when the ladder engages.
  m_.request_latency->Observe(served.latency_ms);
  m_.inflight->Add(-1.0);
  // Unpin before the callback: the callback may be the last thing keeping
  // a swap waiting (e.g. a test draining requests to free RCU slots), and
  // this request is done with the generation.
  request.generation.Release();
  request.done(std::move(served));
}

Status BatchLinkingService::SwapGeneration(
    std::shared_ptr<const KbGeneration> next) {
  if (next == nullptr) {
    return Status::InvalidArgument("SwapGeneration: null generation");
  }
  WallTimer timer;
  std::lock_guard<std::mutex> lock(swap_mu_);
  const uint64_t current_id = generation_.Current()->id();
  if (next->id() <= current_id) {
    m_.swaps_rolled_back->Increment();
    TENET_OBSERVE_DEPENDENCY("serving/kb_swap", false);
    return Status::FailedPrecondition(
        "SwapGeneration: generation ids must advance (serving " +
        std::to_string(current_id) + ", offered " +
        std::to_string(next->id()) + ")");
  }
  const uint64_t next_id = next->id();
  if (TENET_FAULT_POINT("serving/kb_swap")) {
    m_.swaps_rolled_back->Increment();
    TENET_OBSERVE_DEPENDENCY("serving/kb_swap", false);
    return Status::DataLoss(
        "injected fault: kb swap failed; still serving generation " +
        std::to_string(current_id));
  }
  Result<uint64_t> published = generation_.Publish(std::move(next));
  if (!published.ok()) {
    m_.swaps_rolled_back->Increment();
    TENET_OBSERVE_DEPENDENCY("serving/kb_swap", false);
    return published.status();
  }
  m_.generation->Set(static_cast<double>(next_id));
  m_.swaps_ok->Increment();
  m_.swap_latency->Observe(timer.ElapsedMillis());
  TENET_OBSERVE_DEPENDENCY("serving/kb_swap", true);
  return Status::Ok();
}

void BatchLinkingService::RunMerge(std::string kb_path,
                                   std::string embeddings_path,
                                   uint64_t next_id,
                                   std::function<void(Status)> done) {
  const auto finish = [&](Status status) {
    (status.ok() ? m_.merges_ok : m_.merges_failed)->Increment();
    if (done != nullptr) done(std::move(status));
  };
  // Compact the generation serving *now*; anything swapped in after this
  // point simply is not part of this merge.
  std::shared_ptr<const KbGeneration> current = generation_.Current();
  Status compacted = current->Compact(kb_path, embeddings_path);
  if (!compacted.ok()) {
    finish(std::move(compacted));
    return;
  }
  Result<std::shared_ptr<const KbGeneration>> merged =
      KbGeneration::Load(kb_path, embeddings_path, {}, next_id,
                         current->linker().pipeline().options());
  if (!merged.ok()) {
    finish(merged.status());
    return;
  }
  finish(SwapGeneration(std::move(merged).value()));
}

Status BatchLinkingService::ScheduleMerge(std::string kb_path,
                                          std::string embeddings_path,
                                          uint64_t next_id,
                                          std::function<void(Status)> done) {
  Status queued = pool_.Submit(
      [this, kb_path = std::move(kb_path),
       embeddings_path = std::move(embeddings_path), next_id,
       done = std::move(done)]() mutable {
        RunMerge(std::move(kb_path), std::move(embeddings_path), next_id,
                 std::move(done));
      });
  if (!queued.ok()) {
    return Status::ResourceExhausted("merge not scheduled: " +
                                     queued.message());
  }
  return Status::Ok();
}

std::shared_ptr<const KbGeneration> BatchLinkingService::generation() const {
  return generation_.Current();
}

uint64_t BatchLinkingService::generation_id() const {
  return generation_.Current()->id();
}

std::vector<ServedResult> BatchLinkingService::LinkBatch(
    const std::vector<std::string>& texts) {
  std::vector<ServedResult> results(texts.size());
  std::mutex mu;
  std::condition_variable all_done;
  size_t remaining = texts.size();

  for (size_t i = 0; i < texts.size(); ++i) {
    Status submitted = Submit(
        texts[i], [&, i](ServedResult served) {
          std::lock_guard<std::mutex> lock(mu);
          results[i] = std::move(served);
          if (--remaining == 0) all_done.notify_one();
        });
    if (!submitted.ok()) {
      std::lock_guard<std::mutex> lock(mu);
      results[i].result = submitted;
      results[i].shed = true;
      if (--remaining == 0) all_done.notify_one();
    }
  }

  std::unique_lock<std::mutex> lock(mu);
  all_done.wait(lock, [&] { return remaining == 0; });
  return results;
}

ServiceStats BatchLinkingService::Stats() const {
  ServiceStats stats;
  stats.submitted = m_.submitted->Value();
  stats.admitted = admission_.stats().admitted;
  stats.shed = m_.shed->Value();
  stats.full = m_.completed_full->Value();
  stats.degraded = m_.completed_degraded->Value();
  stats.failed = m_.completed_failed->Value();
  stats.completed = stats.full + stats.degraded + stats.failed;
  stats.breaker_degraded = m_.breaker_degraded->Value();
  stats.retries = m_.retries->Value();
  stats.generation = static_cast<int64_t>(m_.generation->Value());
  stats.swaps_ok = m_.swaps_ok->Value();
  stats.swaps_rolled_back = m_.swaps_rolled_back->Value();
  stats.merges_ok = m_.merges_ok->Value();
  stats.merges_failed = m_.merges_failed->Value();
  stats.kb_alias_breaker = kb_alias_breaker_.state();
  stats.embedding_breaker = embedding_breaker_.state();
  stats.cover_breaker = cover_breaker_.state();
  stats.latency_p50_ms = m_.request_latency->P50();
  stats.latency_p95_ms = m_.request_latency->P95();
  stats.latency_p99_ms = m_.request_latency->P99();
  return stats;
}

}  // namespace serving
}  // namespace tenet

#ifndef TENET_SERVING_BATCH_SERVICE_H_
#define TENET_SERVING_BATCH_SERVICE_H_

#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/bounded_queue.h"
#include "common/circuit_breaker.h"
#include "common/deadline.h"
#include "common/dependency_health.h"
#include "common/rcu.h"
#include "common/result.h"
#include "common/thread_pool.h"
#include "core/link_context.h"
#include "embedding/similarity_cache.h"
#include "obs/metrics.h"
#include "serving/admission_controller.h"
#include "serving/kb_generation.h"

namespace tenet {
namespace serving {

// The dependencies guarded by per-dependency circuit breakers — the same
// names as the TENET_FAULT_POINT / TENET_OBSERVE_DEPENDENCY annotations at
// the corresponding call sites.
inline constexpr const char* kKbAliasDependency = "kb/alias_lookup";
inline constexpr const char* kEmbeddingDependency = "embedding/fetch";
inline constexpr const char* kCoverSolveDependency = "core/cover_solve";

struct ServingOptions {
  /// Worker threads linking documents.
  int num_threads = 4;
  /// Requests buffered between admission and the workers.
  size_t queue_capacity = 64;
  /// kReject sheds on a full queue (kResourceExhausted back to the
  /// caller); kBlock applies backpressure instead — what the live-update
  /// evaluation drill uses, where shedding would change the scores.
  QueueOverflowPolicy overflow = QueueOverflowPolicy::kReject;
  /// Front-door policy; max_pending 0 derives queue_capacity+num_threads.
  AdmissionOptions admission;
  /// Deadline attached to requests submitted without one.  Infinite keeps
  /// the linker's own per-document policy in charge.
  double default_deadline_ms = std::numeric_limits<double>::infinity();
  /// Per-dependency breaker tuning (shared by all three breakers).
  CircuitBreakerOptions breaker;
  /// Request-level retries on retryable failures (kInternal,
  /// kBoundTooSmall).  Only max_retries is consulted; every retry must
  /// also be covered by the shared retry budget below, so retries stop
  /// fleet-wide during an outage instead of amplifying it.
  RetryPolicy retry{/*max_retries=*/1, /*multiplier=*/1.0,
                    /*max_value=*/std::numeric_limits<double>::infinity()};
  /// The shared retry budget (see RetryBudget).
  RetryBudget::Options retry_budget;
  /// Byte budget of the service-owned cross-request similarity cache.
  /// Recurring concept pairs across a serving workload hit the cache
  /// instead of recomputing the pairwise kernel; cached values are
  /// bit-identical to computed ones, so warming it never changes an
  /// answer.  0 disables the service-owned cache; a request can still
  /// bring its own via LinkContext::similarity_cache, which always wins.
  size_t similarity_cache_bytes = 0;
  /// Registry backing the service's counters, gauges and the per-request
  /// latency histogram, and — unless they carry their own — the nested
  /// admission/breaker/retry-budget metrics.  Null publishes to the
  /// process-wide default registry; tests inject a fresh registry per
  /// service so ledger assertions see an isolated window.
  obs::MetricsRegistry* metrics = nullptr;
};

// One served request's outcome: the linking result (or the error / shed
// status) plus the worker-side processing latency.  Shed requests never
// reached a worker; their latency is 0 and `shed` is true.
struct ServedResult {
  Result<core::LinkingResult> result = Status::Internal("not served");
  double latency_ms = 0.0;
  bool shed = false;
};

// A point-in-time snapshot of the service's accounting, read from the
// backing MetricsRegistry.  Every submitted request resolves to exactly
// one of shed / full / degraded / failed, so after a drain:
// submitted == shed + full + degraded + failed and
// completed == full + degraded + failed.
struct ServiceStats {
  int64_t submitted = 0;
  int64_t admitted = 0;
  int64_t shed = 0;       // refused at admission or on a full queue
  int64_t completed = 0;  // reached a worker and resolved
  int64_t full = 0;       // full-pipeline answers
  int64_t degraded = 0;   // degraded-mode answers (any rung)
  int64_t breaker_degraded = 0;  // of `degraded`: routed by an open breaker
  int64_t failed = 0;     // non-OK results
  int64_t retries = 0;    // request-level retry attempts
  int64_t generation = 0;        // id of the serving KB generation
  int64_t swaps_ok = 0;          // successful generation swaps
  int64_t swaps_rolled_back = 0;  // failed swaps (old generation kept)
  int64_t merges_ok = 0;         // background merges that landed
  int64_t merges_failed = 0;     // background merges rolled back
  BreakerState kb_alias_breaker = BreakerState::kClosed;
  BreakerState embedding_breaker = BreakerState::kClosed;
  BreakerState cover_breaker = BreakerState::kClosed;
  // Worker-side latency quantiles over every completed request, from the
  // tenet_request_latency_ms histogram (degraded answers included — a
  // degraded answer is still a served request).
  double latency_p50_ms = 0.0;
  double latency_p95_ms = 0.0;
  double latency_p99_ms = 0.0;
};

// The concurrent batch serving layer over a KbGeneration, hot-swappable
// between requests.
//
// A BatchLinkingService owns a fixed worker pool and serves the linker of
// one KbGeneration (a TenetLinker over a KB / embedding / gazetteer
// snapshot — all immutable after construction, so workers share them
// without locks).  Offline evaluation does not go through this class: the
// harness calls the linker directly (eval/harness.h).  Each request flows
//
//   Submit -> AdmissionController (shed?) -> BoundedQueue (shed/block?)
//          -> worker: breaker routing -> linker (+ budgeted retries)
//          -> callback
//
// Per-dependency circuit breakers watch the KB alias, embedding-fetch and
// cover-solver outcome streams (via the process-wide dependency observer
// installed for the service's lifetime).  A request that meets an open
// breaker is not failed: it is routed straight to the prior-only rung of
// the pipeline's degradation ladder by linking under an already-expired
// deadline — load on the sick dependency drops, answers keep flowing.
//
// Live KB updates (DESIGN.md §12): the service can be re-pointed at a newer
// generation with SwapGeneration, with zero locks on the read path.  Every
// request pins the then-current generation inside Submit — before it is
// queued — so a request that was waiting in the queue across a swap still
// links against the generation that admitted it, and two calls on the
// same thread straddling a swap may legitimately see different KBs.  A
// pinned generation cannot be freed until its last request finishes; a
// failed swap (injected fault, id regression, or all RCU slots pinned)
// rolls back: the old generation keeps serving, the failure is counted and
// reported to the dependency-health plumbing as "serving/kb_swap".
// ScheduleMerge runs the delta-folding compaction on the worker pool and
// swaps in the merged snapshot the same way.
//
// The service must outlive every callback; the destructor drains queued
// requests and joins the workers.
class BatchLinkingService {
 public:
  using Callback = std::function<void(ServedResult)>;

  /// The service shares ownership of `generation` (non-null) and serves its
  /// linker until a successful SwapGeneration.
  explicit BatchLinkingService(
      std::shared_ptr<const KbGeneration> generation,
      ServingOptions options = {});
  ~BatchLinkingService();

  BatchLinkingService(const BatchLinkingService&) = delete;
  BatchLinkingService& operator=(const BatchLinkingService&) = delete;

  /// Asynchronous entry point: admission, then enqueue.  Per-request knobs
  /// (deadline, trace) travel in the LinkContext; an unset context deadline
  /// is resolved against ServingOptions::default_deadline_ms at the door.
  /// On OK, `done` is invoked exactly once from a worker thread.  On
  /// kResourceExhausted the request was shed and `done` is never invoked.
  Status Submit(std::string text, Callback done);
  Status Submit(std::string text, core::LinkContext context, Callback done);

  /// Synchronous batch entry point with deterministic merging: results[i]
  /// always corresponds to texts[i], whatever order the workers finished
  /// in.  Shed requests (possible under kReject overflow) surface as
  /// entries with shed == true and a kResourceExhausted status.
  std::vector<ServedResult> LinkBatch(const std::vector<std::string>& texts);

  /// Atomically re-points the service at `next`.  Requests submitted after
  /// the call see the new generation; requests already admitted or queued
  /// finish on the one they pinned.  Fails — and keeps the old generation
  /// serving — when `next` is null, its id does not exceed the current
  /// generation's, the "serving/kb_swap" fault point fires, or every RCU
  /// slot is still pinned by in-flight readers (kResourceExhausted; retry
  /// after requests drain).  Thread-safe; swaps are serialized internally.
  Status SwapGeneration(std::shared_ptr<const KbGeneration> next);

  /// Schedules the merge on the worker pool: compact the current
  /// generation into a fresh TENETKB3/TENETEMB1 pair at the given paths
  /// (atomic writes), reload it as generation `next_id`, and swap it in.
  /// Any failure — write, reload, or swap — rolls back to the serving
  /// generation.  `done` (optional) receives the outcome from the worker.
  /// kResourceExhausted if the queue refuses the merge task.
  Status ScheduleMerge(std::string kb_path, std::string embeddings_path,
                       uint64_t next_id,
                       std::function<void(Status)> done = nullptr);

  /// The currently serving generation.
  std::shared_ptr<const KbGeneration> generation() const;

  /// Id of the currently serving generation.
  uint64_t generation_id() const;

  /// Accounting snapshot, read from the backing registry.
  ServiceStats Stats() const;

  /// The registry this service publishes to (the injected one, or the
  /// process-wide default).
  obs::MetricsRegistry* metrics() const { return registry_; }

  /// The service-owned cross-request similarity cache; null when
  /// ServingOptions::similarity_cache_bytes is 0.
  embedding::SimilarityCache* similarity_cache() const {
    return similarity_cache_.get();
  }

  /// Breaker watching `dependency` (one of the k*Dependency constants);
  /// null for unknown names.
  const CircuitBreaker* breaker(const char* dependency) const;

  const ServingOptions& options() const { return options_; }

 private:
  struct Request {
    std::string text;
    /// Resolved at the door: never "unset", so workers need no policy.
    Deadline deadline;
    obs::Trace* trace = nullptr;
    /// Resolved at the door: the request's own cache, else the
    /// service-owned one, else null.
    embedding::SimilarityCache* similarity_cache = nullptr;
    /// Pinned at the door: the generation this request links against,
    /// whatever swaps land while it waits in the queue.  Copies of the
    /// request (ThreadPool tasks are copyable std::functions) each hold
    /// their own pin.
    RcuCell<KbGeneration>::Pin generation;
    Callback done;
  };

  // The service's registry instruments, resolved once at construction.
  struct Instruments {
    obs::Counter* submitted;
    obs::Counter* shed;
    obs::Counter* rejected_queue_full;
    obs::Counter* completed_full;
    obs::Counter* completed_degraded;
    obs::Counter* completed_failed;
    obs::Counter* breaker_degraded;
    obs::Counter* retries;
    obs::Gauge* queue_depth;
    obs::Gauge* inflight;
    obs::Histogram* request_latency;
    obs::Gauge* generation;
    obs::Counter* swaps_ok;
    obs::Counter* swaps_rolled_back;
    obs::Counter* merges_ok;
    obs::Counter* merges_failed;
    obs::Histogram* swap_latency;
  };

  // Fans the dependency outcome stream out to the service's breakers.
  class BreakerObserver : public DependencyObserver {
   public:
    explicit BreakerObserver(BatchLinkingService* service)
        : service_(service) {}
    void ObserveDependency(const char* dependency, bool ok) override;

   private:
    BatchLinkingService* service_;
  };

  static Instruments MakeInstruments(obs::MetricsRegistry* registry);

  Deadline DefaultDeadline() const;
  void Process(Request request);
  CircuitBreaker* MutableBreaker(const char* dependency);
  void RunMerge(std::string kb_path, std::string embeddings_path,
                uint64_t next_id, std::function<void(Status)> done);

  const ServingOptions options_;
  obs::MetricsRegistry* registry_;
  Instruments m_;

  CircuitBreaker kb_alias_breaker_;
  CircuitBreaker embedding_breaker_;
  CircuitBreaker cover_breaker_;
  RetryBudget retry_budget_;
  AdmissionController admission_;
  std::unique_ptr<embedding::SimilarityCache> similarity_cache_;

  // Serializes SwapGeneration/merge bookkeeping (the RCU cell serializes
  // its own publishes; this covers the id check + metrics as one unit).
  std::mutex swap_mu_;

  // Declaration order is the destruction contract: the pool (last member)
  // is destroyed first, joining every worker — which releases every
  // Request's generation pin — before the generation cell, the observer
  // scope and the breakers die.
  RcuCell<KbGeneration> generation_;
  BreakerObserver observer_;
  ScopedDependencyObserver observer_scope_;
  ThreadPool pool_;
};

}  // namespace serving
}  // namespace tenet

#endif  // TENET_SERVING_BATCH_SERVICE_H_

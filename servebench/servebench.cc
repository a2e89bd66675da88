// The serving benchmark: a closed-loop client that drives
// BatchLinkingService through its public API on one generated workload,
// and a traced mode that attributes the served time to the library's
// layers by timing calls into their public functions from this file.
//
//   servebench prepare --workload W --seed N --dir DIR
//       Builds the synthetic world and the workload's corpus from the seed
//       and writes the KB snapshot and the corpus into DIR.
//   servebench serve --workload W --dir DIR --seconds S --trace 0|1
//       Loads the snapshot, serves the corpus for S seconds, checks the
//       outputs, and prints a report followed by one JSON line: the
//       end-to-end metrics with --trace 0, the per-layer metrics with
//       --trace 1.  Exits 1 when an output check fails.
//
// The serve step reads only the files prepare wrote, so world building and
// snapshot writes never fall inside a timed phase.  servebench/run.py
// builds this program and chains the two steps.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/canopy.h"
#include "core/coherence_graph.h"
#include "core/disambiguator.h"
#include "core/pipeline.h"
#include "core/tree_cover.h"
#include "datasets/corpus_generator.h"
#include "datasets/io.h"
#include "datasets/session_generator.h"
#include "datasets/spec.h"
#include "datasets/world.h"
#include "eval/metrics.h"
#include "kb/delta.h"
#include "kb/io.h"
#include "kb/sharded_kb.h"
#include "obs/metrics.h"
#include "serving/batch_service.h"
#include "serving/kb_generation.h"
#include "serving/session.h"
#include "text/extraction.h"

namespace tenet {
namespace servebench {
namespace {

using Clock = std::chrono::steady_clock;

double MillisBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

enum class Kind { kDocuments, kSessions };

struct Workload {
  const char* name;
  Kind kind;
  /// The ~58k-entity world instead of the 558-entity default one.
  bool huge_world;
  /// Shards of the served snapshot; 0 serves a flat snapshot.
  int shards;
  /// Snapshot load + service construction repetitions behind setup_s.
  int setup_reps;
};

// BatchLinkingService worker threads on every workload.  On a 4-core
// machine this leaves the submitting thread and a KB rebuild a core each.
constexpr int kWorkers = 2;

// Requests (documents) or conversations the client keeps in flight.
constexpr int kWindow = 4;

// sessions_live: turns served between two live KB updates, so that the
// rebuilds take about half the wall clock.
constexpr int kTurnsPerUpdate = 4000;

// Untimed serving before the timed loop.
constexpr double kWarmupSeconds = 1.0;

// clean_mix serves the four paper corpora at their native mix, each scaled
// by this factor (16+42+50+19 documents -> 1016), generated from a fixed
// corpus seed; the run's seed draws their interleaving.  Its tail latency
// and peak memory are set by its few heaviest MSNBC19 documents (peak RSS
// grows with the square of a document's mentions), so a corpus drawn per
// seed would measure the draw of those documents instead of the program.
constexpr int kCleanScale = 8;
constexpr uint64_t kCleanCorpusSeed = 77;
// huge_sharded: distinct MSNBC19-profile documents.
constexpr int kHugeDocs = 1024;
// sessions_live: distinct conversations (6 turns each).
constexpr int kSessions = 600;

const Workload kWorkloads[] = {
    {"clean_mix", Kind::kDocuments, /*huge_world=*/false, /*shards=*/0,
     /*setup_reps=*/51},
    {"huge_sharded", Kind::kDocuments, /*huge_world=*/true, /*shards=*/4,
     /*setup_reps=*/7},
    {"sessions_live", Kind::kSessions, /*huge_world=*/true, /*shards=*/0,
     /*setup_reps=*/7},
};

const Workload* FindWorkload(std::string_view name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

std::string CorpusPath(const std::string& dir) {
  return dir + "/corpus.tenetds";
}
std::string KbPath(const std::string& dir) { return dir + "/kb.tenetkb"; }
std::string EmbPath(const std::string& dir) { return dir + "/kb.tenetemb"; }
std::string ShardsPath(const std::string& dir) {
  return dir + "/kb.tenetshards";
}

// ---------------------------------------------------------------------------
// prepare
// ---------------------------------------------------------------------------

int Prepare(const Workload& w, uint64_t seed, const std::string& dir) {
  // The world is the KB under test, fixed across seeds; the seed drives the
  // traffic.
  datasets::WorldOptions world_options;
  if (w.huge_world) world_options.kb = kb::SyntheticKbOptions::Huge();
  datasets::SyntheticWorld world = datasets::BuildWorld(world_options);

  Rng rng(seed);
  datasets::Dataset corpus;
  corpus.name = w.name;
  if (w.kind == Kind::kSessions) {
    datasets::SessionSpec spec;
    spec.num_sessions = kSessions;
    spec.seed = seed;
    datasets::SessionDataset sessions =
        datasets::SessionGenerator(&world.kb_world).Generate(spec, rng);
    corpus = sessions.Flatten();
  } else if (w.huge_world) {
    datasets::DatasetSpec spec = datasets::Msnbc19Spec();
    spec.num_docs = kHugeDocs;
    corpus = datasets::CorpusGenerator(&world.kb_world).Generate(spec, rng);
    corpus.has_relation_gold = false;
  } else {
    // The four corpora interleaved at their native proportions.  Corpora
    // without relation gold carry no gold predicates, so scoring relations
    // on every document equals the harness's per-corpus rule.
    datasets::CorpusGenerator generator(&world.kb_world);
    Rng corpus_rng(kCleanCorpusSeed);
    for (datasets::DatasetSpec spec :
         {datasets::NewsSpec(), datasets::TRex42Spec(), datasets::Kore50Spec(),
          datasets::Msnbc19Spec()}) {
      spec.num_docs *= kCleanScale;
      datasets::Dataset part = generator.Generate(spec, corpus_rng);
      for (datasets::Document& doc : part.documents) {
        if (!part.has_relation_gold && !doc.gold_predicates.empty()) {
          std::fprintf(stderr, "%s: relation gold in a corpus without it\n",
                       doc.id.c_str());
          return 1;
        }
        doc.id = part.name + "/" + doc.id;
        corpus.documents.push_back(std::move(doc));
      }
    }
    for (size_t i = corpus.documents.size(); i > 1; --i) {
      std::swap(corpus.documents[i - 1],
                corpus.documents[rng.NextUint64(i)]);
    }
    corpus.has_relation_gold = true;
  }
  corpus.name = w.name;

  Status saved = datasets::SaveDataset(corpus, CorpusPath(dir));
  if (saved.ok()) {
    if (w.shards > 0) {
      saved = kb::ShardedKb::Partition(world.kb(), world.embeddings, w.shards)
                  .Save(ShardsPath(dir));
    } else {
      saved = kb::SaveKnowledgeBase(world.kb(), KbPath(dir));
      if (saved.ok()) {
        saved = kb::SaveEmbeddings(world.embeddings, EmbPath(dir));
      }
    }
  }
  if (!saved.ok()) {
    std::fprintf(stderr, "prepare: %s\n", saved.ToString().c_str());
    return 1;
  }
  std::fprintf(stderr, "prepared %s: %zu documents, %d entities\n", w.name,
               corpus.documents.size(), world.kb().num_entities());
  return 0;
}

// ---------------------------------------------------------------------------
// Output identity and scoring
// ---------------------------------------------------------------------------

class Fnv {
 public:
  void Bytes(const void* data, size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < n; ++i) {
      h_ ^= p[i];
      h_ *= 1099511628211ull;
    }
  }
  template <typename T>
  void Value(const T& v) {
    Bytes(&v, sizeof(v));
  }
  void String(std::string_view s) {
    Value(s.size());
    Bytes(s.data(), s.size());
  }
  uint64_t digest() const { return h_; }

 private:
  uint64_t h_ = 1469598103934665603ull;
};

// Identity of what a caller receives: links (with priors), isolated and
// selected mentions, and the degradation mode.
uint64_t Fingerprint(const core::LinkingResult& r) {
  Fnv h;
  h.Value(static_cast<int>(r.degradation.mode));
  h.Value(r.links.size());
  for (const core::LinkedConcept& link : r.links) {
    h.Value(link.mention_id);
    h.String(link.surface);
    h.Value(static_cast<int>(link.kind));
    h.Value(static_cast<int>(link.concept_ref.kind));
    h.Value(link.concept_ref.id);
    h.Value(link.prior);
  }
  h.Value(r.isolated_mentions.size());
  for (int m : r.isolated_mentions) h.Value(m);
  h.Value(r.selected_mentions.size());
  for (int m : r.selected_mentions) h.Value(m);
  return h.digest();
}

bool SamePrf(const eval::PRF& a, const eval::PRF& b) {
  return a.tp == b.tp && a.fp == b.fp && a.fn == b.fn;
}

// One distinct output slot (a document, or a session turn): the first
// result served for it fixes its identity and its score; every later serve
// must reproduce the identity.
struct OutputSlot {
  bool seen = false;
  uint64_t fingerprint = 0;
  core::DegradationInfo::Mode mode = core::DegradationInfo::Mode::kFull;
  eval::PRF entity;
  eval::PRF relation;
};

// Every distinct input served counts once: its repeated serves had to be
// identical, so the scores do not depend on how far the loop got.
void Totals(const std::vector<OutputSlot>& slots, eval::PRF* entity,
            eval::PRF* relation) {
  for (const OutputSlot& s : slots) {
    if (!s.seen) continue;
    entity->Add(s.entity);
    relation->Add(s.relation);
  }
}

// ---------------------------------------------------------------------------
// Process memory
// ---------------------------------------------------------------------------

double RssMb() {
  std::ifstream statm("/proc/self/statm");
  long pages_total = 0, pages_resident = 0;
  statm >> pages_total >> pages_resident;
  return double(pages_resident) * double(sysconf(_SC_PAGESIZE)) / 1048576.0;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return double(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

// ---------------------------------------------------------------------------
// Setup: snapshot load -> generation -> service
// ---------------------------------------------------------------------------

struct Served {
  // Declaration order is destruction order in reverse: the service dies
  // before the registry it publishes to.
  std::unique_ptr<obs::MetricsRegistry> registry;
  std::unique_ptr<serving::BatchLinkingService> service;
  double load_ms = 0.0;
  double start_ms = 0.0;
};

Result<Served> StartService(const Workload& w, const std::string& dir) {
  Served s;
  const Clock::time_point t0 = Clock::now();
  Result<std::shared_ptr<const serving::KbGeneration>> generation =
      w.shards > 0 ? serving::KbGeneration::LoadSharded(ShardsPath(dir), 1)
                   : serving::KbGeneration::Load(KbPath(dir), EmbPath(dir),
                                                 {}, 1);
  if (!generation.ok()) return generation.status();
  const Clock::time_point t1 = Clock::now();
  s.registry = std::make_unique<obs::MetricsRegistry>();
  serving::ServingOptions options;
  options.num_threads = kWorkers;
  options.metrics = s.registry.get();
  s.service = std::make_unique<serving::BatchLinkingService>(
      std::move(generation).value(), options);
  const Clock::time_point t2 = Clock::now();
  s.load_ms = MillisBetween(t0, t1);
  s.start_ms = MillisBetween(t1, t2);
  return s;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double sum = 0.0;
  for (double x : v) sum += x;
  return sum / double(v.size());
}

// Nearest-rank percentile.
double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(q * double(v.size())));
  rank = std::clamp<size_t>(rank, 1, v.size());
  return v[rank - 1];
}

// ---------------------------------------------------------------------------
// The closed loop
// ---------------------------------------------------------------------------

// Completions handed from the service's worker threads to the client.
class Mailbox {
 public:
  struct Letter {
    int slot = -1;
    serving::ServedResult served;
    Clock::time_point done;
  };

  /// Notifies under the lock: once the client has taken the last letter
  /// it destroys the mailbox, so a poster must be done with it by then.
  void Post(Letter letter) {
    std::lock_guard<std::mutex> lock(mu_);
    letters_.push_back(std::move(letter));
    cv_.notify_one();
  }

  /// Blocks until at least one letter arrived; returns all of them.
  std::vector<Letter> TakeAll() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return !letters_.empty(); });
    std::vector<Letter> out;
    out.swap(letters_);
    return out;
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<Letter> letters_;
};

// What one timed loop observed.  The per-request vectors always hold the
// submit->callback latency; the traced loop also keeps worker time and the
// session/update spans.
struct LoopStats {
  double wall_s = 0.0;
  int64_t attempted = 0;  // requests submitted (shed ones included)
  int64_t completed = 0;  // callbacks received
  int64_t ok = 0;
  int64_t failed = 0;     // non-OK results
  int64_t shed = 0;       // refused at Submit
  int64_t full = 0;       // ok results served by the full pipeline
  std::vector<double> latency_ms;
  // Sessions only: per-session similarity cache outcomes.
  int64_t cache_hits = 0;
  int64_t cache_misses = 0;
  // Traced only.
  std::vector<double> worker_ms;
  std::vector<double> session_ms;
  int64_t session_relinked = 0;
  // Live KB updates (sessions only).
  int64_t updates = 0;
  int64_t update_failures = 0;
  std::vector<double> delta_build_ms;
  std::vector<double> with_deltas_ms;
  std::vector<double> swap_ms;
  std::vector<double> update_ms;
  // Service accounting around the loop.
  serving::ServiceStats stats_before;
  serving::ServiceStats stats_after;
};

struct Corpus {
  datasets::Dataset dataset;
  // Sessions: [begin, end) document ranges, one per conversation.
  std::vector<std::pair<int, int>> sessions;
};

// The client state of a loop: the served outputs per distinct document
// (raw results) and, for sessions, per turn after the session layer.
struct Outputs {
  const datasets::Dataset* corpus;
  std::vector<OutputSlot> raw_slots;
  std::vector<OutputSlot> session_slots;
  int64_t mismatches = 0;

  explicit Outputs(const datasets::Dataset* dataset)
      : corpus(dataset),
        raw_slots(dataset->documents.size()),
        session_slots(dataset->documents.size()) {}

  /// Records one served result for `doc` in `slots`: the first one fixes
  /// the slot's identity and score, later ones must reproduce it.
  void Record(std::vector<OutputSlot>& slots, int doc,
              const core::LinkingResult& result) {
    OutputSlot& slot = slots[doc];
    const uint64_t fp = Fingerprint(result);
    if (!slot.seen) {
      slot.seen = true;
      slot.fingerprint = fp;
      slot.mode = result.degradation.mode;
      eval::SystemPrediction prediction = eval::FromLinkingResult(result);
      const datasets::Document& gold = corpus->documents[doc];
      slot.entity = eval::ScoreEntityLinking(gold, prediction);
      if (corpus->has_relation_gold) {
        slot.relation = eval::ScoreRelationLinking(gold, prediction);
      }
      return;
    }
    if (fp == slot.fingerprint) return;
    if (++mismatches <= 5) {
      std::fprintf(stderr, "output mismatch: %s served two different results\n",
                   corpus->documents[doc].id.c_str());
    }
  }
};

void CountResult(const serving::ServedResult& served, LoopStats* stats) {
  ++stats->completed;
  if (!served.result.ok()) {
    ++stats->failed;
    if (stats->failed <= 5) {
      std::fprintf(stderr, "request failed: %s\n",
                   served.result.status().ToString().c_str());
    }
    return;
  }
  ++stats->ok;
  if (!served.result->degradation.degraded()) ++stats->full;
}

// Documents: one client keeps kWindow requests outstanding, cycling
// through the corpus in order.  Like the session loop, it runs for
// `seconds` and at least until every input was answered once, so scores
// always cover the whole corpus.
LoopStats RunDocumentLoop(serving::BatchLinkingService& svc,
                          const Corpus& corpus, double seconds, bool traced,
                          Outputs* out) {
  LoopStats stats;
  stats.stats_before = svc.Stats();
  const auto& docs = corpus.dataset.documents;
  Mailbox mailbox;
  std::vector<int> slot_doc(kWindow, -1);
  std::vector<Clock::time_point> slot_submit(kWindow);
  int next_doc = 0;
  int inflight = 0;
  std::vector<char> answered(docs.size(), 0);
  size_t distinct_answered = 0;

  const Clock::time_point start = Clock::now();
  const Clock::time_point stop =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  auto submit = [&](int slot) {
    // A shed request is counted and the next document tried at once.
    while (true) {
      const int doc = next_doc;
      next_doc = (next_doc + 1) % static_cast<int>(docs.size());
      slot_doc[slot] = doc;
      ++stats.attempted;
      slot_submit[slot] = Clock::now();
      Status status = svc.Submit(
          docs[doc].text, [&mailbox, slot](serving::ServedResult served) {
            const Clock::time_point done = Clock::now();
            mailbox.Post({slot, std::move(served), done});
          });
      if (status.ok()) {
        ++inflight;
        return;
      }
      ++stats.shed;
      if (Clock::now() >= stop) return;
    }
  };
  for (int slot = 0; slot < kWindow; ++slot) submit(slot);
  while (inflight > 0) {
    for (Mailbox::Letter& letter : mailbox.TakeAll()) {
      --inflight;
      const int slot = letter.slot;
      const int doc = slot_doc[slot];
      stats.latency_ms.push_back(MillisBetween(slot_submit[slot], letter.done));
      if (traced) stats.worker_ms.push_back(letter.served.latency_ms);
      CountResult(letter.served, &stats);
      if (letter.served.result.ok()) {
        out->Record(out->raw_slots, doc, *letter.served.result);
      }
      if (!answered[doc]) {
        answered[doc] = 1;
        ++distinct_answered;
      }
      if (Clock::now() < stop || distinct_answered < docs.size()) {
        submit(slot);
      }
    }
  }
  stats.wall_s = MillisBetween(start, Clock::now()) / 1000.0;
  stats.stats_after = svc.Stats();
  return stats;
}

// One live KB edit: a fresh, unmentioned entity, so the full
// delta -> rebuild -> swap path runs while every served answer stays
// comparable.
void ApplyUpdate(serving::BatchLinkingService& svc, LoopStats* stats) {
  const Clock::time_point t0 = Clock::now();
  std::shared_ptr<const serving::KbGeneration> current = svc.generation();
  const uint64_t update = current->id() + 1;
  kb::DeltaBuilder builder(current->kb());
  const std::string label = "zz live update " + std::to_string(update);
  const kb::EntityId id = builder.AddEntity(label, kb::EntityType::kPerson,
                                            /*domain=*/0, /*popularity=*/1.0);
  builder.AddEntityAlias(id, label + " (alias)", 1.0);
  Rng rng(1000003ull + update);
  std::vector<float> row(current->embeddings().dimension());
  for (float& v : row) v = static_cast<float>(rng.NextGaussian());
  builder.SetEmbedding(kb::ConceptRef::Entity(id), row);
  std::vector<kb::DeltaSegment> segments;
  segments.push_back(builder.Build());
  const Clock::time_point t1 = Clock::now();
  Result<std::shared_ptr<const serving::KbGeneration>> next =
      current->WithDeltas(segments, update);
  current.reset();
  const Clock::time_point t2 = Clock::now();
  Status swapped = next.ok() ? svc.SwapGeneration(std::move(next).value())
                             : next.status();
  const Clock::time_point t3 = Clock::now();
  ++stats->updates;
  if (!swapped.ok()) {
    ++stats->update_failures;
    std::fprintf(stderr, "kb update %lld: %s\n",
                 static_cast<long long>(update), swapped.ToString().c_str());
  }
  stats->delta_build_ms.push_back(MillisBetween(t0, t1));
  stats->with_deltas_ms.push_back(MillisBetween(t1, t2));
  stats->swap_ms.push_back(MillisBetween(t2, t3));
  stats->update_ms.push_back(MillisBetween(t0, t3));
}

// Sessions: kWindow conversations in flight, each submitting its next
// turn only after the previous reply went through the session layer; every
// kTurnsPerUpdate turns the client applies one live KB update.  The
// process RSS before the first update and after each one is appended to
// `rss_by_swap`.
LoopStats RunSessionLoop(serving::BatchLinkingService& svc,
                         const Corpus& corpus, double seconds, bool traced,
                         Outputs* out, std::vector<double>* rss_by_swap) {
  LoopStats stats;
  stats.stats_before = svc.Stats();
  const auto& docs = corpus.dataset.documents;
  struct Slot {
    int session = -1;
    int turn = -1;  // document index of the turn in flight
    std::unique_ptr<serving::SessionContext> context;
    std::shared_ptr<const serving::KbGeneration> generation;
    Clock::time_point submitted;
  };
  Mailbox mailbox;
  std::vector<Slot> slots(kWindow);
  int next_session = 0;
  int inflight = 0;
  int64_t turns_since_update = 0;
  std::vector<char> answered(corpus.sessions.size(), 0);
  size_t distinct_answered = 0;

  const Clock::time_point start = Clock::now();
  const Clock::time_point stop =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  auto finish_session = [&](Slot& s) {
    if (s.context == nullptr) return;
    if (embedding::SimilarityCache* cache = s.context->similarity_cache()) {
      embedding::SimilarityCache::Stats cs = cache->GetStats();
      stats.cache_hits += cs.hits;
      stats.cache_misses += cs.misses;
    }
    s.context.reset();
  };
  auto submit = [&](int index) {
    Slot& s = slots[index];
    while (true) {
      if (s.context == nullptr) {
        s.session = next_session;
        next_session = (next_session + 1) %
                       static_cast<int>(corpus.sessions.size());
        s.turn = corpus.sessions[s.session].first;
        s.context = std::make_unique<serving::SessionContext>();
      }
      s.generation = svc.generation();
      core::LinkContext context =
          s.context->MakeLinkContext(s.generation->id());
      ++stats.attempted;
      s.submitted = Clock::now();
      Status status = svc.Submit(
          docs[s.turn].text, std::move(context),
          [&mailbox, index](serving::ServedResult served) {
            const Clock::time_point done = Clock::now();
            mailbox.Post({index, std::move(served), done});
          });
      if (status.ok()) {
        ++inflight;
        return;
      }
      ++stats.shed;
      finish_session(s);  // the conversation cannot go on without the turn
      if (Clock::now() >= stop) return;
    }
  };
  for (int i = 0; i < kWindow; ++i) submit(i);
  while (inflight > 0) {
    for (Mailbox::Letter& letter : mailbox.TakeAll()) {
      --inflight;
      Slot& s = slots[letter.slot];
      const int doc = s.turn;
      stats.latency_ms.push_back(MillisBetween(s.submitted, letter.done));
      if (traced) stats.worker_ms.push_back(letter.served.latency_ms);
      CountResult(letter.served, &stats);
      bool session_goes_on = false;
      if (letter.served.result.ok()) {
        core::LinkingResult& result = *letter.served.result;
        out->Record(out->raw_slots, doc, result);
        const Clock::time_point t0 = Clock::now();
        serving::SessionTurnStats turn_stats =
            s.context->ApplySessionCoherence(s.generation->view(), &result);
        s.context->ObserveTurn(result);
        if (traced) {
          stats.session_ms.push_back(MillisBetween(t0, Clock::now()));
          stats.session_relinked += turn_stats.relinked_to_memory;
        }
        out->Record(out->session_slots, doc, result);
        session_goes_on = doc + 1 < corpus.sessions[s.session].second;
      }
      s.generation.reset();
      if (session_goes_on) {
        ++s.turn;
      } else {
        if (!answered[s.session]) {
          answered[s.session] = 1;
          ++distinct_answered;
        }
        finish_session(s);
      }
      ++turns_since_update;
      if (turns_since_update >= kTurnsPerUpdate && Clock::now() < stop) {
        if (rss_by_swap->empty()) rss_by_swap->push_back(RssMb());
        ApplyUpdate(svc, &stats);
        rss_by_swap->push_back(RssMb());
        turns_since_update = 0;
      }
      if (Clock::now() < stop || distinct_answered < answered.size()) {
        submit(letter.slot);
      } else {
        finish_session(s);
      }
    }
  }
  stats.wall_s = MillisBetween(start, Clock::now()) / 1000.0;
  stats.stats_after = svc.Stats();
  return stats;
}

// ---------------------------------------------------------------------------
// The traced replay: every distinct document, serially, on the serving
// generation — once through TenetPipeline::LinkDocument and once through
// the stage functions it calls, each timed from here.
// ---------------------------------------------------------------------------

struct StageTotals {
  int docs = 0;
  double link_ms = 0.0;
  double extract_ms = 0.0;
  double canopy_ms = 0.0;
  double graph_ms = 0.0;
  double cover_ms = 0.0;
  double disambiguate_ms = 0.0;
  int64_t mentions = 0;
  int64_t concepts = 0;
  int64_t edges = 0;
  int64_t cover_attempts = 0;
  int64_t pruned_edges = 0;
  int64_t mst_edges = 0;
  int64_t subtrees = 0;
  int64_t matched_subtrees = 0;
  int64_t lookups = 0;
  int64_t postings = 0;
  double lookup_ns = 0.0;
  double unattributed_ms = 0.0;
  int64_t mismatches = 0;
};

// The pipeline's full path rebuilt from its public stage functions, with
// the same options, inputs and assembly as TenetPipeline::LinkDocument.
class StageChain {
 public:
  explicit StageChain(std::shared_ptr<const serving::KbGeneration> generation)
      : generation_(std::move(generation)),
        options_(generation_->linker().pipeline().options()),
        view_(generation_, &generation_->view()),
        builder_(view_, options_.graph),
        disambiguator_(options_.disambiguator) {}

  /// Links `text`, adding its stage times and counts to `totals`.  A
  /// document the full path cannot cover comes back with the pair-link
  /// mode and no links (the rung itself is not reproduced here).
  Result<core::LinkingResult> Link(std::string_view text,
                                   StageTotals* totals) const {
    const text::Gazetteer* gazetteer = &generation_->gazetteer();
    core::LinkingResult result;

    Clock::time_point t0 = Clock::now();
    text::Extractor extractor(gazetteer);
    text::TextGuardReport report;
    Result<text::ExtractionResult> extraction =
        extractor.ExtractFromText(text, options_.limits, &report);
    Clock::time_point t1 = Clock::now();
    totals->extract_ms += MillisBetween(t0, t1);
    if (!extraction.ok()) return extraction.status();

    core::MentionSet mentions =
        core::BuildMentionSet(extraction.value(), gazetteer, options_.canopy);
    Clock::time_point t2 = Clock::now();
    totals->canopy_ms += MillisBetween(t1, t2);
    totals->mentions += mentions.num_mentions();
    if (mentions.num_mentions() == 0) {
      result.mentions = std::move(mentions);
      return result;
    }

    core::CoherenceGraph cg = builder_.Build(
        std::move(mentions), builder_.options().similarity_cache, 0);
    Clock::time_point t3 = Clock::now();
    totals->graph_ms += MillisBetween(t2, t3);
    totals->concepts += cg.num_concept_nodes();
    totals->edges += cg.graph().num_edges();

    RetrySchedule schedule(options_.bound_retry,
                           options_.bound_factor * cg.num_mentions());
    Result<core::TreeCover> cover = Status::Internal("unsolved");
    core::TreeCoverStats cover_stats;
    do {
      cover = solver_.Solve(cg, schedule.value(), &cover_stats);
      ++totals->cover_attempts;
      if (cover.ok() || !cover.status().IsBoundTooSmall()) break;
    } while (schedule.Next());
    Clock::time_point t4 = Clock::now();
    totals->cover_ms += MillisBetween(t3, t4);
    totals->pruned_edges += cover_stats.pruned_edges;
    totals->mst_edges += cover_stats.mst_edges;
    totals->subtrees += cover_stats.subtrees;
    totals->matched_subtrees += cover_stats.matched_subtrees;
    if (!cover.ok()) {
      if (!options_.degrade_to_prior) return cover.status();
      result.degradation.mode = options_.pair_link.enabled
                                    ? core::DegradationInfo::Mode::kPairLink
                                    : core::DegradationInfo::Mode::kPriorOnly;
      return result;
    }

    core::DisambiguationResult gamma =
        disambiguator_.Run(cg, cover.value());
    const core::MentionSet& universe = cg.mentions();
    for (const auto& [mention_id, node] : gamma.selected_node) {
      const core::CoherenceGraph::ConceptNode& cn = cg.concept_node(node);
      core::LinkedConcept link;
      link.mention_id = mention_id;
      link.surface = universe.mention(mention_id).surface;
      link.kind = universe.mention(mention_id).kind;
      link.concept_ref = cn.ref;
      link.prior = cn.prior;
      result.links.push_back(std::move(link));
      result.selected_mentions.push_back(mention_id);
    }
    std::sort(result.links.begin(), result.links.end(),
              [](const core::LinkedConcept& a, const core::LinkedConcept& b) {
                return a.mention_id < b.mention_id;
              });
    for (int g = 0; g < universe.num_groups(); ++g) {
      const std::vector<int>& reading =
          gamma.group_resolved[g]
              ? universe.groups[g].canopies[gamma.winning_canopy[g]].mentions
              : universe.groups[g].short_mentions;
      for (int mention_id : reading) {
        if (!gamma.IsLinked(mention_id)) {
          result.isolated_mentions.push_back(mention_id);
          result.selected_mentions.push_back(mention_id);
        }
      }
    }
    std::sort(result.selected_mentions.begin(),
              result.selected_mentions.end());
    std::sort(result.isolated_mentions.begin(),
              result.isolated_mentions.end());
    Clock::time_point t5 = Clock::now();
    totals->disambiguate_ms += MillisBetween(t4, t5);

    // Candidate generation replayed alone, after the stages so it does
    // not warm their caches: the graph stage's KB lookups, one per
    // mention, with the graph's own candidate cap.
    const int k = options_.graph.max_candidates_per_mention;
    int64_t postings = 0;
    Clock::time_point t6 = Clock::now();
    for (const core::Mention& m : universe.mentions) {
      int overflow = 0;
      if (m.is_noun()) {
        postings += static_cast<int64_t>(
            view_->CandidateEntities(m.surface, m.type, k, &overflow).size());
      } else {
        postings += static_cast<int64_t>(
            view_->CandidatePredicates(m.surface, k, &overflow).size());
      }
      postings += overflow;
    }
    Clock::time_point t7 = Clock::now();
    totals->lookups += universe.num_mentions();
    totals->postings += postings;
    totals->lookup_ns += MillisBetween(t6, t7) * 1e6;

    result.mentions = cg.mentions();
    return result;
  }

 private:
  std::shared_ptr<const serving::KbGeneration> generation_;
  const core::TenetOptions& options_;
  std::shared_ptr<const kb::KbView> view_;
  core::CoherenceGraphBuilder builder_;
  core::TreeCoverSolver solver_;
  core::Disambiguator disambiguator_;
};

bool SameOutput(const OutputSlot& served, const core::LinkingResult& replay,
                bool compare_links) {
  if (served.mode != replay.degradation.mode) return false;
  return !compare_links || served.fingerprint == Fingerprint(replay);
}

// Replays every served document through LinkDocument and, when
// `check_chain`, through the stage chain, comparing both with what the loop
// served.  The two replays of a document run back to back, in alternating
// order, so machine drift and warm caches cancel out of the unattributed
// time.  Scores of the LinkDocument replay go to `entity`/`relation`.
StageTotals Replay(std::shared_ptr<const serving::KbGeneration> generation,
                   const Corpus& corpus, const Outputs& out,
                   bool check_chain, eval::PRF* entity, eval::PRF* relation) {
  StageTotals totals;
  const auto& docs = corpus.dataset.documents;
  const baselines::TenetLinker& linker = generation->linker();
  std::optional<StageChain> chain;
  if (check_chain) chain.emplace(generation);
  auto mismatch = [&](const char* path, size_t doc) {
    ++totals.mismatches;
    if (totals.mismatches <= 5) {
      std::fprintf(stderr, "replay mismatch (%s): %s\n", path,
                   docs[doc].id.c_str());
    }
  };
  auto link_document = [&](size_t doc) {
    const OutputSlot& served = out.raw_slots[doc];
    const Clock::time_point t0 = Clock::now();
    Result<core::LinkingResult> r = linker.LinkDocument(docs[doc].text);
    const double ms = MillisBetween(t0, Clock::now());
    if (!r.ok() || !SameOutput(served, *r, /*compare_links=*/true)) {
      mismatch("LinkDocument", doc);
      return ms;
    }
    eval::SystemPrediction prediction = eval::FromLinkingResult(*r);
    entity->Add(eval::ScoreEntityLinking(docs[doc], prediction));
    if (corpus.dataset.has_relation_gold) {
      relation->Add(eval::ScoreRelationLinking(docs[doc], prediction));
    }
    return ms;
  };
  auto stage_sum = [&totals] {
    return totals.extract_ms + totals.canopy_ms + totals.graph_ms +
           totals.cover_ms + totals.disambiguate_ms;
  };
  auto chain_link = [&](size_t doc) {
    const OutputSlot& served = out.raw_slots[doc];
    const double before = stage_sum();
    Result<core::LinkingResult> r = chain->Link(docs[doc].text, &totals);
    const bool full = served.mode == core::DegradationInfo::Mode::kFull;
    if (!r.ok() || !SameOutput(served, *r, /*compare_links=*/full)) {
      mismatch("stage chain", doc);
    }
    return stage_sum() - before;
  };
  for (size_t doc = 0; doc < docs.size(); ++doc) {
    if (!out.raw_slots[doc].seen) continue;
    if (!check_chain) {
      link_document(doc);
      continue;
    }
    double link_ms = 0.0, stages_ms = 0.0;
    if (doc % 2 == 0) {
      link_ms = link_document(doc);
      stages_ms = chain_link(doc);
    } else {
      stages_ms = chain_link(doc);
      link_ms = link_document(doc);
    }
    ++totals.docs;
    totals.link_ms += link_ms;
    totals.unattributed_ms += link_ms - stages_ms;
  }
  return totals;
}

// Sessions: every conversation replayed serially through LinkDocument and
// the session layer; raw and session-level outputs must match the served
// ones turn by turn.
int64_t ReplaySessions(std::shared_ptr<const serving::KbGeneration> generation,
                       const Corpus& corpus, const Outputs& out,
                       eval::PRF* entity) {
  int64_t mismatches = 0;
  const auto& docs = corpus.dataset.documents;
  const baselines::TenetLinker& linker = generation->linker();
  for (const auto& [begin, end] : corpus.sessions) {
    if (!out.raw_slots[begin].seen) continue;
    serving::SessionContext context;
    for (int doc = begin; doc < end && out.raw_slots[doc].seen; ++doc) {
      Result<core::LinkingResult> r = linker.LinkDocument(
          docs[doc].text, context.MakeLinkContext(generation->id()));
      bool same = r.ok() && SameOutput(out.raw_slots[doc], *r, true);
      if (r.ok()) {
        context.ApplySessionCoherence(generation->view(), &r.value());
        context.ObserveTurn(*r);
        const OutputSlot& served = out.session_slots[doc];
        same = same && SameOutput(served, *r, true);
        entity->Add(
            eval::ScoreEntityLinking(docs[doc], eval::FromLinkingResult(*r)));
      }
      if (!same) {
        ++mismatches;
        if (mismatches <= 5) {
          std::fprintf(stderr, "session replay mismatch: %s\n",
                       docs[doc].id.c_str());
        }
      }
    }
  }
  return mismatches;
}

// ---------------------------------------------------------------------------
// Reporting
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string FormatNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void PrintResult(bool correct, int64_t attempted, int64_t failed,
                 const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("  %-34s %16.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " +
            FormatNumber(metrics[i].value) + ", \"unit\": \"" +
            metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

double PerDoc(double total, int docs) { return docs > 0 ? total / docs : 0.0; }

double Share(int64_t part, int64_t whole) {
  return whole > 0 ? double(part) / double(whole) : 0.0;
}

// ---------------------------------------------------------------------------
// serve
// ---------------------------------------------------------------------------

Result<Corpus> LoadCorpus(const Workload& w, const std::string& dir) {
  Result<datasets::Dataset> dataset = datasets::LoadDataset(CorpusPath(dir));
  if (!dataset.ok()) return dataset.status();
  Corpus corpus;
  corpus.dataset = std::move(dataset).value();
  if (corpus.dataset.documents.empty()) {
    return Status::InvalidArgument("empty corpus");
  }
  if (w.kind == Kind::kSessions) {
    // Turn ids are "<session id>/turn-<t>", in conversation order.
    const auto& docs = corpus.dataset.documents;
    auto session_of = [&docs](size_t i) {
      return docs[i].id.substr(0, docs[i].id.rfind("/turn-"));
    };
    size_t begin = 0;
    for (size_t i = 1; i <= docs.size(); ++i) {
      if (i == docs.size() || session_of(i) != session_of(begin)) {
        corpus.sessions.emplace_back(static_cast<int>(begin),
                                     static_cast<int>(i));
        begin = i;
      }
    }
  }
  return corpus;
}

int Serve(const Workload& w, const std::string& dir, double seconds,
          bool trace) {
  Result<Corpus> loaded = LoadCorpus(w, dir);
  if (!loaded.ok()) {
    std::fprintf(stderr, "corpus: %s\n", loaded.status().ToString().c_str());
    return 1;
  }
  const Corpus& corpus = *loaded;

  // Set-up, repeated; the last one serves.  Memory is read after the
  // first, as a fresh process would see it.
  std::vector<double> setup_s, load_ms, start_ms;
  double rss_after_setup_mb = 0.0;
  Served served;
  for (int rep = 0; rep < w.setup_reps; ++rep) {
    // Release the previous service, then its registry and generation.
    served.service.reset();
    served = Served{};
    const Clock::time_point t0 = Clock::now();
    Result<Served> s = StartService(w, dir);
    const Clock::time_point t1 = Clock::now();
    if (!s.ok()) {
      std::fprintf(stderr, "setup: %s\n", s.status().ToString().c_str());
      return 1;
    }
    served = std::move(s).value();
    setup_s.push_back(MillisBetween(t0, t1) / 1000.0);
    load_ms.push_back(served.load_ms);
    start_ms.push_back(served.start_ms);
    if (rep == 0) rss_after_setup_mb = RssMb();
  }
  serving::BatchLinkingService& svc = *served.service;

  std::vector<double> rss_by_swap;
  auto run_loop = [&](double loop_seconds, bool traced, Outputs* out) {
    return w.kind == Kind::kSessions
               ? RunSessionLoop(svc, corpus, loop_seconds, traced, out,
                                &rss_by_swap)
               : RunDocumentLoop(svc, corpus, loop_seconds, traced, out);
  };
  // An untimed warm-up lets lazy allocations and caches settle; its
  // outputs go through the same checks as the timed loop's.
  Outputs untraced_out(&corpus.dataset);
  const LoopStats warmup =
      run_loop(kWarmupSeconds, /*traced=*/false, &untraced_out);
  const LoopStats untraced = run_loop(seconds, /*traced=*/false, &untraced_out);
  const double peak_rss_mb = PeakRssMb();

  // Served scores: raw results for documents, session-level results for
  // sessions (what the conversation's caller sees).
  auto totals = [&w](const Outputs& out, eval::PRF* entity,
                     eval::PRF* relation) {
    Totals(w.kind == Kind::kSessions ? out.session_slots : out.raw_slots,
           entity, relation);
  };
  eval::PRF entity, relation;
  totals(untraced_out, &entity, &relation);

  std::optional<Outputs> traced_out;
  LoopStats traced;
  bool traced_scores_match = true;
  if (trace) {
    traced_out.emplace(&corpus.dataset);
    traced = run_loop(seconds, /*traced=*/true, &*traced_out);
    eval::PRF traced_entity, traced_relation;
    totals(*traced_out, &traced_entity, &traced_relation);
    traced_scores_match =
        SamePrf(traced_entity, entity) && SamePrf(traced_relation, relation);
    if (!traced_scores_match) {
      std::fprintf(stderr, "traced and untraced loops scored differently\n");
    }
  }
  const Outputs& out = trace ? *traced_out : untraced_out;

  // Output checks.  Every run replays each served document serially on
  // the serving generation through LinkDocument; the traced run also
  // replays the stage chain.  Sessions replay whole conversations, and the
  // last generation stands for all of them: every serve of a turn, on any
  // generation, already had to reproduce its first serve.
  std::shared_ptr<const serving::KbGeneration> generation = svc.generation();
  eval::PRF replay_entity, replay_relation;
  StageTotals stages;
  int64_t replay_mismatches = 0;
  if (w.kind == Kind::kSessions) {
    replay_mismatches =
        ReplaySessions(generation, corpus, out, &replay_entity);
    if (trace) {
      eval::PRF unused_entity, unused_relation;
      stages = Replay(generation, corpus, out, /*check_chain=*/true,
                      &unused_entity, &unused_relation);
    }
  } else {
    stages = Replay(generation, corpus, out, /*check_chain=*/trace,
                    &replay_entity, &replay_relation);
  }
  replay_mismatches += stages.mismatches;

  int64_t failed = 0;
  int64_t attempted = 0;
  const LoopStats* const loops[] = {&warmup, &untraced, &traced};
  for (const LoopStats* loop : loops) {
    failed += loop->failed + loop->shed + loop->update_failures;
    attempted += loop->attempted + loop->updates;
  }
  const int64_t served_mismatches =
      untraced_out.mismatches + (trace ? traced_out->mismatches : 0);
  const bool scores_match =
      SamePrf(replay_entity, entity) && SamePrf(replay_relation, relation);
  const bool correct = failed == 0 && served_mismatches == 0 &&
                       replay_mismatches == 0 && scores_match &&
                       traced_scores_match && untraced.completed > 0;
  if (!scores_match) {
    std::fprintf(stderr,
                 "replayed scores differ from served scores: entity tp/fp/fn "
                 "%d/%d/%d vs %d/%d/%d\n",
                 replay_entity.tp, replay_entity.fp, replay_entity.fn,
                 entity.tp, entity.fp, entity.fn);
  }

  std::printf("servebench %s: %d workers, window %d, %zu distinct inputs, "
              "%.1f s timed\n",
              w.name, kWorkers, kWindow, corpus.dataset.documents.size(),
              untraced.wall_s);
  std::printf("  requests %lld (latency samples %zu), failed %lld, shed "
              "%lld, kb updates %lld\n",
              (long long)untraced.attempted, untraced.latency_ms.size(),
              (long long)untraced.failed, (long long)untraced.shed,
              (long long)untraced.updates);

  // The bounded tail is p95: between runs of identical code on a shared
  // 4-core VM, sessions_live's p99 spread by up to 0.38 (interquartile
  // range over median), past any bound the benchmark may fix.  The traced
  // run reports p99.
  std::vector<Metric> metrics;
  if (!trace) {
    eval::PRF joint = entity;
    joint.Add(relation);
    metrics = {
        {"docs_per_s", double(untraced.completed) / untraced.wall_s, "1/s"},
        {"latency_p50_ms", Percentile(untraced.latency_ms, 0.50), "ms"},
        {"latency_p95_ms", Percentile(untraced.latency_ms, 0.95), "ms"},
        {"setup_s", Median(setup_s), "s"},
        {"peak_rss_mb", peak_rss_mb, "MB"},
        {"rss_after_setup_mb", rss_after_setup_mb, "MB"},
        {"entity_f1", entity.F1(), "ratio"},
        {"joint_f1", joint.F1(), "ratio"},
        {"ok_share", Share(untraced.ok, untraced.attempted), "ratio"},
        {"full_share", Share(untraced.full, untraced.attempted), "ratio"},
    };
  } else {
    const int docs = stages.docs;
    const double untraced_dps = double(untraced.completed) / untraced.wall_s;
    const double traced_dps = double(traced.completed) / traced.wall_s;
    std::vector<double> queue_wait_ms(traced.latency_ms.size());
    for (size_t i = 0; i < queue_wait_ms.size(); ++i) {
      queue_wait_ms[i] = traced.latency_ms[i] - traced.worker_ms[i];
    }
    // Growth over the first swaps of the process, while the RCU ring
    // fills with the retired generations it keeps (up to 7).
    const size_t ring_swaps =
        rss_by_swap.empty() ? 0 : std::min<size_t>(7, rss_by_swap.size() - 1);
    const double rss_growth_per_swap_mb =
        ring_swaps > 0
            ? (rss_by_swap[ring_swaps] - rss_by_swap[0]) / double(ring_swaps)
            : 0.0;
    metrics = {
        {"text.extract_ms", PerDoc(stages.extract_ms, docs), "ms"},
        {"text.mentions_per_doc", PerDoc(double(stages.mentions), docs),
         "count"},
        {"core.canopy_ms", PerDoc(stages.canopy_ms, docs), "ms"},
        {"kb.lookup_ns",
         stages.lookups > 0 ? stages.lookup_ns / double(stages.lookups) : 0.0,
         "ns"},
        {"kb.lookups_per_doc", PerDoc(double(stages.lookups), docs), "count"},
        {"kb.postings_per_lookup",
         stages.lookups > 0 ? double(stages.postings) / double(stages.lookups)
                            : 0.0,
         "count"},
        {"core.graph_ms", PerDoc(stages.graph_ms, docs), "ms"},
        {"core.concepts_per_doc", PerDoc(double(stages.concepts), docs),
         "count"},
        {"core.edges_per_doc", PerDoc(double(stages.edges), docs), "count"},
        {"core.cover_ms", PerDoc(stages.cover_ms, docs), "ms"},
        {"core.cover_attempts_per_doc",
         PerDoc(double(stages.cover_attempts), docs), "count"},
        {"core.pruned_edges", PerDoc(double(stages.pruned_edges), docs),
         "count"},
        {"core.mst_edges", PerDoc(double(stages.mst_edges), docs), "count"},
        {"core.subtrees", PerDoc(double(stages.subtrees), docs), "count"},
        {"core.matched_subtrees",
         PerDoc(double(stages.matched_subtrees), docs), "count"},
        {"core.disambiguate_ms", PerDoc(stages.disambiguate_ms, docs), "ms"},
        {"core.link_ms", PerDoc(stages.link_ms, docs), "ms"},
        {"core.unattributed_ms", PerDoc(stages.unattributed_ms, docs), "ms"},
        {"serving.worker_ms", Mean(traced.worker_ms), "ms"},
        {"serving.queue_wait_ms", Mean(queue_wait_ms), "ms"},
        {"serving.latency_ms", Mean(traced.latency_ms), "ms"},
        {"serving.latency_p99_ms", Percentile(traced.latency_ms, 0.99), "ms"},
        {"serving.requests", double(traced.attempted), "count"},
        {"serving.shed",
         double(traced.stats_after.shed - traced.stats_before.shed), "count"},
        {"serving.retries",
         double(traced.stats_after.retries - traced.stats_before.retries),
         "count"},
        {"serving.degraded",
         double(traced.stats_after.degraded - traced.stats_before.degraded),
         "count"},
        {"serving.session_ms", Mean(traced.session_ms), "ms"},
        {"serving.session_relinked", double(traced.session_relinked),
         "count"},
        {"embedding.cache_hit_ratio",
         Share(traced.cache_hits, traced.cache_hits + traced.cache_misses),
         "ratio"},
        {"kb.delta_build_ms", Median(traced.delta_build_ms), "ms"},
        {"serving.with_deltas_ms", Median(traced.with_deltas_ms), "ms"},
        {"serving.swap_ms", Median(traced.swap_ms), "ms"},
        {"serving.kb_update_ms", Median(traced.update_ms), "ms"},
        {"serving.kb_update_share",
         Mean(traced.update_ms) * double(traced.update_ms.size()) /
             (1000.0 * traced.wall_s),
         "ratio"},
        {"kb.load_ms", Median(load_ms), "ms"},
        {"serving.start_ms", Median(start_ms), "ms"},
        {"mem.rss_growth_per_swap_mb", rss_growth_per_swap_mb, "MB"},
        {"eval.entity_f1", entity.F1(), "ratio"},
        {"eval.relation_f1", relation.F1(), "ratio"},
        {"trace.untraced_docs_per_s", untraced_dps, "1/s"},
        {"trace.traced_docs_per_s", traced_dps, "1/s"},
        {"trace.overhead_share",
         untraced_dps > 0.0 ? 1.0 - traced_dps / untraced_dps : 0.0,
         "ratio"},
    };
  }
  PrintResult(correct, attempted, failed, metrics);
  return correct ? 0 : 1;
}

// ---------------------------------------------------------------------------
// Command line
// ---------------------------------------------------------------------------

int Usage() {
  std::fprintf(stderr,
               "usage: servebench prepare --workload W --seed N --dir DIR\n"
               "       servebench serve --workload W --dir DIR --seconds S "
               "--trace 0|1\n");
  return 2;
}

int Main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  std::map<std::string, std::string> flags;
  for (int i = 2; i + 1 < argc; i += 2) {
    if (std::strncmp(argv[i], "--", 2) != 0) return Usage();
    flags[argv[i] + 2] = argv[i + 1];
  }
  if ((argc - 2) % 2 != 0) return Usage();
  const Workload* w = FindWorkload(flags["workload"]);
  if (w == nullptr || flags["dir"].empty()) return Usage();
  char* end = nullptr;
  if (command == "prepare") {
    const std::string& seed = flags["seed"];
    const unsigned long long value = std::strtoull(seed.c_str(), &end, 10);
    if (seed.empty() || *end != '\0') return Usage();
    return Prepare(*w, value, flags["dir"]);
  }
  if (command == "serve") {
    const std::string& s = flags["seconds"];
    const double seconds = std::strtod(s.c_str(), &end);
    if (s.empty() || *end != '\0' || !(seconds > 0.0)) return Usage();
    const std::string& trace = flags["trace"];
    if (trace != "0" && trace != "1") return Usage();
    return Serve(*w, flags["dir"], seconds, trace == "1");
  }
  return Usage();
}

}  // namespace
}  // namespace servebench
}  // namespace tenet

int main(int argc, char** argv) { return tenet::servebench::Main(argc, argv); }

#include "kb/sharded_kb.h"

#include <algorithm>
#include <cstring>
#include <span>
#include <unordered_set>

#include "common/dependency_health.h"
#include "common/fault_injection.h"
#include "common/logging.h"
#include "common/timer.h"
#include "embedding/dot_kernel.h"
#include "obs/metrics.h"

namespace tenet {
namespace kb {

namespace {

// Home shard / local index of the strided concept layout.
inline int HomeShard(int32_t id, int num_shards) {
  return static_cast<int>(id % num_shards);
}
inline int32_t LocalIndex(int32_t id, int num_shards) {
  return id / num_shards;
}

}  // namespace

ShardedKb::ShardedKb(std::vector<Shard> shards, int32_t num_entities,
                     int32_t num_predicates, int64_t num_facts)
    : shards_(std::move(shards)),
      num_entities_(num_entities),
      num_predicates_(num_predicates),
      num_facts_(num_facts),
      shard_ops_("kb/shard"),
      embedding_ops_("embedding/fetch") {
  TENET_CHECK(!shards_.empty());
  for (const Shard& shard : shards_) {
    TENET_CHECK(shard.embeddings != nullptr && shard.embeddings->finalized());
    TENET_CHECK(shard.alias_index.finalized());
    TENET_CHECK_EQ(shard.facts.size(), shard.fact_ids.size());
  }
  dimension_ = shards_[0].embeddings->dimension();
  obs::MetricsRegistry* registry = obs::MetricsRegistry::Default();
  shard_lookup_ms_.reserve(shards_.size());
  for (size_t i = 0; i < shards_.size(); ++i) {
    std::string label = obs::LabelPair("shard", std::to_string(i));
    shard_lookup_ms_.push_back(registry->GetHistogram(
        "tenet_kb_shard_lookup_ms",
        "Per-shard alias lookup latency of the sharded KB", label));
    registry
        ->GetGauge("tenet_kb_shard_bytes_mapped",
                   "Bytes served zero-copy from this shard's mapped snapshot",
                   label)
        ->Set(static_cast<double>(shards_[i].mapped_bytes));
  }
  degraded_lookups_ = registry->GetCounter(
      "tenet_kb_shard_degraded_lookups_total",
      "Per-shard lookups dropped by a fired kb/shard fault (the request "
      "degrades; it does not fail)");
}

void ShardedKb::BuildShardIndexes(Shard& shard, int num_shards,
                                  int shard_index) {
  // The per-shard analogue of KnowledgeBase::Finalize's counted two-pass
  // CSR build: identical participation rules (subject always; entity
  // object when distinct from the subject; predicate always), restricted
  // to concepts homed on this shard.  shard.facts is in ascending global
  // fact id order, so every per-concept sequence comes out in exactly the
  // flat substrate's order.
  const size_t num_local_entities = shard.entities.size();
  const size_t num_local_predicates = shard.predicates.size();
  shard.entity_fact_offsets.assign(num_local_entities + 1, 0);
  shard.predicate_fact_offsets.assign(num_local_predicates + 1, 0);
  auto local_entity = [&](EntityId id) -> int32_t {
    return HomeShard(id, num_shards) == shard_index
               ? LocalIndex(id, num_shards)
               : -1;
  };
  for (const Triple& t : shard.facts) {
    int32_t subject = local_entity(t.subject);
    if (subject >= 0) ++shard.entity_fact_offsets[subject + 1];
    if (t.object_is_entity && t.object_entity != t.subject) {
      int32_t object = local_entity(t.object_entity);
      if (object >= 0) ++shard.entity_fact_offsets[object + 1];
    }
    if (HomeShard(t.predicate, num_shards) == shard_index) {
      ++shard.predicate_fact_offsets[LocalIndex(t.predicate, num_shards) + 1];
    }
  }
  for (size_t i = 1; i < shard.entity_fact_offsets.size(); ++i) {
    shard.entity_fact_offsets[i] += shard.entity_fact_offsets[i - 1];
  }
  for (size_t i = 1; i < shard.predicate_fact_offsets.size(); ++i) {
    shard.predicate_fact_offsets[i] += shard.predicate_fact_offsets[i - 1];
  }
  shard.entity_fact_pos.resize(shard.entity_fact_offsets.back());
  shard.predicate_fact_pos.resize(shard.predicate_fact_offsets.back());
  std::vector<uint32_t> entity_cursor(shard.entity_fact_offsets.begin(),
                                      shard.entity_fact_offsets.end() - 1);
  std::vector<uint32_t> predicate_cursor(
      shard.predicate_fact_offsets.begin(),
      shard.predicate_fact_offsets.end() - 1);
  for (size_t pos = 0; pos < shard.facts.size(); ++pos) {
    const Triple& t = shard.facts[pos];
    int32_t subject = local_entity(t.subject);
    if (subject >= 0) {
      shard.entity_fact_pos[entity_cursor[subject]++] =
          static_cast<int32_t>(pos);
    }
    if (t.object_is_entity && t.object_entity != t.subject) {
      int32_t object = local_entity(t.object_entity);
      if (object >= 0) {
        shard.entity_fact_pos[entity_cursor[object]++] =
            static_cast<int32_t>(pos);
      }
    }
    if (HomeShard(t.predicate, num_shards) == shard_index) {
      shard.predicate_fact_pos
          [predicate_cursor[LocalIndex(t.predicate, num_shards)]++] =
          static_cast<int32_t>(pos);
    }
  }
}

ShardedKb ShardedKb::Partition(const KnowledgeBase& kb,
                               const embedding::EmbeddingStore& embeddings,
                               int num_shards) {
  TENET_CHECK(kb.finalized());
  TENET_CHECK(embeddings.finalized());
  TENET_CHECK_GE(num_shards, 1);
  TENET_CHECK_EQ(kb.num_entities(), embeddings.num_entities());
  TENET_CHECK_EQ(kb.num_predicates(), embeddings.num_predicates());
  const int n = num_shards;
  std::vector<Shard> shards(n);

  // Records: ascending global id per shard, so local index == id / n.
  for (EntityId e = 0; e < kb.num_entities(); ++e) {
    shards[HomeShard(e, n)].entities.push_back(kb.entity(e));
  }
  for (PredicateId p = 0; p < kb.num_predicates(); ++p) {
    shards[HomeShard(p, n)].predicates.push_back(kb.predicate(p));
  }

  // Alias postings: routed to the *concept's* home shard (each posting
  // exactly once) with their finalized priors, in finalized order — so
  // per-shard sublists of each surface keep the canonical global order,
  // which is what lets ScatterLookup merge them back exactly.
  // VisitPostings yields surfaces in ascending folded order with each
  // surface's postings consecutive, so one pass feeds every shard's
  // dictionary builder its keys in the order it requires.
  std::vector<FrozenAliasDict::Builder> builders(n);
  std::vector<std::vector<AliasPosting>> lists(n);
  std::string surface;
  auto flush = [&] {
    for (int s = 0; s < n; ++s) {
      if (lists[s].empty()) continue;
      builders[s].Add(surface, lists[s]);
      lists[s].clear();
    }
  };
  kb.alias_index().VisitPostings(
      [&](std::string_view visited, const AliasPosting& posting) {
        if (visited != surface) {
          flush();
          surface.assign(visited);
        }
        lists[HomeShard(posting.concept_ref.id, n)].push_back(posting);
      });
  flush();
  for (int s = 0; s < n; ++s) {
    shards[s].alias_index.AdoptFrozen(std::move(builders[s]).Build(), {});
  }

  // Facts: replicated to the home shard of every participant, deduped
  // within a shard, ascending global id.
  const std::vector<Triple>& facts = kb.facts();
  for (size_t f = 0; f < facts.size(); ++f) {
    const Triple& t = facts[f];
    int targets[3];
    int num_targets = 0;
    auto add_target = [&](int s) {
      for (int i = 0; i < num_targets; ++i) {
        if (targets[i] == s) return;
      }
      targets[num_targets++] = s;
    };
    add_target(HomeShard(t.subject, n));
    if (t.object_is_entity) add_target(HomeShard(t.object_entity, n));
    add_target(HomeShard(t.predicate, n));
    for (int i = 0; i < num_targets; ++i) {
      shards[targets[i]].facts.push_back(t);
      shards[targets[i]].fact_ids.push_back(static_cast<int64_t>(f));
    }
  }
  for (int s = 0; s < n; ++s) BuildShardIndexes(shards[s], n, s);

  // Embeddings: copy each concept's float row into its home shard and
  // re-finalize — per-row normalization over identical floats is
  // bit-identical to the flat store's unit rows.
  for (int s = 0; s < n; ++s) {
    Shard& shard = shards[s];
    shard.embeddings = std::make_unique<embedding::EmbeddingStore>(
        embeddings.dimension(),
        static_cast<int32_t>(shard.entities.size()),
        static_cast<int32_t>(shard.predicates.size()));
  }
  auto copy_rows = [&](ConceptRef::Kind kind, int32_t count) {
    for (int32_t id = 0; id < count; ++id) {
      ConceptRef global{kind, id};
      ConceptRef local{kind, LocalIndex(id, n)};
      std::span<const float> src = embeddings.Vector(global);
      std::span<float> dst =
          shards[HomeShard(id, n)].embeddings->MutableVector(local);
      std::copy(src.begin(), src.end(), dst.begin());
    }
  };
  copy_rows(ConceptRef::Kind::kEntity, kb.num_entities());
  copy_rows(ConceptRef::Kind::kPredicate, kb.num_predicates());
  for (int s = 0; s < n; ++s) shards[s].embeddings->Finalize();

  return ShardedKb(std::move(shards), kb.num_entities(),
                   kb.num_predicates(), kb.num_facts());
}

const EntityRecord& ShardedKb::entity(EntityId id) const {
  TENET_CHECK(id >= 0 && id < num_entities_) << "bad entity id " << id;
  return shards_[HomeShard(id, num_shards())]
      .entities[LocalIndex(id, num_shards())];
}

const PredicateRecord& ShardedKb::predicate(PredicateId id) const {
  TENET_CHECK(id >= 0 && id < num_predicates_) << "bad predicate id " << id;
  return shards_[HomeShard(id, num_shards())]
      .predicates[LocalIndex(id, num_shards())];
}

std::vector<AliasPosting> ShardedKb::ScatterLookup(
    std::string_view surface, ConceptRef::Kind kind) const {
  const int n = num_shards();
  // Borrowed spans into each shard's frozen dictionary arena — immutable
  // during serving, so no copy is needed until the merge below.
  std::vector<std::span<const AliasPosting>> per_shard(n);
  for (int s = 0; s < n; ++s) {
    WallTimer timer;
    // A fired shard degrades the lookup instead of failing it: its
    // candidates are simply absent, the same shape as an alias-index miss,
    // which every downstream stage already tolerates.
    const bool faulted = TENET_FAULT_POINT("kb/shard");
    TENET_OBSERVE_DEPENDENCY("kb/shard", !faulted);
    shard_ops_.Record(!faulted);
    if (faulted) {
      degraded_lookups_->Increment();
    } else if (kind == ConceptRef::Kind::kEntity) {
      per_shard[s] = shards_[s].alias_index.LookupEntities(surface);
    } else {
      per_shard[s] = shards_[s].alias_index.LookupPredicates(surface);
    }
    shard_lookup_ms_[s]->Observe(timer.ElapsedMillis());
  }
  // Gather: concatenate and re-establish the canonical order.  The
  // comparator is a total order and each sublist already respects it, so
  // the sort is a deterministic k-way merge — byte-identical to the flat
  // substrate's posting list when no shard fired.
  size_t total = 0;
  for (const auto& list : per_shard) total += list.size();
  std::vector<AliasPosting> merged;
  merged.reserve(total);
  for (const auto& list : per_shard) {
    merged.insert(merged.end(), list.begin(), list.end());
  }
  std::sort(merged.begin(), merged.end(), CanonicalPostingOrder);
  return merged;
}

std::vector<EntityCandidate> ShardedKb::CandidateEntities(
    std::string_view surface, std::optional<EntityType> type,
    int max_candidates, int* overflow) const {
  return SelectCandidates<EntityCandidate>(
      ScatterLookup(surface, ConceptRef::Kind::kEntity), max_candidates,
      overflow,
      [&](const AliasPosting& posting) {
        return !type.has_value() ||
               entity(posting.concept_ref.id).type == *type;
      },
      [](const AliasPosting& posting) {
        return EntityCandidate{posting.concept_ref.id, posting.prior};
      });
}

std::vector<PredicateCandidate> ShardedKb::CandidatePredicates(
    std::string_view surface, int max_candidates, int* overflow) const {
  return SelectCandidates<PredicateCandidate>(
      ScatterLookup(surface, ConceptRef::Kind::kPredicate), max_candidates,
      overflow, [](const AliasPosting&) { return true; },
      [](const AliasPosting& posting) {
        return PredicateCandidate{posting.concept_ref.id, posting.prior};
      });
}

void ShardedKb::VisitFactsOfEntity(EntityId id,
                                   const FactVisitor& visitor) const {
  TENET_CHECK(id >= 0 && id < num_entities_);
  const Shard& shard = shards_[HomeShard(id, num_shards())];
  int32_t local = LocalIndex(id, num_shards());
  for (uint32_t i = shard.entity_fact_offsets[local];
       i < shard.entity_fact_offsets[local + 1]; ++i) {
    int32_t pos = shard.entity_fact_pos[i];
    if (!visitor(shard.fact_ids[pos], shard.facts[pos])) return;
  }
}

void ShardedKb::VisitFactsOfPredicate(PredicateId id,
                                      const FactVisitor& visitor) const {
  TENET_CHECK(id >= 0 && id < num_predicates_);
  const Shard& shard = shards_[HomeShard(id, num_shards())];
  int32_t local = LocalIndex(id, num_shards());
  for (uint32_t i = shard.predicate_fact_offsets[local];
       i < shard.predicate_fact_offsets[local + 1]; ++i) {
    int32_t pos = shard.predicate_fact_pos[i];
    if (!visitor(shard.fact_ids[pos], shard.facts[pos])) return;
  }
}

std::vector<EntityId> ShardedKb::NeighborEntities(EntityId id) const {
  // Identical logic and visitation order to KnowledgeBase::NeighborEntities
  // — fact replication guarantees the home shard sees every fact of `id`
  // in ascending global order.
  std::unordered_set<EntityId> seen;
  std::vector<EntityId> out;
  VisitFactsOfEntity(id, [&](int64_t, const Triple& t) {
    EntityId other = kInvalidEntity;
    if (t.subject == id && t.object_is_entity) {
      other = t.object_entity;
    } else if (t.object_is_entity && t.object_entity == id) {
      other = t.subject;
    }
    if (other != kInvalidEntity && other != id && seen.insert(other).second) {
      out.push_back(other);
    }
    return true;
  });
  return out;
}

double ShardedKb::Cosine(ConceptRef a, ConceptRef b) const {
  // One embedding/fetch probe per call, exactly like EmbeddingStore::Cosine
  // — the sharded store is one logical dependency, not N.
  const bool faulted = TENET_FAULT_POINT("embedding/fetch");
  TENET_OBSERVE_DEPENDENCY("embedding/fetch", !faulted);
  embedding_ops_.Record(!faulted);
  if (faulted) return 0.0;
  const int n = num_shards();
  std::span<const double> ua =
      shards_[HomeShard(a.id, n)].embeddings->UnitVector(
          ConceptRef{a.kind, LocalIndex(a.id, n)});
  std::span<const double> ub =
      shards_[HomeShard(b.id, n)].embeddings->UnitVector(
          ConceptRef{b.kind, LocalIndex(b.id, n)});
  return embedding::ClampCosine(
      embedding::DotUnit(ua.data(), ub.data(), dimension_));
}

void ShardedKb::GatherUnit(std::span<const ConceptRef> refs,
                           double* out) const {
  const bool faulted = TENET_FAULT_POINT("embedding/fetch");
  TENET_OBSERVE_DEPENDENCY("embedding/fetch", !faulted);
  embedding_ops_.Record(!faulted);
  const size_t row_bytes = static_cast<size_t>(dimension_) * sizeof(double);
  if (faulted) {
    std::memset(out, 0, refs.size() * row_bytes);
    return;
  }
  const int n = num_shards();
  for (size_t i = 0; i < refs.size(); ++i) {
    std::span<const double> row =
        shards_[HomeShard(refs[i].id, n)].embeddings->UnitVector(
            ConceptRef{refs[i].kind, LocalIndex(refs[i].id, n)});
    std::memcpy(out + i * static_cast<size_t>(dimension_), row.data(),
                row_bytes);
  }
}

void ShardedKb::VisitAliasPostings(const PostingVisitor& visitor) const {
  // Each posting lives on exactly one shard (its concept's home), so this
  // visits every posting exactly once.  Unlike the flat substrate, the
  // postings of one surface may arrive in several runs (one per shard) —
  // consumers must be order-independent (DeriveGazetteer's tie-break is).
  for (const Shard& shard : shards_) {
    shard.alias_index.VisitPostings(visitor);
  }
}

}  // namespace kb
}  // namespace tenet

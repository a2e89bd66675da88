#include "serving/kb_generation.h"

#include <utility>

#include "common/logging.h"
#include "kb/io.h"

namespace tenet {
namespace serving {
namespace {

kb::DeltaApplyStats Accumulate(kb::DeltaApplyStats base,
                               const kb::DeltaApplyStats& more) {
  base.added_entities += more.added_entities;
  base.added_predicates += more.added_predicates;
  base.added_aliases += more.added_aliases;
  base.adjusted_priors += more.adjusted_priors;
  base.tombstones += more.tombstones;
  base.added_facts += more.added_facts;
  base.dropped_facts += more.dropped_facts;
  base.set_embeddings += more.set_embeddings;
  base.touched_surfaces += more.touched_surfaces;
  return base;
}

}  // namespace

KbGeneration::KbGeneration(kb::KnowledgeBase kb,
                           embedding::EmbeddingStore embeddings, uint64_t id,
                           kb::DeltaApplyStats delta_stats,
                           const KbGenerationOptions& options)
    : id_(id),
      kb_(std::move(kb)),
      embeddings_(std::move(embeddings)),
      gazetteer_(kb::DeriveGazetteer(kb_)),
      delta_stats_(delta_stats) {
  TENET_CHECK(kb_.finalized());
  TENET_CHECK(embeddings_.finalized());
  // The members above sit at their final heap addresses (generations are
  // heap-only and never moved), so the view may capture pointers now.
  view_ = std::make_shared<kb::FlatKbView>(&kb_, &embeddings_);
  baselines::BaselineSubstrate substrate;
  substrate.view = view_;
  substrate.gazetteer = &gazetteer_;
  // TenetLinker takes its graph knobs from the substrate, so the ones the
  // caller put on linker_options must ride through it or they'd be
  // silently reset to defaults here.
  substrate.graph_options = options.linker_options.graph;
  linker_ = std::make_unique<baselines::TenetLinker>(substrate,
                                                     options.linker_options);
}

KbGeneration::KbGeneration(std::shared_ptr<const kb::ShardedKb> sharded,
                           uint64_t id, const KbGenerationOptions& options)
    : id_(id),
      embeddings_(/*dimension=*/1, /*num_entities=*/0, /*num_predicates=*/0),
      sharded_(std::move(sharded)),
      view_(sharded_),
      gazetteer_(kb::DeriveGazetteer(*view_)) {
  TENET_CHECK(sharded_ != nullptr);
  baselines::BaselineSubstrate substrate;
  substrate.view = view_;
  substrate.gazetteer = &gazetteer_;
  substrate.graph_options = options.linker_options.graph;
  linker_ = std::make_unique<baselines::TenetLinker>(substrate,
                                                     options.linker_options);
}

const kb::KnowledgeBase& KbGeneration::kb() const {
  TENET_CHECK(!sharded());
  return kb_;
}

const embedding::EmbeddingStore& KbGeneration::embeddings() const {
  TENET_CHECK(!sharded());
  return embeddings_;
}

std::shared_ptr<const KbGeneration> KbGeneration::FromSubstrate(
    kb::KnowledgeBase kb, embedding::EmbeddingStore embeddings, uint64_t id,
    const KbGenerationOptions& options) {
  // Not make_shared: the constructor is private, and the control block
  // sharing make_shared buys is noise next to the KB itself.
  return std::shared_ptr<const KbGeneration>(
      new KbGeneration(std::move(kb), std::move(embeddings), id,
                       kb::DeltaApplyStats{}, options));
}

std::shared_ptr<const KbGeneration> KbGeneration::FromShardedKb(
    std::shared_ptr<const kb::ShardedKb> sharded, uint64_t id,
    const KbGenerationOptions& options) {
  return std::shared_ptr<const KbGeneration>(
      new KbGeneration(std::move(sharded), id, options));
}

Result<std::shared_ptr<const KbGeneration>> KbGeneration::LoadSharded(
    const std::string& manifest_path, uint64_t id,
    const KbGenerationOptions& options) {
  kb::KbLoadOptions load;
  load.prefer_mmap = options.prefer_mmap;
  TENET_ASSIGN_OR_RETURN(kb::ShardedKb sharded,
                         kb::ShardedKb::Load(manifest_path, load));
  return FromShardedKb(
      std::make_shared<const kb::ShardedKb>(std::move(sharded)), id, options);
}

Result<std::shared_ptr<const KbGeneration>> KbGeneration::Load(
    const std::string& kb_path, const std::string& embeddings_path,
    std::span<const std::string> delta_paths, uint64_t id,
    const KbGenerationOptions& options) {
  kb::KbLoadOptions load;
  load.prefer_mmap = options.prefer_mmap;
  TENET_ASSIGN_OR_RETURN(kb::KnowledgeBase kb,
                         kb::LoadKnowledgeBase(kb_path, load));
  TENET_ASSIGN_OR_RETURN(embedding::EmbeddingStore embeddings,
                         kb::LoadEmbeddings(embeddings_path, load));
  if (delta_paths.empty()) {
    return FromSubstrate(std::move(kb), std::move(embeddings), id, options);
  }
  std::vector<kb::DeltaSegment> segments;
  segments.reserve(delta_paths.size());
  for (const std::string& path : delta_paths) {
    TENET_ASSIGN_OR_RETURN(kb::DeltaSegment segment,
                           kb::LoadDeltaSegment(path));
    segments.push_back(std::move(segment));
  }
  TENET_ASSIGN_OR_RETURN(
      kb::AppliedDelta applied,
      kb::ApplyDeltas(kb, embeddings, segments));
  return std::shared_ptr<const KbGeneration>(
      new KbGeneration(std::move(applied.kb), std::move(applied.embeddings),
                       id, applied.stats, options));
}

Result<std::shared_ptr<const KbGeneration>> KbGeneration::WithDeltas(
    std::span<const kb::DeltaSegment> segments, uint64_t id,
    const KbGenerationOptions& options) const {
  if (sharded()) {
    return Status::InvalidArgument(
        "sharded generations are read-only; build a new sharded layout "
        "offline instead of applying deltas");
  }
  TENET_ASSIGN_OR_RETURN(
      kb::AppliedDelta applied,
      kb::ApplyDeltas(kb_, embeddings_, segments));
  return std::shared_ptr<const KbGeneration>(new KbGeneration(
      std::move(applied.kb), std::move(applied.embeddings), id,
      Accumulate(delta_stats_, applied.stats), options));
}

Status KbGeneration::Compact(const std::string& kb_path,
                             const std::string& embeddings_path) const {
  if (sharded()) {
    return Status::InvalidArgument(
        "sharded generations cannot be compacted to a flat snapshot pair; "
        "their layout is already persisted shard by shard");
  }
  Status saved = kb::SaveKnowledgeBase(kb_, kb_path);
  if (!saved.ok()) return saved;
  return kb::SaveEmbeddings(embeddings_, embeddings_path);
}

}  // namespace serving
}  // namespace tenet

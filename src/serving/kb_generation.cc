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

// The generation's linker over `view`.  TenetLinker takes its graph knobs
// from the substrate, so the ones on `options` must ride through it or
// they would be silently reset to defaults.
std::unique_ptr<baselines::TenetLinker> MakeLinker(
    std::shared_ptr<const kb::KbView> view, const text::Gazetteer* gazetteer,
    const core::TenetOptions& options) {
  return std::make_unique<baselines::TenetLinker>(
      baselines::BaselineSubstrate{std::move(view), gazetteer, options.graph},
      options);
}

// The full derive, for a generation that has no parent to layer over.
std::shared_ptr<const text::Gazetteer> FullGazetteer(const kb::ShardedKb& kb) {
  return std::make_shared<const text::Gazetteer>(kb::DeriveGazetteer(kb));
}

}  // namespace

KbGeneration::KbGeneration(std::shared_ptr<const kb::ShardedKb> kb,
                           std::shared_ptr<const text::Gazetteer> gazetteer,
                           uint64_t id, kb::DeltaApplyStats delta_stats,
                           const core::TenetOptions& options)
    : id_(id),
      kb_(std::move(kb)),
      gazetteer_(std::move(gazetteer)),
      delta_stats_(delta_stats),
      linker_(MakeLinker(kb_, gazetteer_.get(), options)) {}

std::shared_ptr<const KbGeneration> KbGeneration::FromShardedKb(
    std::shared_ptr<const kb::ShardedKb> sharded, uint64_t id,
    const core::TenetOptions& options) {
  TENET_CHECK(sharded != nullptr);
  // Not make_shared: the constructor is private, and the control block
  // sharing make_shared buys is noise next to the KB itself.
  std::shared_ptr<const text::Gazetteer> gazetteer = FullGazetteer(*sharded);
  return std::shared_ptr<const KbGeneration>(
      new KbGeneration(std::move(sharded), std::move(gazetteer), id,
                       kb::DeltaApplyStats{}, options));
}

Result<std::shared_ptr<const KbGeneration>> KbGeneration::LoadSharded(
    const std::string& manifest_path, uint64_t id,
    const core::TenetOptions& options) {
  return Load(manifest_path, /*embeddings_path=*/{}, {}, id, options);
}

Result<std::shared_ptr<const KbGeneration>> KbGeneration::Load(
    const std::string& kb_path, const std::string& embeddings_path,
    std::span<const std::string> delta_paths, uint64_t id,
    const core::TenetOptions& options) {
  TENET_ASSIGN_OR_RETURN(kb::ShardedKb base,
                         kb::ShardedKb::Load(kb_path, embeddings_path));
  if (delta_paths.empty()) {
    return FromShardedKb(std::make_shared<const kb::ShardedKb>(std::move(base)),
                         id, options);
  }
  std::vector<kb::DeltaSegment> segments;
  segments.reserve(delta_paths.size());
  for (const std::string& path : delta_paths) {
    TENET_ASSIGN_OR_RETURN(kb::DeltaSegment segment,
                           kb::LoadDeltaSegment(path));
    segments.push_back(std::move(segment));
  }
  TENET_ASSIGN_OR_RETURN(kb::AppliedDelta applied,
                         kb::ApplyDeltas(base, segments));
  auto kb = std::make_shared<const kb::ShardedKb>(std::move(applied.kb));
  std::shared_ptr<const text::Gazetteer> gazetteer = FullGazetteer(*kb);
  return std::shared_ptr<const KbGeneration>(new KbGeneration(
      std::move(kb), std::move(gazetteer), id, applied.stats, options));
}

Result<std::shared_ptr<const KbGeneration>> KbGeneration::WithDeltas(
    std::span<const kb::DeltaSegment> segments, uint64_t id) const {
  TENET_ASSIGN_OR_RETURN(kb::AppliedDelta applied,
                         kb::ApplyDeltas(*kb_, segments));
  auto kb = std::make_shared<const kb::ShardedKb>(std::move(applied.kb));
  auto gazetteer = std::make_shared<const text::Gazetteer>(
      kb::DeriveGazetteer(gazetteer_, *kb, applied.touched_surfaces));
  return std::shared_ptr<const KbGeneration>(new KbGeneration(
      std::move(kb), std::move(gazetteer), id,
      Accumulate(delta_stats_, applied.stats),
      linker_->pipeline().options()));
}

Status KbGeneration::Compact(const std::string& kb_path,
                             const std::string& embeddings_path) const {
  return kb_->num_shards() == 1 ? kb_->SaveFlat(kb_path, embeddings_path)
                                : kb_->Save(kb_path);
}

}  // namespace serving
}  // namespace tenet

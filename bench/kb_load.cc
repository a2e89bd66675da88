// Snapshot-load benchmark: the flat TENETKB3 + TENETEMB1 pair loaded
// buffered and zero-copy (mmap) through the one loader (ShardedKb::Load,
// as its 1-shard layout), a delta replay on top of it, one live update of
// a loaded generation (KbGeneration::WithDeltas) fresh and 1000 updates
// deep, the TENETEMB1 embedding container alone streamed vs mapped, and
// sharded layouts.  This
// is the number behind the README loading-time table.
//
// `--json <path>` writes {bench, ns_per_op, pairs_per_sec, speedup} records
// (the BENCH_kb_load.json trajectory CI archives); `--smoke` shrinks the
// sizes and repetitions for the tier-1 CI job.  Timings are best-of-N to
// shed scheduler noise; the only speedup column is the sharded
// critical-path scaling against the 1-shard layout.
#include <cstdio>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <algorithm>

#include "common/rng.h"
#include "common/timer.h"
#include "embedding/trainer.h"
#include "json_out.h"
#include "kb/delta.h"
#include "kb/io.h"
#include "kb/sharded_kb.h"
#include "kb/synthetic_kb.h"
#include "serving/kb_generation.h"

namespace {

using namespace tenet;

struct SizeSpec {
  const char* name;
  int num_domains;
  int entities_per_domain;
};

double ItemCount(const kb::KnowledgeBase& kb) {
  return static_cast<double>(kb.num_entities()) + kb.num_predicates() +
         kb.alias_index().num_surfaces() + kb.num_facts();
}

// Best-of-`reps` wall time of one load variant, in milliseconds.  `load`
// returns the Result so the store is fully materialized and finalized
// inside the timed window, while its destruction happens outside it —
// tearing a KB down is not part of loading one.
template <typename LoadFn>
double BestMillis(int reps, LoadFn&& load) {
  double best = 0.0;
  for (int r = 0; r < reps; ++r) {
    WallTimer timer;
    auto loaded = load();
    double ms = timer.ElapsedMillis();
    if (!loaded.ok()) {
      std::fprintf(stderr, "load failed: %s\n",
                   loaded.status().ToString().c_str());
      std::exit(1);
    }
    if (r == 0 || ms < best) best = ms;
  }
  return best;
}

// A one-entity live update on top of `kb`: a new entity named `label`,
// one extra alias and an embedding row drawn from `seed`.
std::vector<kb::DeltaSegment> OneEntityDelta(const kb::ShardedKb& kb,
                                             const std::string& label,
                                             uint64_t seed) {
  kb::DeltaBuilder builder(kb);
  const kb::EntityId id = builder.AddEntity(label, kb::EntityType::kPerson);
  builder.AddEntityAlias(id, label + " alias", 1.0);
  Rng row_rng(seed);
  std::vector<float> row(static_cast<size_t>(kb.dimension()));
  for (float& v : row) v = static_cast<float>(row_rng.NextGaussian());
  builder.SetEmbedding(kb::ConceptRef::Entity(id), row);
  return {builder.Build()};
}

}  // namespace

int main(int argc, char** argv) {
  bench::JsonArgs json_args = bench::StripJsonArgs(&argc, argv);

  std::vector<SizeSpec> sizes = {
      {"small", 4, 50}, {"medium", 12, 200}, {"large", 30, 400}};
  int reps = 5;
  if (json_args.smoke) {
    sizes = {{"small", 4, 50}};
    reps = 2;
  }

  std::vector<bench::JsonRecord> records;
  std::printf("%-8s %-16s %12s %12s %10s\n", "size", "variant", "ms",
              "items/s", "scaling");
  for (const SizeSpec& size : sizes) {
    kb::SyntheticKbOptions kb_options;
    kb_options.num_domains = size.num_domains;
    kb_options.entities_per_domain = size.entities_per_domain;
    Rng rng(2021);
    kb::SyntheticKb world = kb::SyntheticKbGenerator(kb_options).Generate(rng);

    const std::string bin_path =
        std::string("bench_kb_load_") + size.name + ".tenetkb";
    const std::string emb_path =
        std::string("bench_kb_load_") + size.name + ".tenetemb";
    if (!kb::SaveKnowledgeBase(world.kb, bin_path).ok()) {
      std::fprintf(stderr, "saving %s KB failed\n", size.name);
      return 1;
    }
    embedding::TrainerOptions trainer_options;
    Rng emb_rng(7);
    embedding::EmbeddingStore embeddings =
        embedding::StructuralEmbeddingTrainer(trainer_options)
            .Train(world.kb, emb_rng);
    if (!kb::SaveEmbeddings(embeddings, emb_path).ok()) {
      std::fprintf(stderr, "saving %s embeddings failed\n", size.name);
      return 1;
    }

    const double items = ItemCount(world.kb);
    for (bool prefer_mmap : {false, true}) {
      kb::KbLoadOptions options;
      options.prefer_mmap = prefer_mmap;
      double ms = BestMillis(reps, [&bin_path, &emb_path, &options] {
        return kb::ShardedKb::Load(bin_path, emb_path, options);
      });
      const char* name = prefer_mmap ? "binary_mmap" : "binary";
      std::printf("%-8s %-16s %12.3f %12.0f %10s\n", size.name, name, ms,
                  items / (ms / 1e3), "-");
      records.push_back(bench::JsonRecord{
          std::string("kb_load/") + name + "/" + size.name, ms * 1e6,
          items / (ms / 1e3), 0.0});
    }

    // Delta replay (DESIGN.md §12): the live-update cold-start path — the
    // snapshot pair + a stack of TENETDELTA1 segments loaded, validated
    // and folded in.  The column quantifies the replay tax an updater pays
    // before compaction catches up.
    constexpr int kDeltaSegments = 8;
    constexpr int kEntitiesPerSegment = 16;
    std::vector<std::string> delta_paths;
    {
      Rng delta_rng(1789);
      const int dim = embeddings.dimension();
      int32_t entities = world.kb.num_entities();
      const int32_t predicates = world.kb.num_predicates();
      for (int s = 0; s < kDeltaSegments; ++s) {
        kb::DeltaBuilder builder(entities, predicates);
        for (int e = 0; e < kEntitiesPerSegment; ++e) {
          std::string label = std::string("delta entity ") + size.name + " " +
                              std::to_string(s) + "-" + std::to_string(e);
          kb::EntityId id = builder.AddEntity(
              label, static_cast<kb::EntityType>(e % kb::kNumEntityTypes));
          builder.AddEntityAlias(id, label + " alias", 1.0);
          std::vector<float> row(static_cast<size_t>(dim));
          for (float& v : row) {
            v = static_cast<float>(delta_rng.NextGaussian());
          }
          builder.SetEmbedding(kb::ConceptRef::Entity(id), row);
        }
        entities = builder.num_entities();
        std::string path = std::string("bench_kb_load_") + size.name +
                           ".delta" + std::to_string(s) + ".tenetdelta";
        if (!builder.Write(path).ok()) {
          std::fprintf(stderr, "writing %s failed\n", path.c_str());
          return 1;
        }
        delta_paths.push_back(std::move(path));
      }
    }
    {
      double ms = BestMillis(reps, [&]() -> Result<kb::AppliedDelta> {
        kb::KbLoadOptions options;
        options.prefer_mmap = true;
        TENET_ASSIGN_OR_RETURN(kb::ShardedKb base,
                               kb::ShardedKb::Load(bin_path, emb_path,
                                                   options));
        std::vector<kb::DeltaSegment> segments;
        segments.reserve(delta_paths.size());
        for (const std::string& path : delta_paths) {
          TENET_ASSIGN_OR_RETURN(kb::DeltaSegment segment,
                                 kb::LoadDeltaSegment(path));
          segments.push_back(std::move(segment));
        }
        return kb::ApplyDeltas(base, segments);
      });
      std::printf("%-8s %-16s %12.3f %12.0f %10s\n", size.name,
                  "delta_replay", ms, items / (ms / 1e3), "-");
      records.push_back(bench::JsonRecord{
          std::string("kb_load/delta_replay/") + size.name, ms * 1e6,
          items / (ms / 1e3), 0.0});
    }

    // Live update (DESIGN.md §12): one KbGeneration::WithDeltas of a
    // one-entity delta (label, alias, embedding row), gazetteer derive
    // included — what a serving process pays to build the next generation
    // before it swaps it in.  Two rows:
    //
    //   with_deltas       on the loaded pair.  The new generation shares
    //                     the base's parts, so this stays flat as the KB
    //                     grows.
    //   with_deltas_deep  on a generation already kDeepChain one-entity
    //                     updates past the loaded pair.  Each generation
    //                     copies its chain's cumulative overlay, so this
    //                     grows with the updates applied since the last
    //                     Compact or ScheduleMerge.
    //
    // The rate column is updates per second; freeing the generation and
    // building the chain are untimed.
    {
      constexpr int kDeepChain = 1000;
      Result<std::shared_ptr<const serving::KbGeneration>> base =
          serving::KbGeneration::Load(bin_path, emb_path, {}, /*id=*/1);
      if (!base.ok()) {
        std::fprintf(stderr, "load failed: %s\n",
                     base.status().ToString().c_str());
        return 1;
      }
      std::shared_ptr<const serving::KbGeneration> deep = *base;
      for (int i = 0; i < kDeepChain; ++i) {
        Result<std::shared_ptr<const serving::KbGeneration>> next =
            deep->WithDeltas(
                OneEntityDelta(deep->kb(),
                               "chain update " + std::to_string(i), i),
                deep->id() + 1);
        if (!next.ok()) {
          std::fprintf(stderr, "chain update failed: %s\n",
                       next.status().ToString().c_str());
          return 1;
        }
        deep = std::move(*next);
      }
      const std::string label = std::string("live update ") + size.name;
      const std::pair<const char*,
                      std::shared_ptr<const serving::KbGeneration>>
          rows[] = {{"with_deltas", *base}, {"with_deltas_deep", deep}};
      for (const auto& [name, generation] : rows) {
        const std::vector<kb::DeltaSegment> segments =
            OneEntityDelta(generation->kb(), label, 4242);
        const double ms = BestMillis(std::max(reps, 20), [&] {
          return generation->WithDeltas(segments, generation->id() + 1);
        });
        std::printf("%-8s %-16s %12.3f %12.0f %10s\n", size.name, name, ms,
                    1e3 / ms, "-");
        records.push_back(bench::JsonRecord{
            std::string("kb_load/") + name + "/" + size.name, ms * 1e6,
            1e3 / ms, 0.0});
      }
    }

    const double emb_items = static_cast<double>(world.kb.num_entities()) +
                             world.kb.num_predicates();
    for (bool prefer_mmap : {false, true}) {
      kb::KbLoadOptions options;
      options.prefer_mmap = prefer_mmap;
      double ms = BestMillis(reps, [&emb_path, &options] {
        return kb::LoadEmbeddings(emb_path, options);
      });
      const char* name = prefer_mmap ? "emb_mmap" : "emb_stream";
      std::printf("%-8s %-16s %12.3f %12.0f %10s\n", size.name, name, ms,
                  emb_items / (ms / 1e3), "-");
      records.push_back(bench::JsonRecord{
          std::string("emb_load/") + (prefer_mmap ? "mmap" : "stream") + "/" +
              size.name,
          ms * 1e6, emb_items / (ms / 1e3), 0.0});
    }

    std::remove(bin_path.c_str());
    std::remove(emb_path.c_str());
    for (const std::string& path : delta_paths) std::remove(path.c_str());
  }

  // ---- Sharded layouts (DESIGN.md §14) ----------------------------------
  // The same KB partitioned into 1/4/16 hash shards, saved as a
  // TENETKBSHARDS1 layout and loaded back through ShardedKb::Load.  Two
  // rows per shard count:
  //
  //   sharded_wall     best-of-N wall time of the (serial) loader.
  //   sharded_critical best-of-N critical path: the loader's serial
  //                    prologue (manifest parse, assembly) plus the
  //                    *slowest single shard's* load time.  Shard loads
  //                    are independent, so this is the wall time a loader
  //                    with >= N-way I/O parallelism would pay — reported
  //                    separately because this bench host may be serial
  //                    (a 1-core box loads shards back to back, and its
  //                    wall clock cannot show the scaling).
  //
  // The critical-path speedup column is relative to the 1-shard layout;
  // >= 2x at 4 shards is the acceptance bar of the sharded substrate.
  // Runs at the "huge" synthetic tier (~58k entities), where shard
  // payloads dwarf the fixed per-shard overheads; --smoke shrinks it to
  // the small tier and 1/4 shards.
  {
    kb::SyntheticKbOptions kb_options = kb::SyntheticKbOptions::Huge();
    const char* tier = "huge";
    std::vector<int> shard_counts = {1, 4, 16};
    if (json_args.smoke) {
      kb_options = kb::SyntheticKbOptions{};
      kb_options.num_domains = 4;
      kb_options.entities_per_domain = 50;
      tier = "small";
      shard_counts = {1, 4};
    }
    Rng rng(2021);
    kb::SyntheticKb world = kb::SyntheticKbGenerator(kb_options).Generate(rng);
    embedding::TrainerOptions trainer_options;
    Rng emb_rng(7);
    embedding::EmbeddingStore embeddings =
        embedding::StructuralEmbeddingTrainer(trainer_options)
            .Train(world.kb, emb_rng);
    const double items = ItemCount(world.kb);

    double critical_1shard_ms = 0.0;
    for (int num_shards : shard_counts) {
      kb::ShardedKb sharded =
          kb::ShardedKb::Partition(world.kb, embeddings, num_shards);
      const std::string manifest = std::string("bench_kb_load_") + tier +
                                   ".s" + std::to_string(num_shards) +
                                   ".tenetshards";
      if (!sharded.Save(manifest).ok()) {
        std::fprintf(stderr, "saving %d-shard layout failed\n", num_shards);
        return 1;
      }

      double wall_ms = 0.0;
      double critical_ms = 0.0;
      for (int r = 0; r < reps; ++r) {
        WallTimer timer;
        Result<kb::ShardedKb> loaded = kb::ShardedKb::Load(manifest);
        double ms = timer.ElapsedMillis();
        if (!loaded.ok()) {
          std::fprintf(stderr, "loading %s failed: %s\n", manifest.c_str(),
                       loaded.status().ToString().c_str());
          return 1;
        }
        double max_shard_ms = 0.0;
        double sum_shard_ms = 0.0;
        for (int s = 0; s < loaded->num_shards(); ++s) {
          max_shard_ms = std::max(max_shard_ms, loaded->shard(s).load_ms);
          sum_shard_ms += loaded->shard(s).load_ms;
        }
        const double crit = ms - sum_shard_ms + max_shard_ms;
        if (r == 0 || ms < wall_ms) wall_ms = ms;
        if (r == 0 || crit < critical_ms) critical_ms = crit;
      }
      if (num_shards == shard_counts.front()) {
        critical_1shard_ms = critical_ms;
      }
      const double scaling =
          critical_ms > 0.0 ? critical_1shard_ms / critical_ms : 0.0;

      std::string wall_name = std::string("sharded_wall/s") +
                              std::to_string(num_shards);
      std::printf("%-8s %-16s %12.3f %12.0f %10s\n", tier, wall_name.c_str(),
                  wall_ms, items / (wall_ms / 1e3), "-");
      bench::JsonRecord wall_record{
          std::string("kb_load/sharded_wall/") + tier + "/s" +
              std::to_string(num_shards),
          wall_ms * 1e6, items / (wall_ms / 1e3), 0.0};
      wall_record.shards = num_shards;
      records.push_back(wall_record);

      std::string crit_name = std::string("sharded_critical/s") +
                              std::to_string(num_shards);
      std::printf("%-8s %-16s %12.3f %12.0f %9.2fx\n", tier,
                  crit_name.c_str(), critical_ms,
                  items / (critical_ms / 1e3), scaling);
      bench::JsonRecord crit_record{
          std::string("kb_load/sharded_critical/") + tier + "/s" +
              std::to_string(num_shards),
          critical_ms * 1e6, items / (critical_ms / 1e3),
          num_shards == shard_counts.front() ? 0.0 : scaling};
      crit_record.shards = num_shards;
      records.push_back(crit_record);

      std::remove(manifest.c_str());
      for (int s = 0; s < num_shards; ++s) {
        std::remove(
            (manifest + ".s" + std::to_string(s) + ".tenetkb").c_str());
        std::remove((manifest + ".s" + std::to_string(s) + ".emb").c_str());
      }
    }
  }

  if (!json_args.json_path.empty() &&
      !bench::WriteJsonRecords(json_args.json_path, records)) {
    return 1;
  }
  return 0;
}

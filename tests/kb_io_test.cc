#include "kb/io.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <memory>
#include <tuple>

#include <gtest/gtest.h>

#include "common/checksum.h"
#include "common/fault_injection.h"
#include "common/rng.h"
#include "core/pipeline.h"
#include "datasets/corpus_generator.h"
#include "datasets/world.h"
#include "kb/sharded_kb.h"
#include "kb/synthetic_kb.h"

namespace tenet {
namespace kb {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

// A finalized zero embedding matrix (dimension 4) sized for `kb`.
embedding::EmbeddingStore ZeroEmbeddings(const KnowledgeBase& kb) {
  embedding::EmbeddingStore embeddings(4, kb.num_entities(),
                                       kb.num_predicates());
  embeddings.Finalize();
  return embeddings;
}

// Saves `kb` as a flat snapshot pair: the TENETKB3 snapshot at `path` and
// its ZeroEmbeddings at `path` + ".emb".
Status SaveFlatPair(const KnowledgeBase& kb, const std::string& path) {
  Status saved = SaveKnowledgeBase(kb, path);
  return saved.ok() ? SaveEmbeddings(ZeroEmbeddings(kb), path + ".emb")
                    : saved;
}

// The one loader over a pair written by SaveFlatPair: the 1-shard layout.
Result<ShardedKb> LoadFlatPair(const std::string& path) {
  return ShardedKb::Load(path, path + ".emb");
}

TEST(KbIoTest, KnowledgeBaseRoundTrip) {
  Rng rng(61);
  SyntheticKbOptions options;
  options.num_domains = 4;
  options.entities_per_domain = 20;
  options.num_predicates = 10;
  SyntheticKb world = SyntheticKbGenerator(options).Generate(rng);

  std::string path = TempPath("kb_roundtrip.tenetkb");
  ASSERT_TRUE(SaveFlatPair(world.kb, path).ok());
  Result<ShardedKb> loaded = LoadFlatPair(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();

  const KnowledgeBase& a = world.kb;
  const ShardedKb& b = loaded.value();
  ASSERT_EQ(b.num_shards(), 1);
  ASSERT_EQ(a.num_entities(), b.num_entities());
  ASSERT_EQ(a.num_predicates(), b.num_predicates());
  ASSERT_EQ(a.num_facts(), b.num_facts());
  for (EntityId id = 0; id < a.num_entities(); ++id) {
    EXPECT_EQ(a.entity(id).label, b.entity(id).label);
    EXPECT_EQ(a.entity(id).type, b.entity(id).type);
    EXPECT_EQ(a.entity(id).domain, b.entity(id).domain);
    EXPECT_DOUBLE_EQ(a.entity(id).popularity, b.entity(id).popularity);
  }
  const std::vector<Triple>& b_facts = b.shard(0).facts->facts;
  for (int32_t i = 0; i < a.num_facts(); ++i) {
    EXPECT_EQ(a.facts()[i].subject, b_facts[i].subject);
    EXPECT_EQ(a.facts()[i].predicate, b_facts[i].predicate);
    EXPECT_EQ(a.facts()[i].object_is_entity, b_facts[i].object_is_entity);
    EXPECT_EQ(b.shard(0).facts->fact_ids[i], i);
  }

  // Candidate distributions round-trip exactly (priors are re-normalized
  // idempotently): the in-memory partition against the loaded one.
  const ShardedKb in_memory = ShardedKb::Partition(a, ZeroEmbeddings(a), 1);
  for (EntityId id = 0; id < a.num_entities(); ++id) {
    const std::string& label = a.entity(id).label;
    std::vector<EntityCandidate> ca =
        in_memory.CandidateEntities(label, std::nullopt, 10);
    std::vector<EntityCandidate> cb =
        b.CandidateEntities(label, std::nullopt, 10);
    ASSERT_EQ(ca.size(), cb.size()) << label;
    for (size_t i = 0; i < ca.size(); ++i) {
      EXPECT_EQ(ca[i].entity, cb[i].entity) << label;
      EXPECT_NEAR(ca[i].prior, cb[i].prior, 1e-9) << label;
    }
  }
}

TEST(KbIoTest, LiteralFactsRoundTrip) {
  KnowledgeBase kb;
  EntityId e = kb.AddEntity("Brooklyn", EntityType::kLocation);
  PredicateId p = kb.AddPredicate("founded in");
  ASSERT_TRUE(kb.AddLiteralFact(e, p, "1898").ok());
  kb.Finalize();

  std::string path = TempPath("kb_literal.tenetkb");
  ASSERT_TRUE(SaveFlatPair(kb, path).ok());
  Result<ShardedKb> loaded = LoadFlatPair(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  ASSERT_EQ(loaded->num_facts(), 1);
  EXPECT_FALSE(loaded->shard(0).facts->facts[0].object_is_entity);
  EXPECT_EQ(loaded->shard(0).facts->facts[0].object_literal, "1898");
}

TEST(KbIoTest, LoadRejectsGarbage) {
  std::string path = TempPath("kb_garbage.tenetkb");
  {
    std::ofstream out(path);
    out << "definitely not a kb\n";
  }
  Result<ShardedKb> loaded = LoadFlatPair(path);
  EXPECT_FALSE(loaded.ok());
  EXPECT_TRUE(loaded.status().IsInvalidArgument());
}

TEST(KbIoTest, LoadRejectsTruncatedFile) {
  // Save a valid KB, then truncate it mid-section.
  KnowledgeBase kb;
  kb.AddEntity("A", EntityType::kOther);
  kb.AddEntity("B", EntityType::kOther);
  kb.Finalize();
  std::string path = TempPath("kb_truncated.tenetkb");
  ASSERT_TRUE(SaveKnowledgeBase(kb, path).ok());
  std::ifstream in(path);
  std::string head;
  std::string line;
  for (int i = 0; i < 3 && std::getline(in, line); ++i) head += line + "\n";
  in.close();
  {
    std::ofstream out(path, std::ios::trunc);
    out << head;
  }
  EXPECT_FALSE(LoadFlatPair(path).ok());
}

TEST(KbIoTest, LoadRejectsMissingFile) {
  Result<ShardedKb> loaded = LoadFlatPair(TempPath("does_not_exist.tenetkb"));
  EXPECT_FALSE(loaded.ok());
  EXPECT_TRUE(loaded.status().IsNotFound());
}

TEST(KbIoTest, SaveRejectsUnfinalizedKb) {
  KnowledgeBase kb;
  kb.AddEntity("A", EntityType::kOther);
  EXPECT_EQ(SaveKnowledgeBase(kb, TempPath("nope.tenetkb")).code(),
            StatusCode::kFailedPrecondition);
}

TEST(KbIoTest, EmbeddingsRoundTripBitExact) {
  datasets::SyntheticWorld world = datasets::BuildWorld({
      .kb = {.num_domains = 3, .entities_per_domain = 15,
             .num_predicates = 8},
      .embeddings = {},
      .seed = 99,
  });
  std::string path = TempPath("embeddings.tenetemb");
  ASSERT_TRUE(SaveEmbeddings(world.embeddings, path).ok());
  Result<embedding::EmbeddingStore> loaded = LoadEmbeddings(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  ASSERT_EQ(loaded->dimension(), world.embeddings.dimension());
  ASSERT_EQ(loaded->num_entities(), world.embeddings.num_entities());
  ASSERT_EQ(loaded->num_predicates(), world.embeddings.num_predicates());
  for (EntityId e = 0; e < loaded->num_entities(); ++e) {
    std::span<const float> va =
        world.embeddings.Vector(ConceptRef::Entity(e));
    std::span<const float> vb = loaded->Vector(ConceptRef::Entity(e));
    for (int d = 0; d < loaded->dimension(); ++d) {
      EXPECT_EQ(va[d], vb[d]);  // bit-exact
    }
  }
  // Cosines agree exactly as well.
  EXPECT_DOUBLE_EQ(
      world.embeddings.Cosine(ConceptRef::Entity(0), ConceptRef::Entity(1)),
      loaded->Cosine(ConceptRef::Entity(0), ConceptRef::Entity(1)));
}

TEST(KbIoTest, EmbeddingsLoadRejectsTruncation) {
  datasets::SyntheticWorld world = datasets::BuildWorld({
      .kb = {.num_domains = 2, .entities_per_domain = 5,
             .num_predicates = 3},
      .embeddings = {},
      .seed = 100,
  });
  std::string path = TempPath("embeddings_trunc.tenetemb");
  ASSERT_TRUE(SaveEmbeddings(world.embeddings, path).ok());
  // Truncate the file to half.
  std::ifstream in(path, std::ios::binary);
  std::string contents((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  in.close();
  {
    std::ofstream out(path, std::ios::trunc | std::ios::binary);
    out.write(contents.data(),
              static_cast<std::streamsize>(contents.size() / 2));
  }
  EXPECT_FALSE(LoadEmbeddings(path).ok());
}

TEST(KbIoTest, DeriveGazetteerCoversAliasSurfaces) {
  Rng rng(62);
  SyntheticKbOptions options;
  options.num_domains = 3;
  options.entities_per_domain = 15;
  options.num_predicates = 8;
  SyntheticKb world = SyntheticKbGenerator(options).Generate(rng);

  text::Gazetteer derived = DeriveGazetteer(
      ShardedKb::Partition(world.kb, ZeroEmbeddings(world.kb), 1));
  for (EntityId id = 0; id < world.kb.num_entities(); ++id) {
    for (const std::string& surface : world.entity_surfaces[id]) {
      EXPECT_TRUE(derived.Contains(surface)) << surface;
    }
    // Topic labels (lowercase) stay spottable in lowercase text.
    if (world.kb.entity(id).type == EntityType::kTopic) {
      EXPECT_TRUE(derived.IsLowercaseMention(world.kb.entity(id).label));
    }
  }
}

TEST(KbIoTest, ReloadedWorldLinksIdentically) {
  // Full persistence round trip through the pipeline: save + load the KB
  // and embeddings, derive the gazetteer, and verify identical linking.
  datasets::SyntheticWorld world = datasets::BuildWorld();
  std::string kb_path = TempPath("roundtrip_world.tenetkb");
  std::string emb_path = TempPath("roundtrip_world.tenetemb");
  ASSERT_TRUE(SaveKnowledgeBase(world.kb(), kb_path).ok());
  ASSERT_TRUE(SaveEmbeddings(world.embeddings, emb_path).ok());
  Result<ShardedKb> kb2 = ShardedKb::Load(kb_path, emb_path);
  ASSERT_TRUE(kb2.ok()) << kb2.status();
  auto view = std::make_shared<const ShardedKb>(std::move(*kb2));
  text::Gazetteer gazetteer2 = DeriveGazetteer(*view);

  core::TenetPipeline original(world.view, &world.gazetteer());
  core::TenetPipeline reloaded(view, &gazetteer2);

  datasets::CorpusGenerator gen(&world.kb_world);
  Rng rng(63);
  datasets::DatasetSpec spec = datasets::NewsSpec();
  spec.num_docs = 4;
  datasets::Dataset ds = gen.Generate(spec, rng);
  for (const datasets::Document& doc : ds.documents) {
    Result<core::LinkingResult> a = original.LinkDocument(doc.text);
    Result<core::LinkingResult> b = reloaded.LinkDocument(doc.text);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    ASSERT_EQ(a->links.size(), b->links.size());
    for (size_t i = 0; i < a->links.size(); ++i) {
      EXPECT_EQ(a->links[i].surface, b->links[i].surface);
      EXPECT_EQ(a->links[i].concept_ref, b->links[i].concept_ref);
    }
  }
}

// --- Corruption robustness -------------------------------------------------
// Every malformed input below must come back as a clean InvalidArgument or
// DataLoss — never a crash, never a partially-finalized substrate.

void WriteFile(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::trunc | std::ios::binary);
  ASSERT_TRUE(out.is_open());
  out << content;
}

KnowledgeBase TinyKb() {
  KnowledgeBase kb;
  kb.AddEntity("Brooklyn", EntityType::kLocation, /*domain=*/0,
               /*popularity=*/1.0);
  kb.AddPredicate("visited", /*domain=*/0, /*popularity=*/1.0);
  kb.Finalize();
  return kb;
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

// One (surface, kind, concept, prior) row per posting, in visit order.
using PostingRows =
    std::vector<std::tuple<std::string, ConceptRef::Kind, int32_t, double>>;

PostingRows AllPostings(const AliasIndex& index) {
  PostingRows rows;
  index.VisitPostings(
      [&rows](std::string_view surface, const AliasPosting& posting) {
        rows.emplace_back(std::string(surface), posting.concept_ref.kind,
                          posting.concept_ref.id, posting.prior);
      });
  std::sort(rows.begin(), rows.end());
  return rows;
}

TEST(KbIoTest, PriorsRoundTripBitExact) {
  // Alias priors are probabilities computed once at build time; each load
  // must restore them bit-exactly (raw doubles, adopted as stored).
  // Renormalizing on load would drift near-tie disambiguations by an ulp
  // per save/load generation.
  Rng rng(64);
  SyntheticKbOptions options;
  options.num_domains = 5;
  options.entities_per_domain = 30;
  SyntheticKb world = SyntheticKbGenerator(options).Generate(rng);
  PostingRows original = AllPostings(world.kb.alias_index());
  ASSERT_FALSE(original.empty());

  std::string path = TempPath("prior_exact.tenetkb");
  ASSERT_TRUE(SaveFlatPair(world.kb, path).ok());
  Result<ShardedKb> gen1 = LoadFlatPair(path);
  ASSERT_TRUE(gen1.ok()) << gen1.status();
  EXPECT_EQ(AllPostings(gen1->shard(0).alias_index), original);

  // Second generation: save the loaded layout and load again — still
  // exact.
  ASSERT_TRUE(gen1->SaveFlat(path, path + ".emb").ok());
  Result<ShardedKb> gen2 = LoadFlatPair(path);
  ASSERT_TRUE(gen2.ok()) << gen2.status();
  EXPECT_EQ(AllPostings(gen2->shard(0).alias_index), original);
}

// --- TENETKB3 corruption matrix --------------------------------------------
// Layout recap (mirrors io.cc): 32-byte header, then section_count 32-byte
// table entries {u32 id, u32 pad, u64 offset, u64 size, u64 count}, then
// the section payloads.  The header checksum covers the table.

struct BinarySection {
  uint32_t id;
  uint64_t offset;
  uint64_t size;
  uint64_t count;
};

std::vector<BinarySection> ReadSectionTable(const std::string& bytes) {
  uint32_t section_count = 0;
  std::memcpy(&section_count, bytes.data() + 12, sizeof(section_count));
  std::vector<BinarySection> sections;
  for (uint32_t i = 0; i < section_count; ++i) {
    const char* entry = bytes.data() + 32 + i * 32;
    BinarySection s;
    std::memcpy(&s.id, entry, sizeof(s.id));
    std::memcpy(&s.offset, entry + 8, sizeof(s.offset));
    std::memcpy(&s.size, entry + 16, sizeof(s.size));
    std::memcpy(&s.count, entry + 24, sizeof(s.count));
    sections.push_back(s);
  }
  return sections;
}

BinarySection SectionById(const std::vector<BinarySection>& sections,
                          uint32_t id) {
  for (const BinarySection& s : sections) {
    if (s.id == id) return s;
  }
  ADD_FAILURE() << "no section " << id;
  return {};
}

SyntheticKb MatrixWorld() {
  Rng rng(65);
  SyntheticKbOptions options;
  options.num_domains = 2;
  options.entities_per_domain = 8;
  return SyntheticKbGenerator(options).Generate(rng);
}

std::string SavedBinaryKb(const std::string& name) {
  std::string path = TempPath(name);
  EXPECT_TRUE(SaveFlatPair(MatrixWorld().kb, path).ok());
  return path;
}

// The matrix world saved as a 2-shard layout; returns the manifest path.
// Shard i's snapshot sits next to it at `<manifest>.s<i>.tenetkb`.
std::string SavedTwoShardLayout(const std::string& name) {
  SyntheticKb world = MatrixWorld();
  embedding::EmbeddingStore embeddings(4, world.kb.num_entities(),
                                       world.kb.num_predicates());
  embeddings.Finalize();
  std::string manifest = TempPath(name);
  EXPECT_TRUE(
      ShardedKb::Partition(world.kb, embeddings, 2).Save(manifest).ok());
  return manifest;
}

// Loads shard 0 of the layout at `manifest` with its snapshot replaced by
// `shard0` (the layout is left that way).
Status LoadWithShard0(const std::string& manifest, const std::string& shard0) {
  WriteFile(manifest + ".s0.tenetkb", shard0);
  return ShardedKb::Load(manifest).status();
}

// Cuts a snapshot exactly at each section's start, one byte into it, and
// one byte before its end — plus the header/table edges — and expects
// `load` to reject every prefix with kInvalidArgument.
template <typename LoadFn>
void ExpectEveryBoundaryCutRejected(const std::string& content,
                                    LoadFn&& load) {
  std::vector<BinarySection> sections = ReadSectionTable(content);
  const size_t table_end = 32 + sections.size() * 32;
  std::vector<size_t> cuts = {0, 1, 31, 32, 33, table_end - 1, table_end};
  for (const BinarySection& s : sections) {
    cuts.push_back(s.offset);
    cuts.push_back(s.offset + 1);
    if (s.size > 0) cuts.push_back(s.offset + s.size - 1);
  }
  for (size_t cut : cuts) {
    ASSERT_LT(cut, content.size());
    Status status = load(content.substr(0, cut));
    ASSERT_FALSE(status.ok()) << "prefix of " << cut << " bytes";
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument)
        << "prefix of " << cut << " bytes: " << status;
  }
}

TEST(KbIoCorruptionTest, BinaryTruncationAtEverySectionBoundaryIsRejected) {
  std::string content =
      ReadFileBytes(SavedBinaryKb("matrix_boundary.tenetkb"));
  // string_table, entities, predicates, facts, alias_dict.
  ASSERT_EQ(ReadSectionTable(content).size(), 5u);
  ExpectEveryBoundaryCutRejected(content, [](const std::string& prefix) {
    std::string truncated_path = TempPath("matrix_truncated.tenetkb");
    WriteFile(truncated_path, prefix);
    return ShardedKb::Load(truncated_path, truncated_path + ".unused")
        .status();
  });

  // Shard 0 of a 2-shard layout runs the same decoder, through the
  // manifest loader.
  std::string manifest = SavedTwoShardLayout("matrix_boundary.tenetshards");
  std::string shard0 = ReadFileBytes(manifest + ".s0.tenetkb");
  ASSERT_EQ(ReadSectionTable(shard0).size(), 6u);  // + shard_info
  ASSERT_TRUE(ShardedKb::Load(manifest).ok());
  ExpectEveryBoundaryCutRejected(shard0, [&](const std::string& prefix) {
    return LoadWithShard0(manifest, prefix);
  });
}

TEST(KbIoCorruptionTest, BytesAfterAValidSnapshotAreRejected) {
  std::string path = SavedBinaryKb("trailing.tenetkb");
  std::string content = ReadFileBytes(path);
  WriteFile(path, content + "one more line\n");
  Result<ShardedKb> loaded = LoadFlatPair(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
}

TEST(KbIoCorruptionTest, OldFormatVersionIsRejectedWithRebuildHint) {
  // A file of an older format version is not corrupt, just stale: both the
  // loader and `kb inspect` must say which version it is and how to
  // regenerate it, never parse it.
  std::string path = SavedBinaryKb("old_version.tenetkb");
  std::string content = ReadFileBytes(path);
  ASSERT_EQ(content.substr(0, 8), "TENETKB3");
  content[7] = '2';
  WriteFile(path, content);
  Result<ShardedKb> loaded = LoadFlatPair(path);
  Result<KbFileInfo> inspected = InspectKnowledgeBaseFile(path);
  for (const Status& status : {loaded.status(), inspected.status()}) {
    ASSERT_FALSE(status.ok());
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(status.message().find("TENETKB2"), std::string::npos)
        << status;
    EXPECT_NE(status.message().find("tenet_cli kb build"), std::string::npos)
        << status;
  }
}

TEST(KbIoCorruptionTest, FactWithOutOfRangeObjectEntityIsRejected) {
  std::string path = SavedBinaryKb("matrix_fact.tenetkb");
  std::string content = ReadFileBytes(path);
  std::vector<BinarySection> sections = ReadSectionTable(content);
  const BinarySection facts = SectionById(sections, 5);
  ASSERT_GE(facts.count, 1u);
  // Fact records are {i32 subject, i32 predicate, i32 object_kind,
  // i32 object_entity, u32 literal_ref, u32 pad}; point the first one at
  // the entity one past the end.
  const int32_t entity_object = 0;
  const int32_t bogus = static_cast<int32_t>(SectionById(sections, 2).count);
  std::memcpy(content.data() + facts.offset + 8, &entity_object,
              sizeof(entity_object));
  std::memcpy(content.data() + facts.offset + 12, &bogus, sizeof(bogus));
  WriteFile(path, content);
  Result<ShardedKb> loaded = LoadFlatPair(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
}

// --- flat pairs and shard snapshots: what the one loader checks ------------

TEST(KbIoCorruptionTest, ShardSnapshotLoadedAsAFlatPairIsRejected) {
  // One shard on its own is not a whole KB: loading it as a flat snapshot
  // must name the manifest route, never serve a fraction of the KB.
  std::string manifest = SavedTwoShardLayout("matrix_alone.tenetshards");
  Result<ShardedKb> loaded = ShardedKb::Load(manifest + ".s0.tenetkb",
                                             manifest + ".s0.emb");
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(loaded.status().message().find("manifest"), std::string::npos)
      << loaded.status();
}

TEST(KbIoCorruptionTest, FlatPairWithMismatchedEmbeddingsIsRejected) {
  std::string path = SavedBinaryKb("matrix_mismatch.tenetkb");
  ASSERT_TRUE(SaveFlatPair(TinyKb(), TempPath("tiny_pair.tenetkb")).ok());
  Result<ShardedKb> loaded =
      ShardedKb::Load(path, TempPath("tiny_pair.tenetkb.emb"));
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(loaded.status().message().find("disagree"), std::string::npos)
      << loaded.status();
}


TEST(KbIoCorruptionTest, ShardInfoDisagreeingWithTheManifestIsRejected) {
  std::string manifest = SavedTwoShardLayout("matrix_info.tenetshards");
  std::string shard0 = ReadFileBytes(manifest + ".s0.tenetkb");
  const BinarySection info = SectionById(ReadSectionTable(shard0), 6);
  // shard_info = {u32 num_shards, u32 shard_index, i64 entities,
  // i64 predicates, i64 facts}: claim to be shard 1 of the layout.
  const uint32_t index = 1;
  std::memcpy(shard0.data() + info.offset + 4, &index, sizeof(index));
  Status status = LoadWithShard0(manifest, shard0);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("manifest"), std::string::npos) << status;
}

TEST(KbIoCorruptionTest, NonAscendingShardFactIdsAreRejected) {
  std::string manifest = SavedTwoShardLayout("matrix_fact_ids.tenetshards");
  std::string shard0 = ReadFileBytes(manifest + ".s0.tenetkb");
  const BinarySection facts = SectionById(ReadSectionTable(shard0), 5);
  ASSERT_GE(facts.count, 2u);
  // A shard fact record's trailing word is its global fact id: repeat the
  // first record's id in the second.
  std::memcpy(shard0.data() + facts.offset + 24 + 20,
              shard0.data() + facts.offset + 20, sizeof(uint32_t));
  Status status = LoadWithShard0(manifest, shard0);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("ascending"), std::string::npos) << status;
}

TEST(KbIoCorruptionTest, ShardEntityCountOffTheStrideIsRejected) {
  std::string manifest = SavedTwoShardLayout("matrix_stride.tenetshards");
  std::string shard0 = ReadFileBytes(manifest + ".s0.tenetkb");
  std::vector<BinarySection> sections = ReadSectionTable(shard0);
  // Drop the last entity record from the section table (count and length
  // stay consistent with each other) and re-seal the header checksum, so
  // only the strided-layout check can catch it.
  for (size_t i = 0; i < sections.size(); ++i) {
    if (sections[i].id != 2) continue;
    ASSERT_GE(sections[i].count, 1u);
    const uint64_t count = sections[i].count - 1;
    const uint64_t size = count * 24;
    std::memcpy(shard0.data() + 32 + i * 32 + 16, &size, sizeof(size));
    std::memcpy(shard0.data() + 32 + i * 32 + 24, &count, sizeof(count));
  }
  const uint64_t checksum = Fnv1a64(shard0.data() + 32, sections.size() * 32);
  std::memcpy(shard0.data() + 24, &checksum, sizeof(checksum));
  Status status = LoadWithShard0(manifest, shard0);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("strided"), std::string::npos) << status;
}

TEST(KbIoCorruptionTest, BinaryChecksumMismatchIsRejected) {
  std::string path = SavedBinaryKb("matrix_checksum.tenetkb");
  std::string content = ReadFileBytes(path);
  // Flip one byte inside the section table; the header checksum covers
  // exactly these bytes, so the load must fail before touching payloads.
  content[40] = static_cast<char>(content[40] ^ 0x01);
  WriteFile(path, content);
  Result<ShardedKb> loaded = LoadFlatPair(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(loaded.status().message().find("checksum"), std::string::npos);
}

TEST(KbIoCorruptionTest, BinaryNonMonotonicStringTableIsRejected) {
  std::string path = SavedBinaryKb("matrix_strings.tenetkb");
  std::string content = ReadFileBytes(path);
  std::vector<BinarySection> sections = ReadSectionTable(content);
  ASSERT_GE(sections[0].count, 2u);  // string table is section id 1, first
  ASSERT_EQ(sections[0].id, 1u);
  // The section begins with count uint64 end-offsets; make them decrease.
  uint64_t huge = ~uint64_t{0};
  std::memcpy(content.data() + sections[0].offset, &huge, sizeof(huge));
  WriteFile(path, content);
  Result<ShardedKb> loaded = LoadFlatPair(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
}

TEST(KbIoCorruptionTest, BinaryAliasWithOutOfRangeEntityIdIsRejected) {
  std::string path = SavedBinaryKb("matrix_alias.tenetkb");
  std::string content = ReadFileBytes(path);
  std::vector<BinarySection> sections = ReadSectionTable(content);
  // Postings live in the frozen alias dictionary (section id 7, last).
  ASSERT_EQ(sections.back().id, 7u);
  const BinarySection& dict = sections.back();
  ASSERT_GE(dict.count, 1u);
  // Posting records {i32 concept_id, i32 pad, f64 prior} are the tail of
  // the dictionary payload; point the first concept id far out of range,
  // then re-seal the dictionary's own payload checksum so the id check —
  // not the checksum — must catch it.
  int32_t bogus = INT32_MAX;
  std::memcpy(content.data() + dict.offset + dict.size - dict.count * 16,
              &bogus, sizeof(bogus));
  uint64_t reseal =
      Fnv1a64(content.data() + dict.offset + 8, dict.size - 8);
  std::memcpy(content.data() + dict.offset, &reseal, sizeof(reseal));
  WriteFile(path, content);
  Result<ShardedKb> loaded = LoadFlatPair(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
}

TEST(KbIoCorruptionTest, WrongMagicIsRejected) {
  std::string path = TempPath("wrong_magic.tenetkb");
  WriteFile(path, "NOTAKB v1\nE\t0\nP\t0\nA\t0\nF\t0\n");
  Result<ShardedKb> loaded = LoadFlatPair(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
}

TEST(KbIoCorruptionTest, TruncatedKbFileIsRejected) {
  std::string full_path = TempPath("truncate_source.tenetkb");
  ASSERT_TRUE(SaveFlatPair(TinyKb(), full_path).ok());
  std::ifstream in(full_path, std::ios::binary);
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  // Chop at every prefix length: none of them may crash, and any prefix
  // short of the full file must be rejected.
  for (size_t cut = 0; cut + 1 < content.size(); cut += 7) {
    std::string path = TempPath("truncated.tenetkb");
    WriteFile(path, content.substr(0, cut));
    Result<ShardedKb> loaded = ShardedKb::Load(path, full_path + ".emb");
    ASSERT_FALSE(loaded.ok()) << "prefix of " << cut << " bytes";
    EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(KbIoCorruptionTest, NaNEmbeddingPayloadIsDataLoss) {
  // Header says 1 entity, dim 2 — payload carries a NaN, which would
  // silently poison every cosine if it reached Finalize.
  std::string path = TempPath("nan_payload.tenetemb");
  std::string content = "TENETEMB1";
  int32_t header[3] = {2, 1, 0};
  content.append(reinterpret_cast<const char*>(header), sizeof(header));
  float payload[2] = {1.0f, std::numeric_limits<float>::quiet_NaN()};
  content.append(reinterpret_cast<const char*>(payload), sizeof(payload));
  WriteFile(path, content);
  Result<embedding::EmbeddingStore> loaded = LoadEmbeddings(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_TRUE(loaded.status().IsDataLoss());
}

TEST(KbIoCorruptionTest, TruncatedEmbeddingPayloadIsRejected) {
  std::string path = TempPath("short_payload.tenetemb");
  std::string content = "TENETEMB1";
  int32_t header[3] = {4, 2, 0};  // promises 2 vectors of dim 4
  content.append(reinterpret_cast<const char*>(header), sizeof(header));
  float payload[3] = {0.1f, 0.2f, 0.3f};  // delivers less than one
  content.append(reinterpret_cast<const char*>(payload), sizeof(payload));
  WriteFile(path, content);
  Result<embedding::EmbeddingStore> loaded = LoadEmbeddings(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
}

TEST(KbIoCorruptionTest, InjectedWriteTruncationNeverPublishesATornFile) {
  // The fault point simulates a crash / full disk mid-write.  Snapshots go
  // through AtomicWriteFile, so the crash leaves half-written debris at
  // `<path>.tmp` — never a torn `path`: the target simply does not exist.
  std::string path = TempPath("torn_write.tenetkb");
  std::remove(path.c_str());
  {
    FaultInjector faults(41);
    faults.Arm("kb/io/write_truncation", 1.0);
    Status save = SaveKnowledgeBase(TinyKb(), path);
    ASSERT_FALSE(save.ok());
    EXPECT_TRUE(save.IsDataLoss());
    EXPECT_EQ(faults.FireCount("kb/io/write_truncation"), 1);
  }
  Result<ShardedKb> loaded = LoadFlatPair(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kNotFound);
  // The realistic crash residue is there, and loaders never look at it.
  std::ifstream debris(path + ".tmp", std::ios::binary);
  EXPECT_TRUE(debris.good());
}

TEST(KbIoCorruptionTest, KillMidWriteLeavesThePreviousSnapshotIntact) {
  // The live-update story depends on this: a crash while re-snapshotting
  // (e.g. the background merge) must leave the previous generation's file
  // loadable, or a reboot after the crash has no KB at all.
  std::string path = TempPath("overwritten.tenetkb");
  ASSERT_TRUE(SaveFlatPair(TinyKb(), path).ok());

  KnowledgeBase bigger;
  EntityId a = bigger.AddEntity("Alpha", EntityType::kPerson, 0, 2.0);
  EntityId b = bigger.AddEntity("Beta", EntityType::kLocation, 0, 1.0);
  PredicateId p = bigger.AddPredicate("linked to", 0, 1.0);
  ASSERT_TRUE(bigger.AddFact(a, p, b).ok());
  bigger.Finalize();
  {
    FaultInjector faults(44);
    faults.Arm("kb/io/write_truncation", 1.0);
    Status save = SaveKnowledgeBase(bigger, path);
    ASSERT_FALSE(save.ok());
    EXPECT_TRUE(save.IsDataLoss());
  }

  // The old snapshot survives, byte-for-byte loadable.
  Result<ShardedKb> loaded = LoadFlatPair(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->num_entities(), TinyKb().num_entities());
}

TEST(KbIoCorruptionTest, InjectedEmbeddingTruncationNeverPublishesATornFile) {
  datasets::SyntheticWorld world = datasets::BuildWorld();
  std::string path = TempPath("torn_write.tenetemb");
  std::remove(path.c_str());
  {
    FaultInjector faults(42);
    faults.Arm("kb/io/write_truncation", 1.0);
    Status save = SaveEmbeddings(world.embeddings, path);
    ASSERT_FALSE(save.ok());
    EXPECT_TRUE(save.IsDataLoss());
  }
  Result<embedding::EmbeddingStore> loaded = LoadEmbeddings(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kNotFound);
}

TEST(KbIoCorruptionTest, LoaderFaultPointsSurfaceAsDataLoss) {
  std::string kb_path = TempPath("loader_fault.tenetkb");
  ASSERT_TRUE(SaveFlatPair(TinyKb(), kb_path).ok());
  FaultInjector faults(43);
  faults.Arm("kb/io/load_kb", 1.0);
  faults.Arm("kb/io/load_embeddings", 1.0);
  EXPECT_TRUE(LoadFlatPair(kb_path).status().IsDataLoss());
  EXPECT_TRUE(LoadEmbeddings("unused.tenetemb").status().IsDataLoss());
}

}  // namespace
}  // namespace kb
}  // namespace tenet

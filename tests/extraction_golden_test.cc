// Golden extractions: FNV-1a digests of every ExtractionResult the text
// front end produces over the four paper corpora, 64 MSNBC19-profile
// documents on the huge world, the adversarial mutation of each, and a set
// of hand-written case and connector edge cases.  Every document goes
// through both ExtractFromText overloads (plain, and guarded with the
// default TextLimits); the digest takes every ShortMention field, every
// link_after entry (kind and joining text), every ExtractedRelation field,
// the guarded call's status code and its whole TextGuardReport.
//
// The constants below were recorded once and must never be edited: any
// change to the tokenizer, the lexicon, the gazetteer or the extractor that
// moves a single byte of an extraction fails here.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.h"
#include "datasets/adversarial.h"
#include "datasets/corpus_generator.h"
#include "kb/synthetic_kb.h"
#include "text/extraction.h"
#include "text/limits.h"

namespace tenet {
namespace text {
namespace {

// The KB half of datasets::BuildWorld (same seed and fork), without the
// embedding training the extractor never reads.
kb::SyntheticKb MakeKbWorld(const kb::SyntheticKbOptions& options) {
  Rng rng(2021);
  Rng kb_rng = rng.Fork(1);
  return kb::SyntheticKbGenerator(options).Generate(kb_rng);
}

const kb::SyntheticKb& DefaultWorld() {
  static const kb::SyntheticKb* world =
      new kb::SyntheticKb(MakeKbWorld(kb::SyntheticKbOptions()));
  return *world;
}

const kb::SyntheticKb& HugeWorld() {
  static const kb::SyntheticKb* world =
      new kb::SyntheticKb(MakeKbWorld(kb::SyntheticKbOptions::Huge()));
  return *world;
}

class Fnv1a {
 public:
  void Bytes(const void* data, size_t size) {
    const unsigned char* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < size; ++i) {
      hash_ ^= p[i];
      hash_ *= 0x100000001b3ULL;
    }
  }
  void Int(int64_t v) { Bytes(&v, sizeof(v)); }
  void Str(std::string_view s) {
    Int(static_cast<int64_t>(s.size()));
    Bytes(s.data(), s.size());
  }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 0xcbf29ce484222325ULL;
};

void DigestExtraction(const ExtractionResult& r, Fnv1a* h) {
  h->Int(static_cast<int64_t>(r.mentions.size()));
  for (const ShortMention& m : r.mentions) {
    h->Str(m.surface);
    h->Int(m.type.has_value() ? static_cast<int64_t>(*m.type) : -1);
    h->Int(m.sentence);
    h->Int(m.token_begin);
    h->Int(m.token_end);
  }
  h->Int(static_cast<int64_t>(r.link_after.size()));
  for (const std::optional<Connector>& c : r.link_after) {
    h->Int(c.has_value() ? static_cast<int64_t>(c->kind) : -1);
    if (c.has_value()) h->Str(c->joining_text);
  }
  h->Int(static_cast<int64_t>(r.relations.size()));
  for (const ExtractedRelation& rel : r.relations) {
    h->Str(rel.lemma);
    h->Str(rel.raw);
    h->Int(rel.sentence);
    h->Int(rel.token_begin);
    h->Int(rel.token_end);
  }
}

void DigestReport(const TextGuardReport& rep, Fnv1a* h) {
  h->Int(static_cast<int64_t>(rep.invalid_utf8_bytes));
  h->Int(rep.truncated_tokens);
  h->Int(rep.token_cap_hit ? 1 : 0);
  h->Int(rep.dropped_mentions);
  h->Int(rep.dropped_relations);
  h->Int(rep.truncated_candidates);
}

// What the digested extractions contained, so a digest cannot silently pin
// a corpus that exercises nothing.
struct Coverage {
  int untyped_mentions = 0;
  int typed_mentions = 0;
  int links = 0;
  int relations = 0;
  int truncated_docs = 0;
};

uint64_t DigestTexts(const Gazetteer& gazetteer,
                     const std::vector<std::string>& texts,
                     Coverage* coverage) {
  Extractor extractor(&gazetteer);
  const TextLimits limits;
  Fnv1a h;
  for (const std::string& text : texts) {
    const ExtractionResult plain = extractor.ExtractFromText(text);
    DigestExtraction(plain, &h);
    TextGuardReport report;
    Result<ExtractionResult> guarded =
        extractor.ExtractFromText(text, limits, &report);
    h.Int(static_cast<int64_t>(guarded.status().code()));
    if (guarded.ok()) DigestExtraction(*guarded, &h);
    DigestReport(report, &h);

    for (const ShortMention& m : plain.mentions) {
      ++(m.type.has_value() ? coverage->typed_mentions
                            : coverage->untyped_mentions);
    }
    for (const std::optional<Connector>& c : plain.link_after) {
      if (c.has_value()) ++coverage->links;
    }
    coverage->relations += static_cast<int>(plain.relations.size());
    if (report.truncated()) ++coverage->truncated_docs;
  }
  return h.value();
}

void ExpectCoverage(const Coverage& c, bool truncations) {
  EXPECT_GT(c.untyped_mentions, 0);
  EXPECT_GT(c.typed_mentions, 0);
  EXPECT_GT(c.links, 0);
  EXPECT_GT(c.relations, 0);
  if (truncations) {
    EXPECT_GT(c.truncated_docs, 0);
  }
}

std::vector<std::string> TextsOf(const datasets::Dataset& dataset) {
  std::vector<std::string> texts;
  for (const datasets::Document& doc : dataset.documents) {
    texts.push_back(doc.text);
  }
  return texts;
}

struct GoldenCorpus {
  datasets::Dataset dataset;
  const kb::SyntheticKb* world;
};

// News, T-REx42, KORE50 and MSNBC19 at full size (seed 77, in that order),
// then 64 MSNBC19-profile documents on the huge world.
const std::vector<GoldenCorpus>& Corpora() {
  static const std::vector<GoldenCorpus>* corpora = [] {
    auto* out = new std::vector<GoldenCorpus>();
    datasets::CorpusGenerator gen(&DefaultWorld());
    Rng rng(77);
    for (const datasets::DatasetSpec& spec :
         {datasets::NewsSpec(), datasets::TRex42Spec(), datasets::Kore50Spec(),
          datasets::Msnbc19Spec()}) {
      out->push_back({gen.Generate(spec, rng), &DefaultWorld()});
    }
    datasets::DatasetSpec huge = datasets::Msnbc19Spec();
    huge.name = "MSNBC19-huge";
    huge.num_docs = 64;
    Rng huge_rng(77);
    out->push_back({datasets::CorpusGenerator(&HugeWorld()).Generate(
                        huge, huge_rng),
                    &HugeWorld()});
    return out;
  }();
  return *corpora;
}

struct CorpusGolden {
  const char* name;
  uint64_t clean;
  uint64_t adversarial;
};

constexpr CorpusGolden kGolden[] = {
    {"News", 0xc26689a891689089ULL, 0xaef3eaffeb46fbfbULL},
    {"T-REx42", 0x2939a317f171a9f5ULL, 0xccf48164bf472d2cULL},
    {"KORE50", 0x9e798aa983bd322bULL, 0x8d4536d448a6599eULL},
    {"MSNBC19", 0x69c3c58c4c14bb8bULL, 0x75b1f4bac9e81ad4ULL},
    {"MSNBC19-huge", 0xed3aa97160516c63ULL, 0x0506005045ecc69dULL},
};

constexpr uint64_t kEdgeCasesGolden = 0x92a1bfc0c7ab72a9ULL;

TEST(ExtractionGoldenTest, CorporaAndTheirMutationsAreByteIdentical) {
  const datasets::AdversarialMutator mutator{datasets::AdversarialSpec()};
  Coverage clean_coverage;
  Coverage adversarial_coverage;
  ASSERT_EQ(Corpora().size(), std::size(kGolden));
  for (size_t c = 0; c < Corpora().size(); ++c) {
    const GoldenCorpus& corpus = Corpora()[c];
    ASSERT_EQ(corpus.dataset.name, kGolden[c].name);
    const Gazetteer& gazetteer = corpus.world->gazetteer;
    const uint64_t clean =
        DigestTexts(gazetteer, TextsOf(corpus.dataset), &clean_coverage);
    EXPECT_EQ(clean, kGolden[c].clean)
        << corpus.dataset.name << " clean: 0x" << std::hex << clean;
    const uint64_t adversarial =
        DigestTexts(gazetteer, TextsOf(mutator.Mutate(corpus.dataset)),
                    &adversarial_coverage);
    EXPECT_EQ(adversarial, kGolden[c].adversarial)
        << corpus.dataset.name << " adversarial: 0x" << std::hex
        << adversarial;
  }
  ExpectCoverage(clean_coverage, /*truncations=*/false);
  ExpectCoverage(adversarial_coverage, /*truncations=*/true);
}

// Case folding, pronouns, sentence-initial function words, verb particles
// and every connector class, in the casings a lexicon probe must fold.
TEST(ExtractionGoldenTest, CaseAndConnectorEdgeCasesAreByteIdentical) {
  const kb::SyntheticKb& world = DefaultWorld();
  std::vector<std::string> texts = {
      "",
      "THE STORM OF THE ISLAND WAS PAINTED BY HIM.",
      "The Storm on the Island. He visited Ashford AND Brindlemere.",
      "HE VISITED Ashford. She Worked At Caldwell with Dunhaven.",
      "During the year Adrian Abernathy studied at Meridian Institute.",
      "This Crown Of The Harbor : Orion - Polaris 11 Titan.",
      "It wrote to Eastmoor OF Fernleigh, and Glenbrook Or Hartwell.",
      "They were leaving Inverdale for Jutland under the Kestrel.",
      "Caf\xC3\xA9 Larkspur visited Marrowgate in Netherfield.",
      "Apollo 11 Mission met Falcon 9 near Oakvale 7.",
      "Its Pinehurst acquired Quarrydown; Rosemont : Silverlake.",
      "quantum inference and statistical logic were studied by Thistledown.",
      "Her Umberton WORKS AT Vexley. Their Wyndham lives with Yarrowfield.",
      "studying studies studied study Studying STUDIES.",
  };
  // Render a few generated surfaces in every casing the fold must match.
  for (size_t e = 0; e < world.entity_surfaces.size() && e < 40; e += 4) {
    const std::string& s = world.entity_surfaces[e].front();
    std::string upper = s;
    for (char& ch : upper) {
      if (ch >= 'a' && ch <= 'z') ch = static_cast<char>(ch - 'a' + 'A');
    }
    texts.push_back("Yorick visited " + s + " and " + upper + " of the " +
                    s + ".");
  }
  Coverage coverage;
  const uint64_t digest = DigestTexts(world.gazetteer, texts, &coverage);
  ExpectCoverage(coverage, /*truncations=*/false);
  EXPECT_EQ(digest, kEdgeCasesGolden) << "edge cases: 0x" << std::hex
                                      << digest;
}

}  // namespace
}  // namespace text
}  // namespace tenet

#include "text/wordlists.h"

#include <algorithm>
#include <unordered_map>
#include <utility>

#include "common/logging.h"
#include "common/string_util.h"

namespace tenet {
namespace text {
namespace {

// clang-format off
const std::vector<VerbForms> kVerbs = {
    {"study", "studied", "studies", "studying"},
    {"visit", "visited", "visits", "visiting"},
    {"direct", "directed", "directs", "directing"},
    {"found", "founded", "founds", "founding"},
    {"establish", "established", "establishes", "establishing"},
    {"write", "wrote", "writes", "writing"},
    {"paint", "painted", "paints", "painting"},
    {"compose", "composed", "composes", "composing"},
    {"marry", "married", "marries", "marrying"},
    {"acquire", "acquired", "acquires", "acquiring"},
    {"publish", "published", "publishes", "publishing"},
    {"produce", "produced", "produces", "producing"},
    {"lead", "led", "leads", "leading"},
    {"manage", "managed", "manages", "managing"},
    {"own", "owned", "owns", "owning"},
    {"create", "created", "creates", "creating"},
    {"design", "designed", "designs", "designing"},
    {"develop", "developed", "develops", "developing"},
    {"launch", "launched", "launches", "launching"},
    {"join", "joined", "joins", "joining"},
    {"leave", "left", "leaves", "leaving"},
    {"teach", "taught", "teaches", "teaching"},
    {"advise", "advised", "advises", "advising"},
    {"mentor", "mentored", "mentors", "mentoring"},
    {"award", "awarded", "awards", "awarding"},
    {"win", "won", "wins", "winning"},
    {"receive", "received", "receives", "receiving"},
    {"attend", "attended", "attends", "attending"},
    {"graduate", "graduated", "graduates", "graduating"},
    {"work", "worked", "works", "working"},
    {"live", "lived", "lives", "living"},
    {"move", "moved", "moves", "moving"},
    {"travel", "traveled", "travels", "traveling"},
    {"bear", "bore", "bears", "bearing"},
    {"die", "died", "dies", "dying"},
    {"discover", "discovered", "discovers", "discovering"},
    {"invent", "invented", "invents", "inventing"},
    {"propose", "proposed", "proposes", "proposing"},
    {"prove", "proved", "proves", "proving"},
    {"investigate", "investigated", "investigates", "investigating"},
    {"research", "researched", "researches", "researching"},
    {"explore", "explored", "explores", "exploring"},
    {"chair", "chaired", "chairs", "chairing"},
    {"sponsor", "sponsored", "sponsors", "sponsoring"},
    {"fund", "funded", "funds", "funding"},
    {"support", "supported", "supports", "supporting"},
    {"collaborate", "collaborated", "collaborates", "collaborating"},
    {"partner", "partnered", "partners", "partnering"},
    {"merge", "merged", "merges", "merging"},
    {"buy", "bought", "buys", "buying"},
    {"sell", "sold", "sells", "selling"},
    {"build", "built", "builds", "building"},
    {"open", "opened", "opens", "opening"},
    {"close", "closed", "closes", "closing"},
    {"host", "hosted", "hosts", "hosting"},
    {"organize", "organized", "organizes", "organizing"},
    {"perform", "performed", "performs", "performing"},
    {"record", "recorded", "records", "recording"},
    {"release", "released", "releases", "releasing"},
    {"star", "starred", "stars", "starring"},
    {"play", "played", "plays", "playing"},
    {"coach", "coached", "coaches", "coaching"},
    {"govern", "governed", "governs", "governing"},
    {"represent", "represented", "represents", "representing"},
    {"serve", "served", "serves", "serving"},
    {"speak", "spoke", "speaks", "speaking"},
    {"announce", "announced", "announces", "announcing"},
    {"present", "presented", "presents", "presenting"},
    {"review", "reviewed", "reviews", "reviewing"},
    {"celebrate", "celebrated", "celebrates", "celebrating"},
    {"admire", "admired", "admires", "admiring"},
    {"describe", "described", "describes", "describing"},
    {"mention", "mentioned", "mentions", "mentioning"},
    {"criticize", "criticized", "criticizes", "criticizing"},
};

// Lemmas drawn on by the synthetic KB for predicate surfaces.
const std::vector<std::string_view> kPredicateVerbLemmas = {
    "study", "visit", "direct", "found", "establish", "write", "paint",
    "compose", "marry", "acquire", "publish", "produce", "lead", "manage",
    "own", "create", "design", "develop", "launch", "join", "leave",
    "teach", "advise", "mentor", "award", "win", "receive", "attend",
    "graduate", "work", "live", "move", "bear", "discover", "invent",
    "propose", "chair", "sponsor", "fund", "collaborate", "partner",
    "merge", "buy", "sell", "build", "host", "organize", "perform",
    "record", "release", "star", "play", "coach", "govern", "represent",
    "serve",
};

// Verbs that render real sentences but never alias a KB predicate; the
// corpus generator uses them for non-linkable relational phrases.
const std::vector<std::string_view> kNonKbVerbLemmas = {
    "travel", "die", "prove", "investigate", "research", "explore", "open",
    "close", "speak", "announce", "present", "review", "celebrate",
    "admire", "describe", "mention", "criticize",
};

const std::vector<std::string_view> kVerbParticles = {
    "at", "in", "with", "for", "to",
};

// The closed-class words of the grammar, by lexicon class: the Sec. 5.1
// connectors (numbers are recognized by shape), the function words the
// chunker skips, and the pronouns the coreference canonicalizer resolves.
const std::vector<std::pair<LexClass, std::vector<std::string_view>>>
    kClosedClasses = {
    {kLexConjunction, {"and", "or"}},
    {kLexPreposition,
     {"of", "on", "in", "at", "for", "from", "by", "with", "under", "over"}},
    {kLexConnectorPunct, {":", "-"}},
    {kLexDeterminer,
     {"the", "a", "an", "this", "that", "its", "his", "her", "their"}},
    {kLexStopword,
     {"the", "a", "an", "of", "on", "in", "at", "for", "from", "by", "with",
      "under", "over", "and", "or", "to", "as", "is", "are", "was", "were",
      "be", "been", "he", "she", "it", "they", "him", "her", "them", "his",
      "its", "their", "this", "that", "also", "more", "than", "during",
      "after", "before", "new", "first", "last", "year", "years"}},
    {kLexPronoun, {"he", "she", "it", "they", "him", "her", "them"}},
};

const std::vector<std::string_view> kPersonFirstNames = {
    "Adrian", "Beatrice", "Cedric", "Dalia", "Edmund", "Farah", "Gideon",
    "Helena", "Ivor", "Jasmine", "Kieran", "Lavinia", "Magnus", "Nadia",
    "Orson", "Petra", "Quentin", "Rosalind", "Silas", "Tamsin", "Ulric",
    "Verena", "Wendell", "Xenia", "Yorick", "Zelda", "Anselm", "Bronwyn",
    "Caspian", "Delphine", "Emeric", "Fiora", "Gareth", "Honora",
};

const std::vector<std::string_view> kPersonLastNames = {
    "Abernathy", "Blackwood", "Carmichael", "Delacroix", "Eastgate",
    "Fairbanks", "Greenhalgh", "Hawthorne", "Ingleby", "Jarnvik",
    "Kingsley", "Lockridge", "Montclair", "Northgate", "Oakhurst",
    "Pemberton", "Quillfeather", "Ravenswood", "Stanhope", "Thornbury",
    "Underhill", "Vanterpool", "Westbrook", "Yardley", "Ashdown",
    "Briarcliff", "Coldstream", "Dunmore", "Elsworth", "Farrow",
};

const std::vector<std::string_view> kOrganizationHeads = {
    "Meridian", "Vanguard", "Summit", "Pinnacle", "Horizon", "Keystone",
    "Beacon", "Crescent", "Northern", "Atlas", "Orion", "Polaris",
    "Sterling", "Granite", "Harbor", "Cascade", "Aurora", "Zenith",
    "Frontier", "Heritage",
};

const std::vector<std::string_view> kOrganizationSuffixes = {
    "Institute", "University", "Laboratories", "Corporation", "Foundation",
    "Society", "Academy", "College", "Consortium", "Council", "Museum",
    "Observatory", "Press",
};

const std::vector<std::string_view> kLocationNames = {
    "Ashford", "Brindlemere", "Caldwell", "Dunhaven", "Eastmoor",
    "Fernleigh", "Glenbrook", "Hartwell", "Inverdale", "Jutland",
    "Kestrel", "Larkspur", "Marrowgate", "Netherfield", "Oakvale",
    "Pinehurst", "Quarrydown", "Rosemont", "Silverlake", "Thistledown",
    "Umberton", "Vexley", "Wyndham", "Yarrowfield",
};

const std::vector<std::string_view> kLocationSuffixes = {
    "Bay", "Island", "Valley", "Heights", "Harbor", "Falls", "Ridge",
    "Plains", "Sound",
};

const std::vector<std::string_view> kWorkHeadNouns = {
    "Storm", "Voyage", "Garden", "Portrait", "Symphony", "Chronicle",
    "Ballad", "Mirror", "Lantern", "Crown", "Shadow", "River", "Winter",
    "Harvest", "Procession", "Elegy", "Dream", "Masquerade",
};

const std::vector<std::string_view> kTopicAdjectives = {
    "quantum", "statistical", "computational", "synthetic", "molecular",
    "cognitive", "distributed", "adaptive", "nonlinear", "stochastic",
    "semantic", "structural", "dynamic", "neural", "symbolic",
};

const std::vector<std::string_view> kTopicNouns = {
    "inference", "optimization", "linguistics", "chemistry", "robotics",
    "cartography", "economics", "epidemiology", "astronomy", "genomics",
    "logic", "topology", "rhetoric", "hydrology", "metallurgy",
};

const std::vector<std::string_view> kProductHeads = {
    "Falcon", "Comet", "Nimbus", "Quasar", "Vertex", "Spectra", "Pulsar",
    "Nova", "Titan", "Zephyr",
};

const std::vector<std::string_view> kEventHeads = {
    "Expo", "Summit", "Festival", "Symposium", "Congress", "Biennale",
    "Regatta", "Tournament",
};
// clang-format on

struct Lexicon {
  std::unordered_map<std::string_view, LexEntry, AsciiFoldHasher,
                     AsciiFoldEqual>
      words;
  size_t max_len = 0;
};

// Every listed word (all lower case) with its class bits and verb row.
Lexicon BuildLexicon() {
  Lexicon lex;
  auto add = [&lex](std::string_view word, uint16_t cls,
                    const VerbForms* verb) {
    LexEntry& e = lex.words[word];
    e.word = word;
    e.classes |= cls;
    // A form shared by two rows would make the lemma order-dependent.
    TENET_CHECK(verb == nullptr || e.verb == nullptr || e.verb == verb)
        << word;
    if (verb != nullptr) e.verb = verb;
    lex.max_len = std::max(lex.max_len, word.size());
  };
  for (const auto& [cls, words] : kClosedClasses) {
    for (std::string_view w : words) add(w, cls, nullptr);
  }
  for (std::string_view w : kVerbParticles) add(w, kLexParticle, nullptr);
  for (const VerbForms& v : kVerbs) {
    for (std::string_view form : {v.lemma, v.past, v.third, v.gerund}) {
      add(form, kLexVerbForm, &v);
    }
  }
  return lex;
}

}  // namespace

const std::vector<VerbForms>& Verbs() { return kVerbs; }

const std::vector<std::string_view>& PredicateVerbLemmas() {
  return kPredicateVerbLemmas;
}

const std::vector<std::string_view>& NonKbVerbLemmas() {
  return kNonKbVerbLemmas;
}

const std::vector<std::string_view>& VerbParticles() { return kVerbParticles; }

const std::vector<std::string_view>& PersonFirstNames() {
  return kPersonFirstNames;
}
const std::vector<std::string_view>& PersonLastNames() {
  return kPersonLastNames;
}
const std::vector<std::string_view>& OrganizationHeads() {
  return kOrganizationHeads;
}
const std::vector<std::string_view>& OrganizationSuffixes() {
  return kOrganizationSuffixes;
}
const std::vector<std::string_view>& LocationNames() { return kLocationNames; }
const std::vector<std::string_view>& LocationSuffixes() {
  return kLocationSuffixes;
}
const std::vector<std::string_view>& WorkHeadNouns() { return kWorkHeadNouns; }
const std::vector<std::string_view>& TopicAdjectives() {
  return kTopicAdjectives;
}
const std::vector<std::string_view>& TopicNouns() { return kTopicNouns; }
const std::vector<std::string_view>& ProductHeads() { return kProductHeads; }
const std::vector<std::string_view>& EventHeads() { return kEventHeads; }

const LexEntry& LookupWord(std::string_view word) {
  static const Lexicon* lexicon = new Lexicon(BuildLexicon());
  static const LexEntry kMiss{};
  if (word.size() > lexicon->max_len) return kMiss;  // before any hashing
  auto it = lexicon->words.find(word);
  return it == lexicon->words.end() ? kMiss : it->second;
}

const VerbForms* FindVerbByLemma(std::string_view lemma) {
  const VerbForms* v = LookupWord(lemma).verb;
  return v != nullptr && v->lemma == lemma ? v : nullptr;
}

}  // namespace text
}  // namespace tenet

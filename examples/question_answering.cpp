// Question answering over the KB (the downstream task motivating
// Falcon/EARL in the paper's introduction): TENET links the question's
// noun phrase and relational phrase jointly, then the KB is queried with
// the linked (predicate, entity) pair.
//
//   $ ./build/examples/question_answering
#include <cstdio>
#include <string>
#include <vector>

#include "common/string_util.h"
#include "core/pipeline.h"
#include "datasets/world.h"
#include "text/wordlists.h"

using namespace tenet;

namespace {

// Answers "Who/What <relational phrase> <Entity>?" by joint linking + a
// fact scan.  Returns the labels of matching subjects.
std::vector<std::string> Answer(const datasets::SyntheticWorld& world,
                                const core::TenetPipeline& tenet,
                                const std::string& question) {
  // The pipeline consumes statements; strip the interrogative lead-in so
  // the relational phrase connects the (implicit) subject to the entity.
  std::string statement = question;
  for (const char* prefix : {"Who ", "What "}) {
    if (statement.rfind(prefix, 0) == 0) {
      // A placeholder subject anchors the relational phrase; it has no KB
      // candidates, so it cannot distort the linking.
      statement = "Someone " + statement.substr(std::string(prefix).size());
      break;
    }
  }
  if (!statement.empty() && statement.back() == '?') {
    statement.back() = '.';
  }

  Result<core::LinkingResult> result = tenet.LinkDocument(statement);
  std::vector<std::string> answers;
  if (!result.ok()) return answers;

  kb::EntityId entity = kb::kInvalidEntity;
  kb::PredicateId predicate = kb::kInvalidPredicate;
  for (const core::LinkedConcept& link : result->links) {
    if (link.kind == core::Mention::Kind::kNoun &&
        entity == kb::kInvalidEntity) {
      entity = link.concept_ref.id;
    }
    if (link.kind == core::Mention::Kind::kRelational &&
        predicate == kb::kInvalidPredicate) {
      predicate = link.concept_ref.id;
    }
  }
  if (entity == kb::kInvalidEntity || predicate == kb::kInvalidPredicate) {
    return answers;
  }
  for (int32_t fact_index : world.kb().FactsOfEntity(entity)) {
    const kb::Triple& t = world.kb().facts()[fact_index];
    if (t.predicate != predicate || !t.object_is_entity) continue;
    kb::EntityId other = t.subject == entity ? t.object_entity : t.subject;
    answers.push_back(world.kb().entity(other).label);
  }
  return answers;
}

}  // namespace

int main() {
  datasets::SyntheticWorld world = datasets::BuildWorld();
  core::TenetPipeline tenet(world.view, &world.gazetteer());

  // Build a handful of answerable questions from actual KB facts, using a
  // predicate surface and the object's label.
  std::vector<std::string> questions;
  Rng rng(11);
  int attempts = 0;
  while (questions.size() < 5 && ++attempts < 500) {
    const kb::Triple& t =
        world.kb().facts()[rng.NextUint64(world.kb().num_facts())];
    if (!t.object_is_entity) continue;
    const std::string& verb = world.kb().predicate(t.predicate).label;
    const std::string& object = world.kb().entity(t.object_entity).label;
    if (!IsCapitalized(object)) continue;  // keep the extraction simple
    // Render the verb in third person; the lemmatizer maps it back.
    const text::VerbForms* forms =
        text::FindVerbByLemma(SplitString(verb, ' ')[0]);
    if (forms == nullptr) continue;
    std::vector<std::string> words = SplitString(verb, ' ');
    words[0] = std::string(forms->third);
    questions.push_back("Who " + JoinStrings(words, " ") + " " + object +
                        "?");
  }

  for (const std::string& question : questions) {
    std::printf("Q: %s\n", question.c_str());
    std::vector<std::string> answers = Answer(world, tenet, question);
    if (answers.empty()) {
      std::printf("A: (no KB answer found)\n\n");
      continue;
    }
    for (const std::string& a : answers) {
      std::printf("A: %s\n", a.c_str());
    }
    std::printf("\n");
  }
  return 0;
}

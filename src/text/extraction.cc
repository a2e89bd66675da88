#include "text/extraction.h"

#include <algorithm>
#include <string>

#include "common/dependency_health.h"
#include "common/fault_injection.h"
#include "common/logging.h"
#include "common/string_util.h"
#include "common/utf8.h"
#include "text/tokenizer.h"
#include "text/wordlists.h"

namespace tenet {
namespace text {
namespace {

std::string JoinTokens(const TokenizedDocument& doc, int begin, int end) {
  std::string out;
  for (int i = begin; i < end; ++i) {
    if (!out.empty() && !doc.tokens[i].is_punct) out += ' ';
    out += doc.tokens[i].t;
  }
  return out;
}

}  // namespace

Extractor::Extractor(const Gazetteer* gazetteer) : gazetteer_(gazetteer) {
  TENET_CHECK(gazetteer != nullptr);
}

ExtractionResult Extractor::ExtractFromText(
    std::string_view document_text) const {
  return Extract(Tokenize(document_text));
}

Result<ExtractionResult> Extractor::ExtractFromText(
    std::string_view document_text, const TextLimits& limits,
    TextGuardReport* report) const {
  TextGuardReport local;
  TextGuardReport* rep = report != nullptr ? report : &local;

  // Reject-before-work: past this size even tokenization cost can blow a
  // serving deadline, so no partial output either.
  if (document_text.size() > limits.max_document_bytes) {
    RecordInputRejected(InputRejectReason::kDocumentBytes);
    return Status::InvalidArgument(
        "document of " + std::to_string(document_text.size()) +
        " bytes exceeds max_document_bytes=" +
        std::to_string(limits.max_document_bytes));
  }

  {
    const bool faulted = TENET_FAULT_POINT("text/tokenize");
    TENET_OBSERVE_DEPENDENCY("text/tokenize", !faulted);
    if (faulted) {
      RecordInputRejected(InputRejectReason::kTokenizeFault);
      return Status::Internal("injected fault at text/tokenize");
    }
  }

  // Invalid bytes never reach the tokenizer or the ASCII case fold: they
  // are either replaced with spaces (offset-preserving, so the garbage
  // becomes token boundaries) or the document is rejected.
  std::string sanitized;
  std::string_view input = document_text;
  const Utf8Validation utf8 = ValidateUtf8(document_text);
  if (!utf8.valid) {
    if (!limits.sanitize_invalid_utf8) {
      RecordInputRejected(InputRejectReason::kInvalidUtf8);
      return Status::InvalidArgument(
          "invalid UTF-8 at byte " + std::to_string(utf8.first_invalid) +
          " (" + std::to_string(utf8.invalid_bytes) + " invalid bytes)");
    }
    sanitized = SanitizeUtf8(document_text);
    input = sanitized;
    rep->invalid_utf8_bytes = utf8.invalid_bytes;
    RecordInputTruncated(InputTruncateReason::kInvalidUtf8,
                         static_cast<int64_t>(utf8.invalid_bytes));
  }

  TokenizedDocument doc = Tokenize(input, limits, rep);
  RecordInputTruncated(InputTruncateReason::kTokenBytes,
                       rep->truncated_tokens);
  if (rep->token_cap_hit) {
    RecordInputTruncated(InputTruncateReason::kTokenCount);
  }

  {
    const bool faulted = TENET_FAULT_POINT("text/extract");
    TENET_OBSERVE_DEPENDENCY("text/extract", !faulted);
    if (faulted) {
      RecordInputRejected(InputRejectReason::kExtractFault);
      return Status::Internal("injected fault at text/extract");
    }
  }

  ExtractionResult result = Extract(doc);

  // Truncate-and-annotate: a mention storm must degrade the document, not
  // drop it.  The kept prefix preserves document order; the trailing
  // feature link is cleared because its right-hand mention is gone.
  if (static_cast<int>(result.mentions.size()) > limits.max_mentions) {
    rep->dropped_mentions =
        static_cast<int>(result.mentions.size()) - limits.max_mentions;
    result.mentions.resize(limits.max_mentions);
    result.link_after.resize(limits.max_mentions);
    if (!result.link_after.empty()) result.link_after.back() = std::nullopt;
    RecordInputTruncated(InputTruncateReason::kMentions,
                         rep->dropped_mentions);
  }
  if (static_cast<int>(result.relations.size()) > limits.max_relations) {
    rep->dropped_relations =
        static_cast<int>(result.relations.size()) - limits.max_relations;
    result.relations.resize(limits.max_relations);
    RecordInputTruncated(InputTruncateReason::kRelations,
                         rep->dropped_relations);
  }
  return result;
}

ExtractionResult Extractor::Extract(const TokenizedDocument& doc) const {
  ExtractionResult result;
  const int num_tokens = static_cast<int>(doc.tokens.size());
  // Each token is probed in the lexicon once; passes 1, 3 and 4 read it.
  std::vector<const LexEntry*> lex(num_tokens);
  for (int t = 0; t < num_tokens; ++t) lex[t] = &LookupWord(doc.tokens[t].t);
  std::vector<bool> in_mention(num_tokens, false);

  // ---- Pass 1: capitalized-run mentions ---------------------------------
  for (int s = 0; s < doc.num_sentences(); ++s) {
    const int sent_begin = doc.sentence_begin[s];
    const int sent_end = doc.SentenceEnd(s);
    int i = sent_begin;
    while (i < sent_end) {
      const Token& tok = doc.tokens[i];
      const LexEntry& word = *lex[i];
      bool starts_run = !tok.is_punct && IsCapitalized(tok.t);
      if (starts_run && i == sent_begin &&
          word.Has(kLexStopword | kLexDeterminer | kLexVerbForm)) {
        // Sentence-initial "The"/"He"/"During": only a name start when it is
        // a capitalized determiner directly followed by another capitalized
        // word ("The Storm ...").
        bool title_start =
            word.Has(kLexDeterminer) && i + 1 < sent_end &&
            !doc.tokens[i + 1].is_punct && IsCapitalized(doc.tokens[i + 1].t);
        if (!title_start) starts_run = false;
      }
      if (starts_run && word.Has(kLexPronoun)) starts_run = false;
      if (!starts_run) {
        ++i;
        continue;
      }
      int begin = i;
      int end = i + 1;
      // A run extends over strictly capitalized tokens; lowercase connectors
      // ("of the") intentionally terminate it — they are the linguistic
      // features that the canopy machinery rejoins later.  A number joins
      // the run only at its end ("Falcon 9"); a number *between* two
      // capitalized tokens stays outside as a connector ("Apollo 11
      // mission" style, Sec. 5.1).
      while (end < sent_end && !doc.tokens[end].is_punct &&
             IsCapitalized(doc.tokens[end].t)) {
        ++end;
      }
      if (end < sent_end && !doc.tokens[end].is_punct &&
          IsAsciiNumber(doc.tokens[end].t) &&
          !(end + 1 < sent_end && !doc.tokens[end + 1].is_punct &&
            IsCapitalized(doc.tokens[end + 1].t))) {
        ++end;
      }
      ShortMention mention;
      mention.surface = JoinTokens(doc, begin, end);
      mention.type = gazetteer_->LookupType(mention.surface);
      mention.sentence = s;
      mention.token_begin = begin;
      mention.token_end = end;
      for (int t = begin; t < end; ++t) in_mention[t] = true;
      result.mentions.push_back(std::move(mention));
      i = end;
    }
  }

  // ---- Pass 2: lowercase gazetteer mentions (topics) --------------------
  // A token that starts no lowercase-mention surface costs one probe; else
  // the window of clean tokens is joined once and probed longest first,
  // dropping its last token after each miss (a Tokenize token is never
  // empty and holds no space).
  std::string window;
  for (int s = 0; s < doc.num_sentences(); ++s) {
    const int sent_begin = doc.sentence_begin[s];
    const int sent_end = doc.SentenceEnd(s);
    int i = sent_begin;
    while (i < sent_end) {
      if (in_mention[i] || doc.tokens[i].is_punct ||
          IsCapitalized(doc.tokens[i].t)) {
        ++i;
        continue;
      }
      const int max_ngram =
          gazetteer_->LowercaseMentionTokens(doc.tokens[i].t);
      int n = 0;
      window.clear();
      for (int t = i; n < std::min(max_ngram, sent_end - i) &&
                      !in_mention[t] && !doc.tokens[t].is_punct;
           ++t, ++n) {
        if (!window.empty()) window += ' ';
        window += doc.tokens[t].t;
      }
      std::optional<kb::EntityType> type;
      while (n > 0 && !(type = gazetteer_->LowercaseMentionType(window))) {
        if (--n > 0) window.resize(window.rfind(' '));
      }
      if (n == 0) {
        ++i;
        continue;
      }
      ShortMention mention;
      mention.surface = window;
      mention.type = type;
      mention.sentence = s;
      mention.token_begin = i;
      mention.token_end = i + n;
      for (int t = i; t < i + n; ++t) in_mention[t] = true;
      result.mentions.push_back(std::move(mention));
      i += n;
    }
  }

  // Keep mentions in document order (pass 2 appended out of order).
  std::sort(result.mentions.begin(), result.mentions.end(),
            [](const ShortMention& a, const ShortMention& b) {
              return a.token_begin < b.token_begin;
            });

  // ---- Pass 3: relational phrases (Open-IE-lite) -------------------------
  // An anchor is a mention span or a resolvable pronoun.  A relation is kept
  // only when a verb (+ optional particle) lies between two anchors of the
  // same sentence, mirroring the paper's "relational phrases that connect
  // two noun phrases in a triple".
  bool seen_person_before = false;  // any prior person/org mention to bind a pronoun
  int mention_cursor = 0;
  for (int s = 0; s < doc.num_sentences(); ++s) {
    const int sent_begin = doc.sentence_begin[s];
    const int sent_end = doc.SentenceEnd(s);
    // Advance the cursor over mentions before this sentence; pronouns bind
    // to any earlier person/organization mention.
    while (mention_cursor < static_cast<int>(result.mentions.size()) &&
           result.mentions[mention_cursor].sentence < s) {
      const std::optional<kb::EntityType>& type =
          result.mentions[mention_cursor].type;
      if (type == kb::EntityType::kPerson ||
          type == kb::EntityType::kOrganization || !type.has_value()) {
        seen_person_before = true;
      }
      ++mention_cursor;
    }
    // A phrase at [i, end) has a left anchor when the sentence's first
    // mention token or bound pronoun lies before i — a pronoun binds to a
    // previous sentence's subject — and a right anchor when its last
    // mention token lies at or after end.
    int first_left = sent_end;
    int last_anchor = -1;
    for (int t = sent_begin; t < sent_end; ++t) {
      if (in_mention[t]) {
        if (first_left == sent_end) first_left = t;
        last_anchor = t;
      } else if (first_left == sent_end && seen_person_before &&
                 !doc.tokens[t].is_punct && lex[t]->Has(kLexPronoun)) {
        first_left = t;
      }
    }
    for (int i = sent_begin; i < sent_end; ++i) {
      const Token& tok = doc.tokens[i];
      if (tok.is_punct || in_mention[i]) continue;
      const VerbForms* verb = lex[i]->verb;
      if (verb == nullptr || IsCapitalized(tok.t)) continue;

      int end = i + 1;
      if (end < sent_end && !doc.tokens[end].is_punct &&
          lex[end]->Has(kLexParticle) && !in_mention[end]) {
        ++end;
      }
      if (first_left >= i || last_anchor < end) continue;

      ExtractedRelation rel;
      rel.raw = JoinTokens(doc, i, end);
      rel.lemma = verb->lemma;  // + the particle, as listed
      if (end - i == 2) rel.lemma.append(" ").append(lex[i + 1]->word);
      rel.sentence = s;
      rel.token_begin = i;
      rel.token_end = end;
      result.relations.push_back(std::move(rel));
      i = end - 1;
    }
  }

  // ---- Pass 4: feature links between adjacent mentions -------------------
  // Only a one- or two-token gap can hold a connector.
  result.link_after.assign(result.mentions.size(), std::nullopt);
  for (size_t m = 0; m + 1 < result.mentions.size(); ++m) {
    const ShortMention& left = result.mentions[m];
    const ShortMention& right = result.mentions[m + 1];
    if (left.sentence != right.sentence) continue;
    const int t = left.token_end;
    if (right.token_begin - t == 1) {
      result.link_after[m] = ClassifyConnector({doc.tokens[t].t});
    } else if (right.token_begin - t == 2) {
      result.link_after[m] =
          ClassifyConnector({doc.tokens[t].t, doc.tokens[t + 1].t});
    }
  }
  return result;
}

}  // namespace text
}  // namespace tenet

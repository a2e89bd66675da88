#include "text/gazetteer.h"

#include <algorithm>

#include "common/string_util.h"

namespace tenet {
namespace text {

void Gazetteer::AddSurface(std::string_view surface, kb::EntityType type,
                           bool lowercase_mention) {
  std::string key = AsciiToLower(surface);
  if (key.empty()) return;
  if (lowercase_mention) {
    const int tokens =
        1 + static_cast<int>(std::count(key.begin(), key.end(), ' '));
    int& most = lowercase_heads_[key.substr(0, key.find(' '))];
    most = std::max(most, tokens);
  }
  auto [it, inserted] =
      entries_.try_emplace(std::move(key), Entry{type, lowercase_mention});
  if (!inserted) it->second.lowercase_mention |= lowercase_mention;
}

int Gazetteer::LowercaseMentionTokens(std::string_view first_token) const {
  auto it = lowercase_heads_.find(first_token);
  return it == lowercase_heads_.end() ? 0 : it->second;
}

std::optional<kb::EntityType> Gazetteer::LookupType(
    std::string_view surface) const {
  auto it = entries_.find(surface);
  if (it == entries_.end()) return std::nullopt;
  return it->second.type;
}

bool Gazetteer::Contains(std::string_view surface) const {
  return entries_.find(surface) != entries_.end();
}

bool Gazetteer::IsLowercaseMention(std::string_view surface) const {
  return LowercaseMentionType(surface).has_value();
}

std::optional<kb::EntityType> Gazetteer::LowercaseMentionType(
    std::string_view surface) const {
  auto it = entries_.find(surface);
  if (it == entries_.end() || !it->second.lowercase_mention) {
    return std::nullopt;
  }
  return it->second.type;
}

}  // namespace text
}  // namespace tenet

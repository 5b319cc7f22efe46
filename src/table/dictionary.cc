#include "table/dictionary.h"

namespace privateclean {

StringDictionary::StringDictionary(const StringDictionary& other) {
  values_.reserve(other.values_.size());
  index_.reserve(other.values_.size());
  for (std::string_view v : other.values_) {
    std::string_view copy = arena_.CopyString(v);
    index_.emplace(copy, static_cast<uint32_t>(values_.size()));
    values_.push_back(copy);
  }
}

StringDictionary& StringDictionary::operator=(const StringDictionary& other) {
  if (this != &other) {
    StringDictionary copy(other);
    *this = std::move(copy);
  }
  return *this;
}

uint32_t StringDictionary::Intern(std::string_view s) {
  auto it = index_.find(s);
  if (it != index_.end()) return it->second;
  std::string_view copy = arena_.CopyString(s);
  uint32_t code = static_cast<uint32_t>(values_.size());
  index_.emplace(copy, code);
  values_.push_back(copy);
  return code;
}

uint32_t StringDictionary::Find(std::string_view s) const {
  auto it = index_.find(s);
  return it == index_.end() ? kNullCode : it->second;
}

}  // namespace privateclean

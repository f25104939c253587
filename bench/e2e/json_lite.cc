#include "json_lite.h"

#include <cstdlib>

namespace adrdedup::bench::e2e {

namespace {

class Parser {
 public:
  Parser(std::string_view text, FlatJson* out) : text_(text), out_(out) {}

  bool Run() {
    if (!Value("")) return false;
    SkipSpace();
    return pos_ == text_.size();
  }

 private:
  void SkipSpace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\n' || text_[pos_] == '\r' ||
            text_[pos_] == '\t')) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    SkipSpace();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  static std::string Join(const std::string& prefix, const std::string& key) {
    return prefix.empty() ? key : prefix + "." + key;
  }

  // Strings in the documents this reads carry no escapes beyond \" and
  // \\ in practice; other escapes are kept verbatim minus the backslash.
  bool String(std::string* value) {
    if (!Consume('"')) return false;
    value->clear();
    while (pos_ < text_.size() && text_[pos_] != '"') {
      if (text_[pos_] == '\\' && pos_ + 1 < text_.size()) ++pos_;
      value->push_back(text_[pos_++]);
    }
    if (pos_ >= text_.size()) return false;
    ++pos_;
    return true;
  }

  bool Value(const std::string& path) {
    SkipSpace();
    if (pos_ >= text_.size()) return false;
    const char c = text_[pos_];
    if (c == '{') {
      ++pos_;
      if (Consume('}')) return true;
      do {
        std::string key;
        if (!String(&key) || !Consume(':') || !Value(Join(path, key))) {
          return false;
        }
      } while (Consume(','));
      return Consume('}');
    }
    if (c == '[') {
      ++pos_;
      if (Consume(']')) return true;
      size_t index = 0;
      do {
        if (!Value(Join(path, std::to_string(index++)))) return false;
      } while (Consume(','));
      return Consume(']');
    }
    if (c == '"') {
      std::string value;
      if (!String(&value)) return false;
      out_->strings[path] = value;
      return true;
    }
    for (const std::string_view literal : {"true", "false", "null"}) {
      if (text_.substr(pos_, literal.size()) == literal) {
        pos_ += literal.size();
        if (literal != "null") out_->numbers[path] = literal == "true";
        return true;
      }
    }
    const std::string rest(text_.substr(pos_, 64));
    char* end = nullptr;
    const double number = std::strtod(rest.c_str(), &end);
    if (end == rest.c_str()) return false;
    pos_ += static_cast<size_t>(end - rest.c_str());
    out_->numbers[path] = number;
    return true;
  }

  std::string_view text_;
  size_t pos_ = 0;
  FlatJson* out_;
};

}  // namespace

double FlatJson::Number(const std::string& path, double fallback) const {
  const auto it = numbers.find(path);
  return it == numbers.end() ? fallback : it->second;
}

bool ParseFlatJson(std::string_view text, FlatJson* out) {
  *out = FlatJson{};
  return Parser(text, out).Run();
}

}  // namespace adrdedup::bench::e2e

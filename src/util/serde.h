// Exact-round-trip token serialization for the engine's disk cache.
//
// A document is a flat sequence of space-separated tokens: integers
// (decimal), doubles (C99 %a hex-floats, which round-trip bit-exactly
// through strtod), and length-prefixed strings ("5:hello") that may contain
// any byte, including spaces and newlines. Writer and Reader invert each
// other exactly. Reader never throws: malformed input sets fail() and
// subsequent reads return zero values, so callers validate once at the end
// (the cache store treats any failure as a cold start).
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>

namespace mbs::util::serde {

class Writer {
 public:
  void put_int(std::int64_t v) {
    sep();
    out_ += std::to_string(v);
  }

  void put_double(double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%a", v);
    sep();
    out_ += buf;
  }

  void put_string(std::string_view s) {
    sep();
    out_ += std::to_string(s.size());
    out_ += ':';
    out_.append(s.data(), s.size());
  }

  const std::string& str() const { return out_; }

 private:
  void sep() {
    if (!out_.empty()) out_.push_back(' ');
  }

  std::string out_;
};

class Reader {
 public:
  explicit Reader(std::string_view text) : text_(text) {}

  std::int64_t read_int() {
    const std::string tok(token());
    if (fail_) return 0;
    char* end = nullptr;
    const long long v = std::strtoll(tok.c_str(), &end, 10);
    if (end != tok.c_str() + tok.size() || tok.empty()) fail_ = true;
    return fail_ ? 0 : static_cast<std::int64_t>(v);
  }

  double read_double() {
    const std::string tok(token());
    if (fail_) return 0;
    char* end = nullptr;
    const double v = std::strtod(tok.c_str(), &end);
    if (end != tok.c_str() + tok.size() || tok.empty()) fail_ = true;
    return fail_ ? 0 : v;
  }

  std::string read_string() {
    skip_ws();
    std::size_t len = 0;
    bool any_digit = false;
    while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
      // No in-bounds length exceeds the document size; capping here keeps
      // the accumulation from overflowing and wrapping the bounds check.
      if (len > text_.size()) {
        fail_ = true;
        return {};
      }
      len = len * 10 + static_cast<std::size_t>(text_[pos_++] - '0');
      any_digit = true;
    }
    if (!any_digit || len > text_.size() || pos_ >= text_.size() ||
        text_[pos_] != ':' || pos_ + 1 + len > text_.size()) {
      fail_ = true;
      return {};
    }
    ++pos_;  // ':'
    std::string out(text_.substr(pos_, len));
    pos_ += len;
    return out;
  }

  bool fail() const { return fail_; }
  /// Marks a well-formed document whose values the caller cannot accept.
  void reject() { fail_ = true; }

  bool at_end() {
    skip_ws();
    return pos_ >= text_.size();
  }

 private:
  std::string_view token() {
    skip_ws();
    const std::size_t start = pos_;
    while (pos_ < text_.size() && !is_ws(text_[pos_])) ++pos_;
    if (pos_ == start) fail_ = true;
    return text_.substr(start, pos_ - start);
  }

  void skip_ws() {
    while (pos_ < text_.size() && is_ws(text_[pos_])) ++pos_;
  }

  static bool is_ws(char c) { return c == ' ' || c == '\n'; }

  std::string_view text_;
  std::size_t pos_ = 0;
  bool fail_ = false;
};

}  // namespace mbs::util::serde

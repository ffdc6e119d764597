#include "engine/result_sink.h"

#include <cstdio>
#include <cstdlib>
#include <ostream>
#include <sstream>
#include <utility>

#include "util/fault.h"

namespace mbs::engine {

namespace {

void write_json_string(std::ostream& os, const std::string& s) {
  os << '"';
  for (char c : s) {
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\r': os << "\\r"; break;
      case '\t': os << "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          os << buf;
        } else {
          os << c;
        }
    }
  }
  os << '"';
}

void write_json_row(std::ostream& os, const std::vector<std::string>& row) {
  os << '[';
  for (std::size_t i = 0; i < row.size(); ++i) {
    if (i) os << ',';
    write_json_string(os, row[i]);
  }
  os << ']';
}

}  // namespace

ResultSink::ResultSink(std::string title, std::vector<std::string> headers)
    : title_(std::move(title)), table_(std::move(headers)) {}

void ResultSink::add_row(std::vector<std::string> cells) {
  table_.add_row(std::move(cells));
}

void ResultSink::print(std::ostream& os) const {
  if (!title_.empty()) os << "--- " << title_ << " ---\n";
  table_.print(os);
}

void ResultSink::write_csv(std::ostream& os) const {
  table_.print_csv(os);  // RFC-4180 quoting lives on util::Table
}

void ResultSink::write_json(std::ostream& os) const {
  os << "{\"title\":";
  write_json_string(os, title_);
  os << ",\"headers\":";
  write_json_row(os, table_.headers());
  os << ",\"rows\":[";
  const auto& rows = table_.rows();
  for (std::size_t i = 0; i < rows.size(); ++i) {
    if (i) os << ',';
    write_json_row(os, rows[i]);
  }
  os << "]}\n";
}

bool ResultSink::export_files(const std::string& stem) const {
  const char* dir = std::getenv("MBS_RESULT_DIR");
  if (!dir || !*dir) return false;
  const std::string base = std::string(dir) + "/" + stem;
  // Atomic writes (tmp + rename via util::fs): a crash or injected fault
  // mid-export can never leave a half-written file where a byte-identity
  // check would read it.
  std::ostringstream csv;
  write_csv(csv);
  if (!util::fs::write_atomic(base + ".csv", csv.str(),
                              "sink.export.write")) {
    std::fprintf(stderr, "ResultSink: cannot write %s.csv (MBS_RESULT_DIR)\n",
                 base.c_str());
    return false;
  }
  std::ostringstream json;
  write_json(json);
  if (!util::fs::write_atomic(base + ".json", json.str(),
                              "sink.export.write")) {
    std::fprintf(stderr, "ResultSink: cannot write %s.json (MBS_RESULT_DIR)\n",
                 base.c_str());
    return false;
  }
  return true;
}

}  // namespace mbs::engine

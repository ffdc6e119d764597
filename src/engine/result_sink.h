// ResultSink: structured output for sweep results.
//
// Collects string rows once and renders them three ways: the aligned
// console table every bench prints (via util::Table), RFC-4180-style CSV,
// and a JSON document — the latter two for bench-trajectory tooling that
// tracks figure reproductions across commits. Set MBS_RESULT_DIR to make
// every bench drop <dir>/<stem>.csv and <dir>/<stem>.json next to its
// console output.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "util/table.h"

namespace mbs::engine {

class ResultSink {
 public:
  ResultSink(std::string title, std::vector<std::string> headers);

  /// Appends a row; padded/truncated to the header width by util::Table.
  void add_row(std::vector<std::string> cells);

  const std::string& title() const { return title_; }
  const util::Table& table() const { return table_; }
  std::size_t row_count() const { return table_.row_count(); }

  /// Console rendering: "--- title ---" followed by the aligned table.
  void print(std::ostream& os) const;

  /// CSV: header row then data rows; cells containing a comma, quote or
  /// newline are double-quoted with embedded quotes doubled.
  void write_csv(std::ostream& os) const;

  /// JSON: {"title": ..., "headers": [...], "rows": [[...], ...]} with all
  /// cells as strings.
  void write_json(std::ostream& os) const;

  /// When the MBS_RESULT_DIR environment variable is set, writes
  /// <dir>/<stem>.csv and <dir>/<stem>.json. Returns true if files were
  /// written.
  bool export_files(const std::string& stem) const;

 private:
  std::string title_;
  util::Table table_;
};

}  // namespace mbs::engine

#include "src/data/csv.h"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <vector>

#include "src/obs/obs.h"

namespace xfair {
namespace {

/// Splits one CSV record per RFC 4180: fields separated by commas, a field
/// may be double-quoted, and a quoted field may contain commas and escaped
/// quotes (""). A trailing CR (from CRLF line endings) is stripped before
/// parsing. Malformed quoting — an unterminated quoted field, or a quote
/// inside an unquoted field — is an InvalidArgument; callers append the
/// line number.
Result<std::vector<std::string>> SplitCsvLine(std::string line) {
  if (!line.empty() && line.back() == '\r') line.pop_back();
  std::vector<std::string> out;
  std::string cell;
  bool in_quotes = false;
  bool cell_was_quoted = false;
  for (size_t i = 0; i < line.size(); ++i) {
    const char ch = line[i];
    if (in_quotes) {
      if (ch == '"') {
        if (i + 1 < line.size() && line[i + 1] == '"') {
          cell += '"';  // Escaped quote inside a quoted field.
          ++i;
        } else {
          in_quotes = false;
        }
      } else {
        cell += ch;
      }
    } else if (ch == '"') {
      if (!cell.empty() || cell_was_quoted) {
        return Status::InvalidArgument(
            "unexpected '\"' inside unquoted field");
      }
      in_quotes = true;
      cell_was_quoted = true;
    } else if (ch == ',') {
      out.push_back(std::move(cell));
      cell.clear();
      cell_was_quoted = false;
    } else {
      if (cell_was_quoted) {
        return Status::InvalidArgument(
            "unexpected character after closing '\"'");
      }
      cell += ch;
    }
  }
  if (in_quotes) {
    return Status::InvalidArgument("unterminated quoted field");
  }
  out.push_back(std::move(cell));
  return out;
}

/// Parses the cell at (`lineno`, `column`). Rejects text that is not a
/// finite double, naming the line and column: nan and inf parse, but no
/// fit or metric downstream has a meaning for them.
Result<double> ParseDouble(const std::string& s, size_t lineno,
                           const std::string& column) {
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  const bool parsed = end != s.c_str() && *end == '\0' && errno != ERANGE;
  if (parsed && std::isfinite(v)) return v;
  return Status::InvalidArgument(
      (parsed ? "non-finite value '" + s + "'"
              : "cannot parse '" + s + "' as double") +
      " at line " + std::to_string(lineno) + ", column '" + column + "'");
}

}  // namespace

namespace {

/// Quotes a header cell when it contains a comma, quote, or CR/LF, per
/// RFC 4180, so WriteCsv output always round-trips through ReadCsv.
std::string QuoteIfNeeded(const std::string& cell) {
  if (cell.find_first_of(",\"\r\n") == std::string::npos) return cell;
  std::string quoted = "\"";
  for (char ch : cell) {
    if (ch == '"') quoted += '"';
    quoted += ch;
  }
  quoted += '"';
  return quoted;
}

}  // namespace

Status WriteCsv(const Dataset& data, const std::string& path) {
  std::ofstream out(path);
  if (!out) return Status::NotFound("cannot open for write: " + path);
  for (size_t c = 0; c < data.num_features(); ++c)
    out << QuoteIfNeeded(data.schema().feature(c).name) << ",";
  out << "label,group\n";
  for (size_t r = 0; r < data.size(); ++r) {
    for (size_t c = 0; c < data.num_features(); ++c)
      out << data.x().At(r, c) << ",";
    out << data.label(r) << "," << data.group(r) << "\n";
  }
  out.close();  // Flushes: a full disk often fails only here.
  if (out.fail()) return Status::Internal("write failed: " + path);
  return Status::OK();
}

Result<Dataset> ReadCsv(const Schema& schema, const std::string& path) {
  XFAIR_SPAN("data/read_csv");
  XFAIR_LATENCY_NS("latency/read_csv_ns");
  std::ifstream in(path);
  if (!in) return Status::NotFound("cannot open for read: " + path);
  std::string line;
  if (!std::getline(in, line))
    return Status::InvalidArgument("empty CSV: " + path);
  const size_t expected = schema.num_features() + 2;
  Result<std::vector<std::string>> header = SplitCsvLine(line);
  if (!header.ok()) {
    return Status::InvalidArgument(header.status().message() +
                                   " at line 1 in " + path);
  }
  if (header->size() != expected) {
    return Status::InvalidArgument("header width mismatch in " + path);
  }

  std::vector<Vector> rows;
  std::vector<int> labels, groups;
  size_t lineno = 1;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty() || line == "\r") continue;
    Result<std::vector<std::string>> split = SplitCsvLine(line);
    if (!split.ok()) {
      return Status::InvalidArgument(split.status().message() + " at line " +
                                     std::to_string(lineno));
    }
    const std::vector<std::string>& cells = *split;
    if (cells.size() != expected) {
      return Status::InvalidArgument("row width mismatch at line " +
                                     std::to_string(lineno));
    }
    Vector row(schema.num_features());
    for (size_t c = 0; c < schema.num_features(); ++c) {
      Result<double> v = ParseDouble(cells[c], lineno, (*header)[c]);
      if (!v.ok()) return v.status();
      row[c] = *v;
    }
    Result<double> yv =
        ParseDouble(cells[expected - 2], lineno, (*header)[expected - 2]);
    Result<double> gv =
        ParseDouble(cells[expected - 1], lineno, (*header)[expected - 1]);
    if (!yv.ok()) return yv.status();
    if (!gv.ok()) return gv.status();
    if ((*yv != 0.0 && *yv != 1.0) || (*gv != 0.0 && *gv != 1.0)) {
      return Status::InvalidArgument("label/group must be 0/1 at line " +
                                     std::to_string(lineno));
    }
    rows.push_back(std::move(row));
    labels.push_back(static_cast<int>(*yv));
    groups.push_back(static_cast<int>(*gv));
  }
  if (rows.empty()) return Status::InvalidArgument("no data rows in " + path);
  return Dataset(schema, Matrix::FromRows(rows), std::move(labels),
                 std::move(groups));
}

Result<Schema> InferSchemaFromCsv(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::NotFound("cannot open for read: " + path);
  std::string line;
  if (!std::getline(in, line))
    return Status::InvalidArgument("empty CSV: " + path);
  Result<std::vector<std::string>> header_r = SplitCsvLine(line);
  if (!header_r.ok()) {
    return Status::InvalidArgument(header_r.status().message() +
                                   " at line 1 in " + path);
  }
  const std::vector<std::string>& header = *header_r;
  if (header.size() < 3 || header[header.size() - 2] != "label" ||
      header.back() != "group") {
    return Status::InvalidArgument(
        "header must end with 'label,group' in " + path);
  }
  const size_t d = header.size() - 2;

  std::vector<double> lo(d, 1e300), hi(d, -1e300);
  std::vector<bool> binary(d, true);
  size_t lineno = 1;
  size_t rows = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty() || line == "\r") continue;
    Result<std::vector<std::string>> split = SplitCsvLine(line);
    if (!split.ok()) {
      return Status::InvalidArgument(split.status().message() + " at line " +
                                     std::to_string(lineno));
    }
    const std::vector<std::string>& cells = *split;
    if (cells.size() != header.size()) {
      return Status::InvalidArgument("row width mismatch at line " +
                                     std::to_string(lineno));
    }
    for (size_t c = 0; c < d; ++c) {
      Result<double> v = ParseDouble(cells[c], lineno, header[c]);
      if (!v.ok()) return v.status();
      lo[c] = std::min(lo[c], *v);
      hi[c] = std::max(hi[c], *v);
      if (*v != 0.0 && *v != 1.0) binary[c] = false;
    }
    ++rows;
  }
  if (rows == 0) return Status::InvalidArgument("no data rows in " + path);

  std::vector<FeatureSpec> specs(d);
  int sensitive = -1;
  for (size_t c = 0; c < d; ++c) {
    specs[c].name = header[c];
    specs[c].kind = binary[c] ? FeatureKind::kBinary : FeatureKind::kNumeric;
    specs[c].actionability = Actionability::kAny;
    const double pad = binary[c] ? 0.0 : 0.1 * (hi[c] - lo[c]);
    specs[c].lower = lo[c] - pad;
    specs[c].upper = hi[c] + pad;
    if (header[c] == "protected") {
      sensitive = static_cast<int>(c);
      specs[c].actionability = Actionability::kImmutable;
    }
  }
  return Schema(std::move(specs), sensitive);
}

}  // namespace xfair

#include "src/data/csv.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <fstream>
#include <string_view>
#include <vector>

#include "src/obs/obs.h"

namespace xfair {
namespace {

/// A CSV in WriteCsv layout that passed every check: `header` holds the d
/// feature names followed by "label" and "group", `x` the features
/// row-major (rows x d).
struct ParsedCsv {
  std::vector<std::string> header;
  std::vector<double> x;
  std::vector<int> labels, groups;
};

/// Splits one CSV record per RFC 4180 into `cells`: fields separated by
/// commas, a field may be double-quoted and then contain commas and
/// escaped quotes (""). Unquoted cells view `line`; quoted ones are
/// unescaped into `unquoted`, reserved up front so no view moves. Returns
/// the malformed-quoting message, or nullptr; `cells->size()` is then the
/// index of the offending cell.
const char* SplitLine(std::string_view line, std::string* unquoted,
                      std::vector<std::string_view>* cells) {
  cells->clear();
  unquoted->clear();
  unquoted->reserve(line.size());
  for (size_t i = 0;; ++i) {  // i is at a cell's first byte.
    if (i < line.size() && line[i] == '"') {
      const size_t start = unquoted->size();
      while (true) {
        if (++i == line.size()) return "unterminated quoted field";
        // A quote closes the field unless it is the first of a "" pair.
        if (line[i] == '"' && (++i == line.size() || line[i] != '"')) break;
        unquoted->push_back(line[i]);
      }
      if (i < line.size() && line[i] != ',')
        return "unexpected character after closing '\"'";
      cells->emplace_back(unquoted->data() + start, unquoted->size() - start);
    } else {
      const size_t end = std::min(line.find(',', i), line.size());
      if (line.substr(i, end - i).find('"') != std::string_view::npos)
        return "unexpected '\"' inside unquoted field";
      cells->push_back(line.substr(i, end - i));
      i = end;
    }
    if (i == line.size()) return nullptr;
  }
}

/// Parses `cell` into `*v` with strtod's decimal grammar: leading
/// whitespace and one '+' are skipped, the rest must be a whole decimal
/// number (no hex), and the value must be finite. Returns the error text,
/// or "" on success.
std::string ParseCell(std::string_view cell, double* v) {
  std::string_view s = cell;
  s.remove_prefix(std::min(s.find_first_not_of(" \t\n\v\f\r"), s.size()));
  if (s.starts_with('+') && !s.starts_with("+-")) s.remove_prefix(1);
  const auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), *v);
  if (ec != std::errc() || end != s.data() + s.size())
    return "cannot parse '" + std::string(cell) + "' as double";
  if (!std::isfinite(*v)) return "non-finite value '" + std::string(cell) + "'";
  return "";
}

/// " at line N, column 'name'", or the column's 1-based number when the
/// header does not name it.
std::string Where(size_t lineno, const std::vector<std::string>& header,
                  size_t c) {
  return " at line " + std::to_string(lineno) + ", column " +
         (c < header.size() ? "'" + header[c] + "'" : std::to_string(c + 1));
}

/// The one CSV reader behind ReadCsv and InferSchemaFromCsv: reads `path`
/// line by line and runs every check in file order.
Result<ParsedCsv> ParseCsv(const std::string& path) {
  XFAIR_SPAN("data/read_csv");
  XFAIR_LATENCY_NS("latency/read_csv_ns");
  std::ifstream in(path);
  if (!in) return Status::NotFound("cannot open for read: " + path);
  ParsedCsv out;
  std::string line, unquoted;
  std::vector<std::string_view> cells;
  for (size_t lineno = 1; std::getline(in, line); ++lineno) {
    std::string_view text = line;
    if (text.ends_with('\r')) text.remove_suffix(1);
    if (lineno > 1 && text.empty()) continue;
    if (const char* error = SplitLine(text, &unquoted, &cells))
      return Status::InvalidArgument(error + Where(lineno, out.header,
                                                   cells.size()));
    if (lineno == 1) {
      if (cells.size() < 3 || cells[cells.size() - 2] != "label" ||
          cells.back() != "group") {
        return Status::InvalidArgument(
            "header must end with 'label,group' at line 1 in " + path);
      }
      out.header.assign(cells.begin(), cells.end());
      continue;
    }
    if (cells.size() != out.header.size()) {
      return Status::InvalidArgument(
          "row width mismatch at line " + std::to_string(lineno) + ": " +
          std::to_string(cells.size()) + " cells, header has " +
          std::to_string(out.header.size()));
    }
    const size_t d = cells.size() - 2;
    for (size_t c = 0; c < cells.size(); ++c) {
      double v = 0.0;
      std::string error = ParseCell(cells[c], &v);
      if (error.empty() && c >= d && v != 0.0 && v != 1.0)
        error = "value '" + std::string(cells[c]) + "' must be 0/1";
      if (!error.empty())
        return Status::InvalidArgument(error + Where(lineno, out.header, c));
      if (c < d) out.x.push_back(v);
      else (c == d ? out.labels : out.groups).push_back(static_cast<int>(v));
    }
  }
  if (out.header.empty()) return Status::InvalidArgument("empty CSV: " + path);
  if (out.labels.empty())
    return Status::InvalidArgument("no data rows in " + path);
  return out;
}

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
  Result<ParsedCsv> csv = ParseCsv(path);
  if (!csv.ok()) return csv.status();
  const size_t d = schema.num_features();
  if (csv->header.size() != d + 2) {
    return Status::InvalidArgument(
        "header width mismatch at line 1 in " + path + ": " +
        std::to_string(csv->header.size() - 2) + " features, schema has " +
        std::to_string(d));
  }
  Matrix x(csv->labels.size(), d);
  std::copy(csv->x.begin(), csv->x.end(), x.RowPtr(0));
  return Dataset(schema, std::move(x), std::move(csv->labels),
                 std::move(csv->groups));
}

Result<Schema> InferSchemaFromCsv(const std::string& path) {
  Result<ParsedCsv> csv = ParseCsv(path);
  if (!csv.ok()) return csv.status();
  const std::vector<std::string>& header = csv->header;
  const std::vector<double>& x = csv->x;
  const size_t d = header.size() - 2;
  std::vector<FeatureSpec> specs(d);
  int sensitive = -1;
  for (size_t c = 0; c < d; ++c) {
    double lo = x[c], hi = lo;
    bool binary = true;
    for (size_t i = c; i < x.size(); i += d) {  // Column c, row by row.
      lo = std::min(lo, x[i]);
      hi = std::max(hi, x[i]);
      binary = binary && (x[i] == 0.0 || x[i] == 1.0);
    }
    specs[c].name = header[c];
    specs[c].kind = binary ? FeatureKind::kBinary : FeatureKind::kNumeric;
    specs[c].actionability = Actionability::kAny;
    const double pad = binary ? 0.0 : 0.1 * (hi - lo);
    specs[c].lower = lo - pad;
    specs[c].upper = hi + pad;
    if (!std::isfinite(specs[c].lower) || !std::isfinite(specs[c].upper) ||
        !std::isfinite(specs[c].upper - specs[c].lower)) {
      return Status::InvalidArgument("inferred bounds of column '" +
                                     header[c] + "' are not finite in " +
                                     path);
    }
    if (header[c] == "protected") {
      sensitive = static_cast<int>(c);
      specs[c].actionability = Actionability::kImmutable;
    }
  }
  return Schema(std::move(specs), sensitive);
}

}  // namespace xfair

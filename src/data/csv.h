// CSV import/export for Dataset, so users can run xfair on their own
// tabular data (e.g. the real COMPAS/Adult extracts the surveyed papers
// use).
//
// ReadCsv and InferSchemaFromCsv share one reader and one contract, so each
// rejects exactly the files the other rejects:
//   * Lines: the first is the header, blank lines are skipped, CRLF endings
//     are accepted. Fields follow RFC 4180: a field may be double-quoted
//     and then contain commas and escaped quotes (""), but not a line
//     break.
//   * Shape: the header names the features and ends with "label,group";
//     every row has the header's width and there is at least one row.
//   * Cells use strtod's decimal grammar, parsed with std::from_chars:
//     leading whitespace and one '+' are skipped, and the rest must be one
//     whole decimal number ("1e5", ".5", "5.", "-0" keeps its sign). Hex,
//     trailing bytes and NUL bytes fail. Values must be finite: subnormals
//     such as 1e-310 parse, while 1e309, 1e-400, nan and inf fail.
//   * Label and group cells must be 0 or 1.
// A failure is an InvalidArgument naming the line, and for a cell also
// its column; a file that cannot be opened is NotFound.

#ifndef XFAIR_DATA_CSV_H_
#define XFAIR_DATA_CSV_H_

#include <string>

#include "src/data/dataset.h"
#include "src/util/status.h"

namespace xfair {

/// Writes `data` as CSV: one header row of feature names (quoted per
/// RFC 4180 where needed) plus "label" and "group" columns. Values carry
/// the stream default of 6 significant digits, so ReadCsv(WriteCsv(d))
/// equals `d` only to that precision.
Status WriteCsv(const Dataset& data, const std::string& path);

/// Reads a CSV in WriteCsv layout under the contract above; the header
/// must also have `schema.num_features()` feature columns.
Result<Dataset> ReadCsv(const Schema& schema, const std::string& path);

/// Infers a workable schema from a CSV in WriteCsv layout, under the
/// contract above: feature names from the header, kBinary for columns
/// whose values are all 0/1 and kNumeric otherwise, bounds from the
/// observed min/max (padded 10%), all features actionable, and the
/// sensitive index set to a feature named "protected" if present (else
/// -1). A column whose padded bounds or range overflow the double range
/// is InvalidArgument. Intended for auditing external data where no
/// hand-written schema exists; tighten the result by hand for recourse
/// work.
Result<Schema> InferSchemaFromCsv(const std::string& path);

}  // namespace xfair

#endif  // XFAIR_DATA_CSV_H_

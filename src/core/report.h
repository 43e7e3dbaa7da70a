// One-call audit report: runs the standard fairness audit plus the three
// §IV explanation directions on a (model, dataset) pair and renders a
// single markdown-ish document. This is the "communicate fairness issues
// to stakeholders" objective the paper's introduction lists ([10]'s first
// objective), packaged as an API.

#ifndef XFAIR_CORE_REPORT_H_
#define XFAIR_CORE_REPORT_H_

#include <string>

#include "src/data/dataset.h"
#include "src/model/model.h"

namespace xfair {

/// Options for WriteAuditReport.
struct AuditReportOptions {
  /// Seed for the stochastic components (CF search, Shapley sampling).
  uint64_t seed = 2024;
  /// Number of FACTS subgroups to list.
  size_t top_subgroups = 3;
  /// Skip the counterfactual sections (burden, FACTS) for very large
  /// datasets where CF search is too slow.
  bool include_counterfactual_sections = true;
};

/// Renders a complete fairness audit of `model` on `data` as a markdown
/// document: group metrics, counterfactual burden, the top parity-gap
/// contributors (fairness Shapley), the worst recourse-bias subgroups
/// (FACTS), and the utility-fairness-explainability tradeoff score.
std::string WriteAuditReport(const Model& model, const Dataset& data,
                             const AuditReportOptions& options = {});

}  // namespace xfair

#endif  // XFAIR_CORE_REPORT_H_

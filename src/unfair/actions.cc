#include "src/unfair/actions.h"

#include <algorithm>
#include <cmath>

#include "src/util/kernels.h"
#include "src/util/parallel.h"
#include "src/util/table.h"

namespace xfair {

Discretizer::Discretizer(const Dataset& data, size_t bins) {
  XFAIR_CHECK(bins >= 2);
  XFAIR_CHECK(data.size() > 0);
  const size_t d = data.num_features();
  edges_.resize(d);
  representatives_.resize(d);
  for (size_t f = 0; f < d; ++f) {
    Vector col = data.x().Col(f);
    std::sort(col.begin(), col.end());
    Vector distinct;
    for (double v : col)
      if (distinct.empty() || v != distinct.back()) distinct.push_back(v);
    const size_t k = std::min(bins, distinct.size());
    if (k <= 1) {
      representatives_[f] = {distinct.empty() ? 0.0 : distinct[0]};
      continue;
    }
    // Quantile edges between k bins; dedupe collapsed edges.
    Vector edges;
    for (size_t b = 1; b < k; ++b) {
      const double q = static_cast<double>(b) / static_cast<double>(k);
      const double e = col[static_cast<size_t>(
          q * static_cast<double>(col.size() - 1))];
      if (edges.empty() || e > edges.back()) edges.push_back(e);
    }
    edges_[f] = edges;
    // Representative of each bin: median of members.
    const size_t nb = edges.size() + 1;
    representatives_[f].resize(nb);
    for (size_t b = 0; b < nb; ++b) {
      Vector members;
      for (double v : col) {
        if (BinOf(f, v) == b) members.push_back(v);
      }
      representatives_[f][b] =
          members.empty()
              ? (b < edges.size() ? edges[b] : col.back())
              : members[members.size() / 2];
    }
  }
}

size_t Discretizer::NumBins(size_t feature) const {
  XFAIR_CHECK(feature < representatives_.size());
  return representatives_[feature].size();
}

size_t Discretizer::BinOf(size_t feature, double value) const {
  XFAIR_CHECK(feature < edges_.size());
  const Vector& edges = edges_[feature];
  size_t bin = 0;
  while (bin < edges.size() && value > edges[bin]) ++bin;
  return bin;
}

double Discretizer::Representative(size_t feature, size_t bin) const {
  XFAIR_CHECK(feature < representatives_.size());
  XFAIR_CHECK(bin < representatives_[feature].size());
  return representatives_[feature][bin];
}

std::string Discretizer::BinLabel(const Schema& schema, size_t feature,
                                  size_t bin) const {
  XFAIR_CHECK(feature < edges_.size());
  const Vector& edges = edges_[feature];
  XFAIR_CHECK(bin <= edges.size());
  const std::string& name = schema.feature(feature).name;
  if (edges.empty()) return name + " = any";
  if (bin == 0) return name + " <= " + FormatDouble(edges[0], 2);
  if (bin == edges.size())
    return name + " > " + FormatDouble(edges.back(), 2);
  return name + " in (" + FormatDouble(edges[bin - 1], 2) + ", " +
         FormatDouble(edges[bin], 2) + "]";
}

std::string Discretizer::Describe(const Schema& schema,
                                  const Conditions& conditions) const {
  std::string out;
  for (size_t k = 0; k < conditions.size(); ++k) {
    if (k > 0) out += " AND ";
    out += BinLabel(schema, conditions[k].first, conditions[k].second);
  }
  return out;
}

bool Action::ApplicableTo(const Schema& schema, const Vector& x) const {
  XFAIR_CHECK(feature < x.size());
  return schema.MoveAllowed(feature, target_value - x[feature]);
}

Vector Action::ApplyTo(const Vector& x) const {
  XFAIR_CHECK(feature < x.size());
  Vector out = x;
  out[feature] = target_value;
  return out;
}

double Action::Cost(const Schema& schema, const Vector& x) const {
  XFAIR_CHECK(feature < x.size());
  return std::fabs(target_value - x[feature]) /
         FeatureRange(schema.feature(feature));
}

std::string Action::ToString(const Schema& schema) const {
  return schema.feature(feature).name + " := " +
         FormatDouble(target_value, 2);
}

bool CompositeAction::ApplicableTo(const Schema& schema,
                                   const Vector& x) const {
  for (const auto& a : actions)
    if (!a.ApplicableTo(schema, x)) return false;
  return true;
}

Vector CompositeAction::ApplyTo(const Vector& x) const {
  Vector out = x;
  for (const auto& a : actions) {
    XFAIR_CHECK(a.feature < out.size());
    out[a.feature] = a.target_value;
  }
  return out;
}

double CompositeAction::Cost(const Schema& schema, const Vector& x) const {
  double cost = 0.0;
  for (const auto& a : actions) cost += a.Cost(schema, x);
  return cost;
}

std::string CompositeAction::ToString(const Schema& schema) const {
  if (actions.empty()) return "(no-op)";
  std::string out;
  for (size_t i = 0; i < actions.size(); ++i) {
    if (i > 0) out += ", ";
    out += actions[i].ToString(schema);
  }
  return out;
}

std::vector<Action> EnumerateActions(const Schema& schema,
                                     const Discretizer& disc) {
  std::vector<Action> out;
  for (size_t f = 0; f < schema.num_features(); ++f) {
    if (schema.feature(f).actionability == Actionability::kImmutable)
      continue;
    for (size_t b = 0; b < disc.NumBins(f); ++b) {
      out.push_back({f, disc.Representative(f, b)});
    }
  }
  return out;
}

ActionFlips ScoreActions(const Model& model, const Dataset& data,
                         const std::vector<size_t>& rows,
                         const std::vector<CompositeAction>& actions,
                         int target_class) {
  const size_t d = data.num_features();
  const size_t tiles = (rows.size() + kActionTileRows - 1) / kActionTileRows;
  ActionFlips out;
  out.bits.assign(actions.size(),
                  std::vector<uint64_t>((rows.size() + 63) / 64, 0));
  std::vector<size_t> scored(actions.size() * tiles, 0);
  ParallelFor(0, actions.size() * tiles, [&](size_t job) {
    const CompositeAction& action = actions[job / tiles];
    const size_t begin = (job % tiles) * kActionTileRows;
    const size_t end = std::min(rows.size(), begin + kActionTileRows);
    std::vector<size_t> at;  // Tile positions the action applies to.
    Vector x, moved;         // moved: those rows with the action applied.
    for (size_t k = begin; k < end; ++k) {
      x.assign(data.x().RowPtr(rows[k]), data.x().RowPtr(rows[k]) + d);
      if (!action.ApplicableTo(data.schema(), x)) continue;
      for (const Action& a : action.actions) x[a.feature] = a.target_value;
      moved.insert(moved.end(), x.begin(), x.end());
      at.push_back(k);
    }
    if (at.empty()) return;
    Matrix tile(at.size(), d);
    std::copy(moved.begin(), moved.end(), tile.RowPtr(0));
    const std::vector<int> predicted = model.PredictBatch(tile);
    uint64_t* bits = out.bits[job / tiles].data();
    for (size_t m = 0; m < at.size(); ++m) {
      if (predicted[m] == target_class)
        bits[at[m] >> 6] |= uint64_t{1} << (at[m] & 63);
    }
    scored[job] = at.size();
  });
  for (size_t s : scored) out.rows_scored += s;
  return out;
}

double ActionEffectiveness(const Model& model, const Dataset& data,
                           const std::vector<size_t>& instances,
                           const CompositeAction& action, int target_class) {
  if (instances.empty()) return 0.0;
  const std::vector<uint64_t> flipped =
      ScoreActions(model, data, instances, {action}, target_class).bits[0];
  return static_cast<double>(
             kernels::PopcountU64(flipped.data(), flipped.size())) /
         static_cast<double>(instances.size());
}

double ActionMeanCost(const Dataset& data,
                      const std::vector<size_t>& instances,
                      const CompositeAction& action) {
  double total = 0.0;
  size_t applicable = 0;
  for (size_t i : instances) {
    const Vector x = data.instance(i);
    if (!action.ApplicableTo(data.schema(), x)) continue;
    total += action.Cost(data.schema(), x);
    ++applicable;
  }
  return applicable == 0 ? 0.0 : total / static_cast<double>(applicable);
}

}  // namespace xfair

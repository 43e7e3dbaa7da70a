// Looped references for the subgroup searches of src/unfair/ (paper
// §IV-B): Gopher's pattern scoring and WorstSliceSearch. Each walks the
// conjunction lattice level by level with apriori pruning, in the
// canonical order LatticeWalk uses, and scores every candidate with its
// own row scan. The library's vertical-bitset engine must match them at
// 0 ulp (DESIGN.md §11). Linked by the tests and the benches
// (xfair_oracles), never by the library.

#ifndef XFAIR_TESTS_ORACLES_SUBGROUP_ORACLE_H_
#define XFAIR_TESTS_ORACLES_SUBGROUP_ORACLE_H_

#include "src/unfair/gopher.h"
#include "src/unfair/slice_search.h"

namespace xfair::oracles {

/// ExplainUnfairnessByPatterns with one row scan per candidate over an
/// instance-major bin table: each candidate's mask is built bit by bit
/// and reduced with the scalar reference masked sum, so its estimate is
/// the engine's to the bit. Nothing is pruned: options.optimistic_prune
/// is ignored and bound_pruned stays 0. candidates_scored counts every
/// single, the infrequent ones included.
Result<GopherReport> ExplainUnfairnessByPatternsLooped(
    const LogisticRegression& model, const Dataset& train,
    const GopherOptions& options);

/// WorstSliceSearch with every candidate scored by a per-row scan of the
/// raw data, binned with Discretizer::BinOf. lattice_candidates counts
/// every single, the infrequent ones included.
WorstSliceReport WorstSliceSearchLooped(const Model& model,
                                        const Dataset& data,
                                        const SliceSearchOptions& options);

}  // namespace xfair::oracles

#endif  // XFAIR_TESTS_ORACLES_SUBGROUP_ORACLE_H_

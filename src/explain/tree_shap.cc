#include "src/explain/tree_shap.h"

#include <algorithm>
#include <array>
#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "src/obs/obs.h"
#include "src/util/kernels.h"
#include "src/util/parallel.h"

// The thresholded sweep's compare-pack kernel gets an AVX2 body when SIMD
// is enabled (-DXFAIR_SIMD=ON -> XFAIR_SIMD_ENABLED) on an x86-64
// toolchain, selected at runtime via cpuid like src/util/kernels.cc. The
// kernel only packs boolean compare results into integer bitmasks — no
// floating-point arithmetic — so the scalar and AVX2 bodies are trivially
// bit-identical.
#if defined(XFAIR_SIMD_ENABLED) && defined(__x86_64__)
#define XFAIR_TREE_SHAP_AVX2 1
#include <immintrin.h>
#endif

namespace xfair {
namespace {

/// Paths may touch at most this many distinct features (factorial table
/// size; also keeps the closed-form weights inside double range).
constexpr size_t kMaxPathFeatures = 64;
constexpr double kInf = std::numeric_limits<double>::infinity();

/// Instances per SoA tile in the batch engine. Large enough to amortize
/// each tree walk's shared path bookkeeping across many instances, small
/// enough that a tile's columns and accumulators stay cache-resident.
constexpr size_t kBatchTile = 1024;

/// Leaf-delta memo width cap: tables are 2^m entries, so masks wider than
/// this fall back to direct per-instance computation.
constexpr size_t kMemoMaxBits = 12;

/// Node-conversion cache capacity (models, not nodes). Overflow clears
/// the whole map — simple, and refit churn past 64 live models means the
/// workload isn't explanation-serving anyway.
constexpr size_t kNodeCacheCap = 64;

/// Unified view of TreeNode / GbmNode for the walkers below.
struct ShapNode {
  int feature = -1;
  double threshold = 0.0;
  int left = -1, right = -1;
  double value = 0.0;  ///< Leaf output.
  double cover = 0.0;  ///< Training weight that reached the node.
};

std::vector<ShapNode> ToShapNodes(const std::vector<TreeNode>& nodes) {
  std::vector<ShapNode> out(nodes.size());
  for (size_t i = 0; i < nodes.size(); ++i) {
    out[i] = {nodes[i].feature, nodes[i].threshold, nodes[i].left,
              nodes[i].right,   nodes[i].proba,     nodes[i].weight};
  }
  return out;
}

std::vector<ShapNode> ToShapNodes(const std::vector<GbmNode>& nodes) {
  std::vector<ShapNode> out(nodes.size());
  for (size_t i = 0; i < nodes.size(); ++i) {
    out[i] = {nodes[i].feature, nodes[i].threshold, nodes[i].left,
              nodes[i].right,   nodes[i].value,     nodes[i].cover};
  }
  return out;
}

const double* Factorials() {
  static const std::array<double, kMaxPathFeatures + 1> table = [] {
    std::array<double, kMaxPathFeatures + 1> t{};
    t[0] = 1.0;
    for (size_t i = 1; i < t.size(); ++i) {
      t[i] = t[i - 1] * static_cast<double>(i);
    }
    return t;
  }();
  return table.data();
}

/// w_m[j] = j! (m-1-j)! for j < m — the Shapley weight numerators for a
/// path of m unique features, packed per m (row m at offset m(m-1)/2) so
/// the per-leaf weight reduction is a plain kernels::Dot against a
/// contiguous constant table. Requires m >= 1.
const double* FactWeights(size_t m) {
  static const std::vector<double>* flat = [] {
    auto* t =
        new std::vector<double>(kMaxPathFeatures * (kMaxPathFeatures + 1) / 2);
    const double* fact = Factorials();
    for (size_t rows = 1; rows <= kMaxPathFeatures; ++rows) {
      double* w = t->data() + (rows - 1) * rows / 2;
      for (size_t j = 0; j < rows; ++j) w[j] = fact[j] * fact[rows - 1 - j];
    }
    return t;
  }();
  return flat->data() + (m - 1) * m / 2;
}

// ---------------------------------------------------------------------------
// Cached node conversion.
//
// Every explainer entry point used to rebuild the unified ShapNode arrays
// from the model's nodes on each call. The conversion (plus per-tree path
// statistics the arenas are sized from) now runs once per fitted model:
// the cache key is (model address, fit id), and fit ids are process-unique
// (NextModelFitId), so neither a refit nor an address reused by a new
// model object can ever observe a stale entry.
// ---------------------------------------------------------------------------

/// Immutable per-model data shared by every walker: converted trees plus
/// the path statistics that size scratch arenas up front.
struct ShapModel {
  uint64_t fit_id = 0;
  std::vector<std::vector<ShapNode>> trees;
  int max_feature = -1;
  size_t max_unique_path = 0;  ///< Max distinct features on a root-leaf path.
  size_t max_path_len = 0;     ///< Max edges on a root-leaf path.
  size_t max_nodes = 0;        ///< Largest single tree (node count).
};

using ShapModelPtr = std::shared_ptr<const ShapModel>;

void AnalyzePaths(const std::vector<ShapNode>& nodes, int id,
                  std::vector<int>* feats, size_t depth, ShapModel* m) {
  const ShapNode& n = nodes[static_cast<size_t>(id)];
  if (n.feature < 0) {
    m->max_unique_path = std::max(m->max_unique_path, feats->size());
    m->max_path_len = std::max(m->max_path_len, depth);
    return;
  }
  const bool fresh =
      std::find(feats->begin(), feats->end(), n.feature) == feats->end();
  if (fresh) feats->push_back(n.feature);
  AnalyzePaths(nodes, n.left, feats, depth + 1, m);
  AnalyzePaths(nodes, n.right, feats, depth + 1, m);
  if (fresh) feats->pop_back();
}

ShapModel BuildShapModel(std::vector<std::vector<ShapNode>> trees,
                         uint64_t fit_id) {
  ShapModel m;
  m.fit_id = fit_id;
  m.trees = std::move(trees);
  std::vector<int> feats;
  for (const std::vector<ShapNode>& nodes : m.trees) {
    XFAIR_CHECK(!nodes.empty() && nodes[0].cover > 0.0);
    for (const ShapNode& n : nodes) m.max_feature = std::max(m.max_feature, n.feature);
    m.max_nodes = std::max(m.max_nodes, nodes.size());
    AnalyzePaths(nodes, 0, &feats, 0, &m);
  }
  XFAIR_CHECK_MSG(m.max_unique_path <= kMaxPathFeatures,
                  "tree path too deep for TreeSHAP");
  return m;
}

ShapModelPtr CachedShapModel(const void* object, uint64_t fit_id,
                             const std::function<ShapModel()>& build) {
  static std::mutex mu;
  static auto* cache =
      new std::unordered_map<const void*, ShapModelPtr>();
  {
    std::lock_guard<std::mutex> lock(mu);
    auto it = cache->find(object);
    if (it != cache->end() && it->second->fit_id == fit_id) {
      XFAIR_COUNTER_ADD("tree_shap/node_cache_hits", 1);
      return it->second;
    }
  }
  // Build outside the lock; concurrent first calls on the same model just
  // build twice and the last insert wins.
  auto built = std::make_shared<const ShapModel>(build());
  XFAIR_COUNTER_ADD("tree_shap/node_cache_builds", 1);
  std::lock_guard<std::mutex> lock(mu);
  if (cache->size() >= kNodeCacheCap) {
    XFAIR_COUNTER_ADD("tree_shap/node_cache_evictions", cache->size());
    cache->clear();
  }
  (*cache)[object] = built;
  return built;
}

ShapModelPtr ModelFor(const DecisionTree& tree) {
  return CachedShapModel(&tree, tree.fit_id(), [&tree] {
    std::vector<std::vector<ShapNode>> trees;
    trees.push_back(ToShapNodes(tree.nodes()));
    return BuildShapModel(std::move(trees), tree.fit_id());
  });
}

ShapModelPtr ModelFor(const RandomForest& forest) {
  return CachedShapModel(&forest, forest.fit_id(), [&forest] {
    std::vector<std::vector<ShapNode>> trees;
    trees.reserve(forest.trees().size());
    for (const DecisionTree& tree : forest.trees()) {
      trees.push_back(ToShapNodes(tree.nodes()));
    }
    return BuildShapModel(std::move(trees), forest.fit_id());
  });
}

ShapModelPtr ModelFor(const GradientBoostedTrees& gbm) {
  return CachedShapModel(&gbm, gbm.fit_id(), [&gbm] {
    std::vector<std::vector<ShapNode>> trees;
    trees.reserve(gbm.trees().size());
    for (const auto& tree : gbm.trees()) trees.push_back(ToShapNodes(tree));
    return BuildShapModel(std::move(trees), gbm.fit_id());
  });
}

// ---------------------------------------------------------------------------
// Path-dependent TreeSHAP.
//
// Per leaf, the EXPVALUE game restricted to the path's unique features is
//   v(S) = value * prod_f (f in S ? one_f : zero_f),
// with one_f = [x passes f's merged split interval] in {0, 1} and
// zero_f = product of f's cover ratios along the path (> 0). The Shapley
// weight sum for feature f needs the elementary symmetric polynomials of
// the *other* factors, obtained by convolving all factors once (O(m^2))
// and deconvolving one factor at a time (O(m) each).
// ---------------------------------------------------------------------------

/// One unique feature on the current root-to-node path.
struct PdEntry {
  int feature = -1;
  double lo = -kInf, hi = kInf;  ///< Pass iff lo < x[feature] <= hi.
  double zero = 1.0;             ///< Product of this feature's cover ratios.
};

struct PdScratch {
  std::vector<PdEntry> path;
  std::vector<double> ones;    ///< one_f per path entry, in path order.
  std::vector<double> c;       ///< Coefficients of prod (zero_f + one_f t).
  std::vector<double> cw;      ///< Coefficients with one factor removed.
  std::vector<double> deltas;  ///< Per-entry phi increment of one leaf.
};

/// Full product polynomial of the path factors, built factor by factor in
/// place: c[0..m] <- coefficients of prod_i (zero_i + one_i t).
void PdConv(const PdEntry* path, const double* ones, size_t m, double* c) {
  std::fill(c, c + m + 1, 0.0);
  c[0] = 1.0;
  for (size_t i = 0; i < m; ++i) {
    const double zero = path[i].zero;
    const double one = ones[i];
    for (size_t j = i + 2; j-- > 0;) {
      c[j] = zero * c[j] + (j > 0 ? one * c[j - 1] : 0.0);
    }
  }
}

/// Per-entry phi increments of one leaf given its convolved polynomial.
/// This is THE shared leaf arithmetic: the per-instance walker and the
/// batch engine both call it, so their attributions are bit-identical by
/// construction. The weight reduction runs through kernels::Dot (pinned
/// 4-lane order) against the packed factorial table.
void PdDeltas(double value, const PdEntry* path, const double* ones, size_t m,
              const double* c, double* cw, const double* fact, double* out) {
  const double inv_mfact = 1.0 / fact[m];
  const double* w = FactWeights(m);
  for (size_t i = 0; i < m; ++i) {
    const double zero = path[i].zero;
    const double one = ones[i];
    // Deconvolve factor i: c[j] = zero * cw[j] + one * cw[j-1].
    if (one == 0.0) {
      for (size_t j = 0; j < m; ++j) cw[j] = c[j] / zero;
    } else {
      cw[m - 1] = c[m];
      for (size_t j = m - 1; j-- > 0;) {
        cw[j] = c[j + 1] - zero * cw[j + 1];
      }
    }
    const double acc = kernels::Dot(cw, w, m);
    out[i] = value * (one - zero) * acc * inv_mfact;
  }
}

void PdLeaf(double value, const double* x, PdScratch* s, Vector* phi,
            double* base, const double* fact) {
  const std::vector<PdEntry>& path = s->path;
  const size_t m = path.size();
  XFAIR_CHECK_MSG(m <= kMaxPathFeatures, "tree path too deep for TreeSHAP");
  s->ones.resize(m);
  for (size_t i = 0; i < m; ++i) {
    const PdEntry& e = path[i];
    s->ones[i] =
        (e.lo < x[e.feature] && x[e.feature] <= e.hi) ? 1.0 : 0.0;
  }
  s->c.resize(m + 1);
  PdConv(path.data(), s->ones.data(), m, s->c.data());
  *base += value * s->c[0];  // c[0] = prod zero_f = P(leaf | empty coalition).
  if (m == 0) return;
  s->cw.resize(m);
  s->deltas.resize(m);
  PdDeltas(value, path.data(), s->ones.data(), m, s->c.data(), s->cw.data(),
           fact, s->deltas.data());
  for (size_t i = 0; i < m; ++i) {
    (*phi)[static_cast<size_t>(path[i].feature)] += s->deltas[i];
  }
}

void PdWalk(const std::vector<ShapNode>& nodes, int id, const double* x,
            PdScratch* s, Vector* phi, double* base, const double* fact) {
  const ShapNode& n = nodes[static_cast<size_t>(id)];
  if (n.feature < 0) {
    PdLeaf(n.value, x, s, phi, base, fact);
    return;
  }
  auto descend = [&](int child, bool left_edge) {
    const double ratio = nodes[static_cast<size_t>(child)].cover / n.cover;
    size_t idx = 0;
    while (idx < s->path.size() && s->path[idx].feature != n.feature) ++idx;
    const bool existed = idx < s->path.size();
    if (!existed) s->path.push_back({n.feature, -kInf, kInf, 1.0});
    const PdEntry saved = s->path[idx];
    PdEntry& e = s->path[idx];
    if (left_edge) {
      e.hi = std::min(e.hi, n.threshold);
    } else {
      e.lo = std::max(e.lo, n.threshold);
    }
    e.zero = saved.zero * ratio;
    PdWalk(nodes, child, x, s, phi, base, fact);
    if (existed) {
      s->path[idx] = saved;
    } else {
      s->path.pop_back();
    }
  };
  descend(n.left, /*left_edge=*/true);
  descend(n.right, /*left_edge=*/false);
}

/// Adds one tree's path-dependent attributions into phi/base.
void PathDependentTree(const std::vector<ShapNode>& nodes, const double* x,
                       PdScratch* s, Vector* phi, double* base) {
  XFAIR_CHECK(!nodes.empty() && nodes[0].cover > 0.0);
  PdWalk(nodes, 0, x, s, phi, base, Factorials());
}

// ---------------------------------------------------------------------------
// Interventional TreeSHAP.
//
// For one explained row x and one background row z, a leaf's coalition
// indicator is [P subset of S][N disjoint from S], where P are the unique
// path features only x passes and N the ones only z passes (leaves with a
// feature neither passes are unreachable for every coalition and the
// descent prunes them). The Shapley value of that indicator game is the
// closed form (p-1)! q! / (p+q)! for f in P and -p! (q-1)! / (p+q)! for
// f in N; leaves with p == 0 contribute to the empty-coalition value.
// ---------------------------------------------------------------------------

struct IvEntry {
  int feature = -1;
  double lo = -kInf, hi = kInf;
};

/// Walks leaves reachable by some x/z hybrid, accumulating `weight`-scaled
/// attributions into phi (d slots) and the empty-coalition value into base.
void IvWalk(const ShapNode* nodes, int id, const double* x,
            const double* z, std::vector<IvEntry>* path, double weight,
            double* phi, double* base, const double* fact) {
  const ShapNode& n = nodes[static_cast<size_t>(id)];
  if (n.feature < 0) {
    const size_t m = path->size();
    XFAIR_CHECK_MSG(m <= kMaxPathFeatures, "tree path too deep for TreeSHAP");
    size_t p = 0, q = 0;
    for (const IvEntry& e : *path) {
      const bool a = e.lo < x[e.feature] && x[e.feature] <= e.hi;
      const bool b = e.lo < z[e.feature] && z[e.feature] <= e.hi;
      p += a && !b;
      q += !a && b;
    }
    if (p == 0) *base += weight * n.value;
    if (p + q == 0) return;
    const double inv = 1.0 / fact[p + q];
    const double w_pos = p > 0 ? fact[p - 1] * fact[q] * inv : 0.0;
    const double w_neg = q > 0 ? fact[p] * fact[q - 1] * inv : 0.0;
    // Folded into weight-independent per-leaf deltas so the batched
    // thresholded sweep can memoize them per coalition mask and still add
    // the identical doubles (the negation is exact, so += weight * d_neg
    // bit-matches the former -= weight * value * w_neg).
    const double d_pos = n.value * w_pos;
    const double d_neg = -(n.value * w_neg);
    for (const IvEntry& e : *path) {
      const bool a = e.lo < x[e.feature] && x[e.feature] <= e.hi;
      const bool b = e.lo < z[e.feature] && z[e.feature] <= e.hi;
      if (a && !b) {
        phi[static_cast<size_t>(e.feature)] += weight * d_pos;
      } else if (!a && b) {
        phi[static_cast<size_t>(e.feature)] += weight * d_neg;
      }
    }
    return;
  }
  auto descend = [&](int child, bool left_edge) {
    size_t idx = 0;
    while (idx < path->size() && (*path)[idx].feature != n.feature) ++idx;
    const bool existed = idx < path->size();
    if (!existed) path->push_back({n.feature, -kInf, kInf});
    const IvEntry saved = (*path)[idx];
    IvEntry& e = (*path)[idx];
    if (left_edge) {
      e.hi = std::min(e.hi, n.threshold);
    } else {
      e.lo = std::max(e.lo, n.threshold);
    }
    const bool a = e.lo < x[e.feature] && x[e.feature] <= e.hi;
    const bool b = e.lo < z[e.feature] && z[e.feature] <= e.hi;
    if (a || b) IvWalk(nodes, child, x, z, path, weight, phi, base, fact);
    if (existed) {
      (*path)[idx] = saved;
    } else {
      path->pop_back();
    }
  };
  descend(n.left, /*left_edge=*/true);
  descend(n.right, /*left_edge=*/false);
}

/// EXPVALUE reference game: descend x's branch for unmasked features,
/// cover-average both children for masked ones. Exponential when fed to
/// ExactShapley — the oracle the polynomial algorithms are tested against.
double ExpValue(const std::vector<ShapNode>& nodes, int id,
                const std::vector<bool>& mask, const Vector& x) {
  const ShapNode& n = nodes[static_cast<size_t>(id)];
  if (n.feature < 0) return n.value;
  const size_t f = static_cast<size_t>(n.feature);
  if (mask[f]) {
    return ExpValue(nodes, x[f] <= n.threshold ? n.left : n.right, mask, x);
  }
  const ShapNode& l = nodes[static_cast<size_t>(n.left)];
  const ShapNode& r = nodes[static_cast<size_t>(n.right)];
  return (l.cover * ExpValue(nodes, n.left, mask, x) +
          r.cover * ExpValue(nodes, n.right, mask, x)) /
         n.cover;
}

// ---------------------------------------------------------------------------
// Scratch arenas.
//
// Every engine entry point draws its scratch from a thread-local arena
// that only ever grows, so the steady state (repeated calls of the same
// shape) allocates nothing: pool workers are long-lived, and so are their
// arenas. Ensure/Reserve track whether a call had to grow anything; the
// outermost ArenaCall on a thread reports one arena_reuses or arena_grows
// tick per engine entry, which is what the zero-alloc steady-state test
// asserts on.
// ---------------------------------------------------------------------------

struct ShapArena {
  // Per-instance walker scratch.
  PdScratch pd;
  std::vector<IvEntry> iv_path;
  std::vector<ShapNode> thresholded;
  // Batch engine buffers (see PathDependentBatch for layouts).
  std::vector<double> cols, partial, pair, memo_vals;
  std::vector<double> miss_ones, miss_c, miss_cw, miss_deltas;
  std::vector<uint8_t> saved_bits;
  std::vector<uint64_t> masks, memo_epoch;
  std::vector<PdEntry> bpath;
  // Thresholded-sweep buffers: per-tile slice partials (caller-owned,
  // workers write disjoint tiles), the background's per-edge saved
  // coalition bits, and the tile-bitvector state — per-path-entry pass
  // indicators (pbits), their per-edge-depth saves (psave), and the
  // per-depth active-instance bitvectors (alive_bits), all stride
  // kTileBlocks words per row (one bit per tile lane).
  std::vector<double> slice_partial;
  std::vector<uint8_t> zbits_saved;
  std::vector<uint64_t> pbits, psave, alive_bits;
  uint64_t epoch = 0;  ///< Monotonic leaf counter stamping memo entries.
  int call_depth = 0;
  bool grew = false;

  /// Grows v to hold at least n elements (never shrinks).
  template <typename V>
  void Ensure(V* v, size_t n) {
    if (v->size() >= n) return;
    if (v->capacity() < n) grew = true;
    v->resize(n);
  }

  /// Capacity-only variant for vectors managed by push/pop.
  template <typename V>
  void Reserve(V* v, size_t n) {
    if (v->capacity() >= n) return;
    grew = true;
    v->reserve(n);
  }

  /// Sizes the per-instance path-dependent scratch for paths of up to
  /// `max_unique` distinct features.
  void EnsurePd(size_t max_unique) {
    Reserve(&pd.path, max_unique + 1);
    Reserve(&pd.ones, max_unique + 1);
    Reserve(&pd.c, max_unique + 2);
    Reserve(&pd.cw, max_unique + 1);
    Reserve(&pd.deltas, max_unique + 1);
  }
};

ShapArena& LocalArena() {
  static thread_local ShapArena arena;
  return arena;
}

/// RAII growth accounting for one engine entry on one thread. Nested
/// scopes (an engine call fanning out to inline chunk bodies) report once.
class ArenaCall {
 public:
  explicit ArenaCall(ShapArena* arena) : arena_(arena) {
    if (arena_->call_depth++ == 0) arena_->grew = false;
  }
  ~ArenaCall() {
    if (--arena_->call_depth != 0) return;
    if (arena_->grew) {
      XFAIR_COUNTER_ADD("tree_shap/arena_grows", 1);
    } else {
      XFAIR_COUNTER_ADD("tree_shap/arena_reuses", 1);
    }
  }
  ArenaCall(const ArenaCall&) = delete;
  ArenaCall& operator=(const ArenaCall&) = delete;

 private:
  ShapArena* arena_;
};

// ---------------------------------------------------------------------------
// Batched path-dependent engine.
//
// One DFS per (tree, instance tile) instead of per (tree, instance). The
// tile is laid out structure-of-arrays (cols[f * tile + i]), so the split
// test a node contributes to every instance's coalition indicator is one
// contiguous compare over the tile. Each instance carries one packed
// coalition mask whose bit `idx` answers "does this instance pass path
// entry idx's merged interval?"; the masks are maintained incrementally
// at descend edges, since the merged-interval test is exactly the AND of
// the edge conditions along the path.
//
// At a leaf, the phi increments are a pure function of (leaf, coalition
// mask), so they are computed once per distinct mask via PdDeltas — the
// same routine the per-instance walker calls — and memoized in an
// epoch-stamped table. Each instance then adds the *same doubles in the
// same DFS order* as its per-instance walk would, which is the whole
// bit-identity argument: batching changes how often numbers are computed,
// never which numbers are added or in which order.
// ---------------------------------------------------------------------------

struct BatchCtx {
  const ShapNode* nodes = nullptr;
  const double* cols = nullptr;  ///< SoA tile: cols[f * tile + i].
  size_t tile = 0;
  size_t dim = 0;        ///< d + 1; slot d of each row is the base value.
  double* acc = nullptr; ///< tile x dim accumulator (one row per instance).
  double base_acc = 0.0; ///< Scalar base partial (instance-independent).
  PdEntry* path = nullptr;
  size_t path_len = 0;
  uint8_t* saved_bits = nullptr;  ///< [edge depth][instance], stride tile.
  uint64_t* masks = nullptr;      ///< Packed coalition mask per instance.
  size_t m_cap = 0;
  double* memo_vals = nullptr;    ///< [mask][k], stride m_cap.
  uint64_t* memo_epoch = nullptr;
  uint64_t* epoch = nullptr;
  const double* fact = nullptr;
  double* miss_ones = nullptr;
  double* miss_c = nullptr;
  double* miss_cw = nullptr;
  double* miss_deltas = nullptr;
  size_t memo_hits = 0, memo_misses = 0;
};

void PdLeafBatch(BatchCtx* ctx, double value) {
  const size_t m = ctx->path_len;
  const size_t tile = ctx->tile;
  const size_t dim = ctx->dim;
  // The conv polynomial's constant term is coalition-independent — just
  // the running product of the zero factors in path order — so the base
  // contribution is the same scalar for every instance. Every instance's
  // base partial is therefore the identical DFS-ordered sum of these
  // scalars; accumulate it once and broadcast after the tree chunk. The
  // loop repeats PdConv's constant-lane arithmetic exactly
  // (c[0] = zero * c[0]).
  double c0 = 1.0;
  for (size_t i = 0; i < m; ++i) c0 = ctx->path[i].zero * c0;
  ctx->base_acc += value * c0;
  if (m == 0) return;
  if (m <= ctx->m_cap) {
    const uint64_t epoch = ++*ctx->epoch;
    for (size_t i = 0; i < tile; ++i) {
      const uint64_t mask = ctx->masks[i];
      double* vals = ctx->memo_vals + mask * ctx->m_cap;
      if (ctx->memo_epoch[mask] != epoch) {
        ctx->memo_epoch[mask] = epoch;
        ++ctx->memo_misses;
        for (size_t k = 0; k < m; ++k) {
          ctx->miss_ones[k] = ((mask >> k) & 1) != 0 ? 1.0 : 0.0;
        }
        PdConv(ctx->path, ctx->miss_ones, m, ctx->miss_c);
        PdDeltas(value, ctx->path, ctx->miss_ones, m, ctx->miss_c,
                 ctx->miss_cw, ctx->fact, vals);
      } else {
        ++ctx->memo_hits;
      }
      double* row = ctx->acc + i * dim;
      for (size_t k = 0; k < m; ++k) {
        row[static_cast<size_t>(ctx->path[k].feature)] += vals[k];
      }
    }
  } else {
    // Path wider than the memo: compute each instance directly from its
    // mask bits (still the shared PdConv/PdDeltas arithmetic).
    for (size_t i = 0; i < tile; ++i) {
      const uint64_t mask = ctx->masks[i];
      for (size_t k = 0; k < m; ++k) {
        ctx->miss_ones[k] = ((mask >> k) & 1) != 0 ? 1.0 : 0.0;
      }
      PdConv(ctx->path, ctx->miss_ones, m, ctx->miss_c);
      PdDeltas(value, ctx->path, ctx->miss_ones, m, ctx->miss_c, ctx->miss_cw,
               ctx->fact, ctx->miss_deltas);
      double* row = ctx->acc + i * dim;
      for (size_t k = 0; k < m; ++k) {
        row[static_cast<size_t>(ctx->path[k].feature)] += ctx->miss_deltas[k];
      }
    }
  }
}

void PdWalkBatch(BatchCtx* ctx, int id, size_t depth) {
  const ShapNode& n = ctx->nodes[static_cast<size_t>(id)];
  if (n.feature < 0) {
    PdLeafBatch(ctx, n.value);
    return;
  }
  const size_t tile = ctx->tile;
  const double* xcol = ctx->cols + static_cast<size_t>(n.feature) * tile;
  const double thr = n.threshold;
  // Both edges share the same path slot, so the entry search, the saved
  // state, and the mask bit are hoisted; the left unwind fuses with the
  // right set into a single tile pass (three passes per node, not four).
  size_t idx = 0;
  while (idx < ctx->path_len && ctx->path[idx].feature != n.feature) ++idx;
  const bool existed = idx < ctx->path_len;
  if (!existed) ctx->path[ctx->path_len++] = {n.feature, -kInf, kInf, 1.0};
  const PdEntry saved = ctx->path[idx];
  const double ratio_l = ctx->nodes[static_cast<size_t>(n.left)].cover / n.cover;
  const double ratio_r =
      ctx->nodes[static_cast<size_t>(n.right)].cover / n.cover;
  const uint64_t bit = uint64_t{1} << idx;
  uint8_t* save = ctx->saved_bits + depth * tile;
  // Left edge: x <= thr.
  {
    PdEntry& e = ctx->path[idx];
    e.hi = std::min(saved.hi, thr);
    e.zero = saved.zero * ratio_l;
  }
  if (!existed) {
    // Fresh entry: the indicator so far is just this edge's condition.
    for (size_t i = 0; i < tile; ++i) {
      if (xcol[i] <= thr) ctx->masks[i] |= bit;
    }
  } else {
    // Revisited feature: AND this edge's condition into the running
    // indicator bit, saving the previous bit for the transitions below.
    for (size_t i = 0; i < tile; ++i) {
      const uint64_t mask = ctx->masks[i];
      save[i] = static_cast<uint8_t>((mask >> idx) & 1);
      if (!(xcol[i] <= thr)) ctx->masks[i] = mask & ~bit;
    }
  }
  PdWalkBatch(ctx, n.left, depth + 1);
  // Right edge: x > thr. One pass rewrites the entry's bit from the
  // pre-descend value (set or saved) AND the right condition.
  {
    PdEntry& e = ctx->path[idx];
    e.lo = std::max(saved.lo, thr);
    e.hi = saved.hi;
    e.zero = saved.zero * ratio_r;
  }
  if (!existed) {
    for (size_t i = 0; i < tile; ++i) {
      ctx->masks[i] =
          (ctx->masks[i] & ~bit) | (xcol[i] > thr ? bit : uint64_t{0});
    }
  } else {
    for (size_t i = 0; i < tile; ++i) {
      const uint64_t restored = static_cast<uint64_t>(save[i]) << idx;
      ctx->masks[i] =
          (ctx->masks[i] & ~bit) | (xcol[i] > thr ? restored : uint64_t{0});
    }
  }
  PdWalkBatch(ctx, n.right, depth + 1);
  if (!existed) {
    for (size_t i = 0; i < tile; ++i) ctx->masks[i] &= ~bit;
    --ctx->path_len;
  } else {
    for (size_t i = 0; i < tile; ++i) {
      ctx->masks[i] =
          (ctx->masks[i] & ~bit) | (static_cast<uint64_t>(save[i]) << idx);
    }
    ctx->path[idx] = saved;
  }
}

/// How batch outputs are finalized from the raw tree-sum, mirroring the
/// matching per-instance entry point's epilogue exactly.
enum class BatchMode { kTree, kForestMean, kGbmMargin };

void PathDependentBatch(const ShapModelPtr& model, BatchMode mode,
                        double scale, double bias, const Matrix& xs,
                        Matrix* phi, Vector* base) {
  const size_t n = xs.rows();
  const size_t d = xs.cols();
  XFAIR_CHECK(model->max_feature < static_cast<int>(d));
  XFAIR_CHECK(phi != nullptr && base != nullptr);
  if (phi->rows() != n || phi->cols() != d) *phi = Matrix(n, d);
  if (base->size() != n) base->assign(n, 0.0);
  const size_t dim = d + 1;
  // Replicate the per-instance tree reduction: same chunks, same pairwise
  // combine, per instance.
  const std::vector<ChunkRange> tchunks =
      DeterministicChunks(0, model->trees.size());
  const size_t nchunks = tchunks.size();
  const size_t m_cap = std::min(model->max_unique_path, kMemoMaxBits);
  // Parallelize over whole tiles, not raw instance ranges: the leaf memo
  // amortizes one PdConv/PdDeltas per distinct coalition mask across the
  // tile, so a full-width tile is what makes batching pay. Instance
  // decomposition cannot affect results — each instance's phi is
  // independent, and all order-sensitive reductions are within-instance.
  const size_t ntiles = (n + kBatchTile - 1) / kBatchTile;
  ParallelForChunks(0, ntiles, [&](const ChunkRange& ichunk) {
    ShapArena& arena = LocalArena();
    ArenaCall call(&arena);
    // Size everything for a full tile regardless of this chunk's length,
    // so every worker's arena converges to the same steady-state shape.
    arena.Ensure(&arena.cols, d * kBatchTile);
    arena.Ensure(&arena.saved_bits, (model->max_path_len + 1) * kBatchTile);
    arena.Ensure(&arena.masks, kBatchTile);
    arena.Ensure(&arena.bpath, model->max_unique_path + 1);
    arena.Ensure(&arena.partial, nchunks * kBatchTile * dim);
    arena.Ensure(&arena.pair, nchunks);
    arena.Ensure(&arena.memo_vals,
                 (uint64_t{1} << m_cap) * std::max<size_t>(m_cap, 1));
    arena.Ensure(&arena.memo_epoch, uint64_t{1} << m_cap);
    arena.Ensure(&arena.miss_ones, model->max_unique_path + 1);
    arena.Ensure(&arena.miss_c, model->max_unique_path + 2);
    arena.Ensure(&arena.miss_cw, model->max_unique_path + 1);
    arena.Ensure(&arena.miss_deltas, model->max_unique_path + 1);
    BatchCtx ctx;
    ctx.dim = dim;
    ctx.path = arena.bpath.data();
    ctx.saved_bits = arena.saved_bits.data();
    ctx.masks = arena.masks.data();
    ctx.m_cap = m_cap;
    ctx.memo_vals = arena.memo_vals.data();
    ctx.memo_epoch = arena.memo_epoch.data();
    ctx.epoch = &arena.epoch;
    ctx.fact = Factorials();
    ctx.miss_ones = arena.miss_ones.data();
    ctx.miss_c = arena.miss_c.data();
    ctx.miss_cw = arena.miss_cw.data();
    ctx.miss_deltas = arena.miss_deltas.data();
    for (size_t ti = ichunk.begin; ti < ichunk.end; ++ti) {
      const size_t at = ti * kBatchTile;
      const size_t tile = std::min(kBatchTile, n - at);
      ctx.tile = tile;
      double* cols = arena.cols.data();
      for (size_t i = 0; i < tile; ++i) {
        const double* row = xs.RowPtr(at + i);
        for (size_t f = 0; f < d; ++f) cols[f * tile + i] = row[f];
      }
      ctx.cols = cols;
      for (size_t k = 0; k < nchunks; ++k) {
        double* part = arena.partial.data() + k * kBatchTile * dim;
        std::fill(part, part + tile * dim, 0.0);
        ctx.acc = part;
        ctx.base_acc = 0.0;
        for (size_t t = tchunks[k].begin; t < tchunks[k].end; ++t) {
          ctx.nodes = model->trees[t].data();
          ctx.path_len = 0;
          std::fill(arena.masks.data(), arena.masks.data() + tile,
                    uint64_t{0});
          PdWalkBatch(&ctx, 0, 0);
        }
        for (size_t i = 0; i < tile; ++i) {
          part[i * dim + dim - 1] = ctx.base_acc;
        }
      }
      for (size_t i = 0; i < tile; ++i) {
        double* out_row = phi->RowPtr(at + i);
        for (size_t c = 0; c < dim; ++c) {
          for (size_t k = 0; k < nchunks; ++k) {
            arena.pair[k] = arena.partial[k * kBatchTile * dim + i * dim + c];
          }
          const double acc = PairwiseSumInPlace(arena.pair.data(), nchunks);
          if (c < d) {
            out_row[c] = mode == BatchMode::kTree ? acc : acc * scale;
          } else {
            (*base)[at + i] = mode == BatchMode::kTree ? acc
                              : mode == BatchMode::kForestMean
                                  ? acc * scale
                                  : bias + scale * acc;
          }
        }
      }
    }
    XFAIR_COUNTER_ADD("tree_shap/leaf_memo_hits", ctx.memo_hits);
    XFAIR_COUNTER_ADD("tree_shap/leaf_memo_misses", ctx.memo_misses);
  });
}

/// Batched interventional engine: instances fan out over chunks, and each
/// instance replays the per-instance background-chunk pairwise reduction
/// exactly (same chunks, same tree order, same combine, same scaling).
void InterventionalBatch(const ShapModelPtr& model, const Matrix& background,
                         const Matrix& xs, Matrix* phi, Vector* base) {
  const size_t n = xs.rows();
  const size_t d = xs.cols();
  XFAIR_CHECK(background.rows() > 0);
  XFAIR_CHECK(background.cols() == d);
  XFAIR_CHECK(model->max_feature < static_cast<int>(d));
  XFAIR_CHECK(phi != nullptr && base != nullptr);
  if (phi->rows() != n || phi->cols() != d) *phi = Matrix(n, d);
  if (base->size() != n) base->assign(n, 0.0);
  const std::vector<ChunkRange> bchunks =
      DeterministicChunks(0, background.rows());
  const size_t nchunks = bchunks.size();
  const size_t dim = d + 1;
  const double inv = 1.0 / (static_cast<double>(background.rows()) *
                            static_cast<double>(model->trees.size()));
  const double* fact = Factorials();
  ParallelForChunks(0, n, [&](const ChunkRange& ichunk) {
    ShapArena& arena = LocalArena();
    ArenaCall call(&arena);
    arena.Reserve(&arena.iv_path, model->max_unique_path + 1);
    arena.Ensure(&arena.partial, nchunks * dim);
    arena.Ensure(&arena.pair, nchunks);
    for (size_t i = ichunk.begin; i < ichunk.end; ++i) {
      const double* x = xs.RowPtr(i);
      for (size_t k = 0; k < nchunks; ++k) {
        double* part = arena.partial.data() + k * dim;
        std::fill(part, part + dim, 0.0);
        for (size_t b = bchunks[k].begin; b < bchunks[k].end; ++b) {
          for (const std::vector<ShapNode>& nodes : model->trees) {
            IvWalk(nodes.data(), 0, x, background.RowPtr(b), &arena.iv_path,
                   1.0, part, &part[d], fact);
          }
        }
      }
      double* out_row = phi->RowPtr(i);
      for (size_t c = 0; c < dim; ++c) {
        for (size_t k = 0; k < nchunks; ++k) {
          arena.pair[k] = arena.partial[k * dim + c];
        }
        const double acc = PairwiseSumInPlace(arena.pair.data(), nchunks);
        if (c < d) {
          out_row[c] = acc * inv;
        } else {
          (*base)[i] = acc * inv;
        }
      }
    }
  });
}

// ---------------------------------------------------------------------------
// Batched thresholded interventional sweep (the fairness fast path).
//
// One DFS per (thresholded tree, instance tile) instead of per instance.
// The tile's coalition state is kept *transposed*: instead of one packed
// mask per instance, path entry idx owns a pass-indicator bitvector
// pbits[idx] over the tile (bit i answers "does instance i pass entry
// idx's merged interval?", one kTileBlocks-word row per entry). A descend
// edge then costs one compare-pack per 64-lane block (compare the SoA
// column against the threshold, movemask the results into a word) plus a
// couple of word-wide AND/saves — the per-instance bookkeeping of the
// old per-lane mask updates collapses into whole-word set algebra. The
// single background row z keeps the scalar analogue (zbits + a per-edge
// saved bit).
//
// The interventional game prunes: an instance whose merged interval is
// passed by neither x nor z reaches no leaf below, so the DFS carries a
// per-depth *active-instance bitvector* (alive, kTileBlocks words),
// replicating the per-row walk's a||b descend guard per instance. A
// non-z edge derives the child's aliveness as alive & pbits[idx] word by
// word; when the background passes, the child inherits the parent's
// bitvector by pointer (everyone stays active). Dead blocks (word == 0)
// and subtrees whose bitvector empties are skipped outright. Fresh path
// entries use write semantics (pbits[idx] is overwritten, never merged),
// so unwinding a fresh entry is free: a stale row is rewritten by the
// next fresh push before any leaf can read it (leaves read rows
// 0..path_len-1 only, and an instance is only alive below an edge that
// wrote its row).
//
// At a leaf everything IvWalk derives from the merged intervals is a
// pure function of (mask, zbits). The leaf partitions the alive set with
// word algebra over the entry rows — p0 (no mask bit outside zb, the
// p == 0 base-add set) and a0 (mask == zb, nothing further to add) —
// then walks only the instances that owe per-entry increments,
// reassembling each one's packed mask from the entry rows. The
// increments collapse to two doubles (value * w_pos and
// -(value * w_neg)) memoized per distinct mask in the epoch-stamped
// table. Each instance adds the same doubles in the same DFS order as
// its per-row IvWalk would — including the ±0.0 adds at value-zero
// leaves, which keep signed zeros bit-identical. (Base and per-entry
// adds land in disjoint accumulator slots, so splitting them into two
// scans preserves every slot's add sequence.)
// ---------------------------------------------------------------------------

constexpr size_t kBlockLanes = 64;  ///< Instances per bitvector word.
constexpr size_t kTileBlocks = kBatchTile / kBlockLanes;

struct IvBatchCtx {
  const ShapNode* nodes = nullptr;
  const double* cols = nullptr;     ///< SoA tile: cols[f * kBatchTile + i].
  const double* z = nullptr;        ///< Single background row.
  const double* weights = nullptr;  ///< Per-instance game weights.
  size_t tile = 0;
  size_t nblk = 0;        ///< ceil(tile / kBlockLanes) words in play.
  size_t dim = 0;         ///< d + 1; slot d of each row is the base value.
  double* acc = nullptr;  ///< tile x dim accumulator (one row per instance).
  PdEntry* path = nullptr;  ///< Only .feature is read at leaves.
  size_t path_len = 0;
  uint64_t* pbits = nullptr;  ///< [entry idx][block] pass indicators.
  uint64_t* psave = nullptr;  ///< [edge depth][block] saved entry row.
  uint8_t* zsaved = nullptr;  ///< [edge depth] saved background bit.
  uint64_t zbits = 0;         ///< Background's packed coalition mask.
  uint64_t* alive = nullptr;  ///< [depth][block] active-instance bits.
  size_t m_cap = 0;
  double* memo_vals = nullptr;  ///< [mask][2]: {value*w_pos, -(value*w_neg)}.
  uint64_t* memo_epoch = nullptr;
  uint64_t* epoch = nullptr;
  const double* fact = nullptr;
  size_t memo_hits = 0, memo_misses = 0;
};

/// Per-leaf deltas from the coalition counts, IvWalk's arithmetic verbatim.
inline void IvDeltas(double value, uint64_t mask, uint64_t zb, uint64_t mbits,
                     const double* fact, double* vals) {
  const size_t p = static_cast<size_t>(__builtin_popcountll(mask & ~zb));
  const size_t q =
      static_cast<size_t>(__builtin_popcountll(~mask & zb & mbits));
  const double inv = 1.0 / fact[p + q];
  const double w_pos = p > 0 ? fact[p - 1] * fact[q] * inv : 0.0;
  const double w_neg = q > 0 ? fact[p] * fact[q - 1] * inv : 0.0;
  vals[0] = value * w_pos;
  vals[1] = -(value * w_neg);
}

void IvLeafBatch(IvBatchCtx* ctx, double value, const uint64_t* alive) {
  const size_t m = ctx->path_len;
  const size_t dim = ctx->dim;
  if (m == 0) {
    // Root-leaf tree: the empty-path game (p == 0) for every instance.
    for (size_t b = 0; b < ctx->nblk; ++b) {
      for (uint64_t w = alive[b]; w != 0; w &= w - 1) {
        const size_t i =
            b * kBlockLanes + static_cast<size_t>(__builtin_ctzll(w));
        ctx->acc[i * dim + dim - 1] += ctx->weights[i] * value;
      }
    }
    return;
  }
  const uint64_t mbits = m >= 64 ? ~uint64_t{0} : (uint64_t{1} << m) - 1;
  const uint64_t zb = ctx->zbits & mbits;
  const bool memoize = m <= ctx->m_cap;
  const uint64_t epoch = memoize ? ++*ctx->epoch : 0;
  double direct[2];
  for (size_t b = 0; b < ctx->nblk; ++b) {
    const uint64_t av = alive[b];
    if (av == 0) continue;
    // Word algebra over the entry rows: p0 keeps instances whose mask has
    // no bit outside zb (the p == 0 base-add set); a0 keeps mask == zb
    // (alive, but nothing beyond the base add to do).
    uint64_t p0 = av;
    uint64_t a0 = av;
    const uint64_t* pb = ctx->pbits + b;
    for (size_t k = 0; k < m; ++k) {
      const uint64_t pk = pb[k * kTileBlocks];
      if ((zb >> k) & 1) {
        a0 &= pk;
      } else {
        p0 &= ~pk;
        a0 &= ~pk;
      }
    }
    // Base adds (slot dim-1; disjoint from the per-entry slots below, so
    // running them first preserves every slot's add order).
    for (uint64_t w = p0; w != 0; w &= w - 1) {
      const size_t i =
          b * kBlockLanes + static_cast<size_t>(__builtin_ctzll(w));
      ctx->acc[i * dim + dim - 1] += ctx->weights[i] * value;
    }
    // Per-entry increments for instances with act = mask ^ zb != 0; the
    // packed mask is reassembled from the entry rows' lane bits.
    for (uint64_t w = av & ~a0; w != 0; w &= w - 1) {
      const size_t lane = static_cast<size_t>(__builtin_ctzll(w));
      const size_t i = b * kBlockLanes + lane;
      uint64_t mask = 0;
      for (size_t k = 0; k < m; ++k) {
        mask |= ((pb[k * kTileBlocks] >> lane) & 1) << k;
      }
      // Aliveness already encodes reachability (every edge above held
      // x-or-z on its merged interval, so every bit of mask|zb is set);
      // the per-row walk's prune test survives as a never-taken guard.
      if ((mask | zb) != mbits) continue;
      const double wt = ctx->weights[i];
      double* row = ctx->acc + i * dim;
      const uint64_t act = mask ^ zb;
      const double* vals;
      if (memoize) {
        double* slot = ctx->memo_vals + mask * 2;
        if (ctx->memo_epoch[mask] != epoch) {
          ctx->memo_epoch[mask] = epoch;
          ++ctx->memo_misses;
          IvDeltas(value, mask, zb, mbits, ctx->fact, slot);
        } else {
          ++ctx->memo_hits;
        }
        vals = slot;
      } else {
        IvDeltas(value, mask, zb, mbits, ctx->fact, direct);
        vals = direct;
      }
      // Ascending entry order == the per-row walk's path iteration order.
      for (uint64_t a = act; a != 0; a &= a - 1) {
        const size_t k = static_cast<size_t>(__builtin_ctzll(a));
        const size_t f = static_cast<size_t>(ctx->path[k].feature);
        row[f] += wt * vals[(mask >> k) & 1 ? 0 : 1];
      }
    }
  }
}

void IvWalkBatch(IvBatchCtx* ctx, int id, size_t depth,
                 const uint64_t* alive);

/// Packs one 64-lane block's edge-condition results into a word, lane i
/// -> bit i. The booleans are the exact double compares IvWalk performs,
/// so the packed bits are integer-identical to the per-row walk's
/// branches (NaN lanes pack 0 on both sides, like the scalar compares).
template <bool kLE>
inline uint64_t IvPackCmpScalar(const double* __restrict xc, double thr) {
  uint64_t bits = 0;
  for (size_t i = 0; i < kBlockLanes; ++i) {
    const bool pass = kLE ? xc[i] <= thr : xc[i] > thr;
    bits |= static_cast<uint64_t>(pass) << i;
  }
  return bits;
}

#if XFAIR_TREE_SHAP_AVX2
__attribute__((target("avx2"))) uint64_t IvPackCmpLeAvx2(
    const double* __restrict xc, double thr) {
  const __m256d t = _mm256_set1_pd(thr);
  uint64_t bits = 0;
  for (size_t i = 0; i < kBlockLanes; i += 4) {
    const __m256d c = _mm256_cmp_pd(_mm256_loadu_pd(xc + i), t, _CMP_LE_OQ);
    bits |= static_cast<uint64_t>(_mm256_movemask_pd(c)) << i;
  }
  return bits;
}

__attribute__((target("avx2"))) uint64_t IvPackCmpGtAvx2(
    const double* __restrict xc, double thr) {
  const __m256d t = _mm256_set1_pd(thr);
  uint64_t bits = 0;
  for (size_t i = 0; i < kBlockLanes; i += 4) {
    const __m256d c = _mm256_cmp_pd(_mm256_loadu_pd(xc + i), t, _CMP_GT_OQ);
    bits |= static_cast<uint64_t>(_mm256_movemask_pd(c)) << i;
  }
  return bits;
}

bool DetectTreeShapAvx2() { return __builtin_cpu_supports("avx2") != 0; }
const bool kTreeShapAvx2 = DetectTreeShapAvx2();
#endif  // XFAIR_TREE_SHAP_AVX2

template <bool kLE>
inline uint64_t IvPackCmp(const double* xc, double thr) {
#if XFAIR_TREE_SHAP_AVX2
  if (kTreeShapAvx2) {
    return kLE ? IvPackCmpLeAvx2(xc, thr) : IvPackCmpGtAvx2(xc, thr);
  }
#endif
  return IvPackCmpScalar<kLE>(xc, thr);
}

/// One descend edge: refreshes entry idx's pass row over the parent's
/// live blocks, derives the child's aliveness (unless z passes, in which
/// case the child inherits the parent's bitvector by pointer), and
/// recurses.
template <bool kLE>
void IvEdgeBatch(IvBatchCtx* ctx, int child_id, size_t depth,
                 const uint64_t* alive, const double* xcol, double thr,
                 size_t idx, bool existed, bool fill_save, bool zpass) {
  uint64_t* prow = ctx->pbits + idx * kTileBlocks;
  uint64_t* sv = ctx->psave + depth * kTileBlocks;
  uint64_t* calive = ctx->alive + (depth + 1) * kTileBlocks;
  bool any = zpass;
  for (size_t b = 0; b < ctx->nblk; ++b) {
    const uint64_t av = alive[b];
    if (av == 0) {
      if (!zpass) calive[b] = 0;
      continue;
    }
    const uint64_t cmp = IvPackCmp<kLE>(xcol + b * kBlockLanes, thr);
    uint64_t np;
    if (!existed) {
      np = cmp;  // Fresh row: write semantics, nothing stale is merged.
    } else {
      // First edge to touch an existing entry stashes the pre-descend
      // row; the second edge rebuilds from the stash. Both AND in the
      // edge condition (the merged-interval narrowing).
      const uint64_t prev = fill_save ? prow[b] : sv[b];
      if (fill_save) sv[b] = prev;
      np = prev & cmp;
    }
    prow[b] = np;
    if (!zpass) {
      const uint64_t ca = av & np;
      calive[b] = ca;
      any = any || ca != 0;
    }
  }
  if (!any) return;
  IvWalkBatch(ctx, child_id, depth + 1, zpass ? alive : calive);
}

void IvWalkBatch(IvBatchCtx* ctx, int id, size_t depth,
                 const uint64_t* alive) {
  const ShapNode& n = ctx->nodes[static_cast<size_t>(id)];
  if (n.feature < 0) {
    IvLeafBatch(ctx, n.value, alive);
    return;
  }
  const double* xcol = ctx->cols + static_cast<size_t>(n.feature) * kBatchTile;
  const double thr = n.threshold;
  const double zval = ctx->z[static_cast<size_t>(n.feature)];
  size_t idx = 0;
  while (idx < ctx->path_len && ctx->path[idx].feature != n.feature) ++idx;
  const bool existed = idx < ctx->path_len;
  if (!existed) ctx->path[ctx->path_len++] = {n.feature, -kInf, kInf, 1.0};
  const uint64_t bit = uint64_t{1} << idx;
  const uint8_t zprev = static_cast<uint8_t>((ctx->zbits >> idx) & 1);
  if (existed) ctx->zsaved[depth] = zprev;
  // Dead subtrees (every leaf value 0.0) are skipped outright: their adds
  // are all ±0.0 no-ops in the per-row walk, and nothing below them reads
  // the edge's entry row. At least one child of a live node is live.
  const bool llive = ctx->nodes[static_cast<size_t>(n.left)].cover != 0.0;
  const bool rlive = ctx->nodes[static_cast<size_t>(n.right)].cover != 0.0;
  if (llive) {
    const bool zpass = zval <= thr && (!existed || zprev != 0);
    ctx->zbits = (ctx->zbits & ~bit) | (zpass ? bit : uint64_t{0});
    IvEdgeBatch<true>(ctx, n.left, depth, alive, xcol, thr, idx, existed,
                      /*fill_save=*/existed, zpass);
  }
  if (rlive) {
    const bool zpass = zval > thr && (!existed || zprev != 0);
    ctx->zbits = (ctx->zbits & ~bit) | (zpass ? bit : uint64_t{0});
    // When the left edge was skipped (dead left child), this edge is the
    // entry's first touch and must fill the stash for the unwind.
    IvEdgeBatch<false>(ctx, n.right, depth, alive, xcol, thr, idx, existed,
                       /*fill_save=*/existed && !llive, zpass);
  }
  if (!existed) {
    // No clear pass: write semantics above make the stale row
    // unreadable (same for the background's zbits slot).
    --ctx->path_len;
  } else {
    // The stash was filled by whichever edge ran first (a live node has
    // at least one live child), over exactly the parent's live blocks.
    uint64_t* prow = ctx->pbits + idx * kTileBlocks;
    const uint64_t* sv = ctx->psave + depth * kTileBlocks;
    for (size_t b = 0; b < ctx->nblk; ++b) {
      if (alive[b] != 0) prow[b] = sv[b];
    }
    ctx->zbits = (ctx->zbits & ~bit) |
                 (static_cast<uint64_t>(ctx->zsaved[depth]) << idx);
  }
}

/// Marks each thresholded node's `cover` 1.0 when its subtree holds any
/// nonzero leaf, 0.0 otherwise. Zero subtrees only ever add ±0.0 to the
/// sweep's accumulators, and += (±0.0) cannot change a slot that started
/// at +0.0 (in round-to-nearest, a += can only yield -0.0 from two -0.0
/// operands, so no slot is ever -0.0) — the batch skips them wholesale
/// and stays bit-identical to the per-row walk that still visits them.
double MarkLive(ShapNode* nodes, int id) {
  ShapNode& n = nodes[static_cast<size_t>(id)];
  if (n.feature < 0) {
    n.cover = n.value != 0.0 ? 1.0 : 0.0;
  } else {
    const double l = MarkLive(nodes, n.left);
    const double r = MarkLive(nodes, n.right);
    n.cover = (l != 0.0 || r != 0.0) ? 1.0 : 0.0;
  }
  return n.cover;
}

/// Hard-thresholds `src` into the caller's arena (value >= tau -> 1 else
/// 0) and marks live subtrees; workers read it, only the caller sizes it.
ShapNode* ThresholdInto(ShapArena* arena, const std::vector<ShapNode>& src,
                        double tau) {
  arena->Ensure(&arena->thresholded, src.size());
  ShapNode* thresholded = arena->thresholded.data();
  for (size_t i = 0; i < src.size(); ++i) {
    thresholded[i] = src[i];
    thresholded[i].value = src[i].value >= tau ? 1.0 : 0.0;
  }
  MarkLive(thresholded, 0);
  return thresholded;
}

void CountBatch([[maybe_unused]] size_t instances) {
  XFAIR_COUNTER_ADD("tree_shap/batch_calls", 1);
  XFAIR_COUNTER_ADD("tree_shap/batch_instances", instances);
}

}  // namespace

TreeShapExplanation PathDependentTreeShap(const DecisionTree& tree,
                                          const Vector& x) {
  XFAIR_CHECK_MSG(tree.fitted(), "model not fitted");
  XFAIR_SPAN("tree_shap/path_dependent");
  XFAIR_COUNTER_ADD("tree_shap/path_dependent_calls", 1);
  const ShapModelPtr model = ModelFor(tree);
  XFAIR_CHECK(model->max_feature < static_cast<int>(x.size()));
  TreeShapExplanation out;
  out.phi.assign(x.size(), 0.0);
  ShapArena& arena = LocalArena();
  ArenaCall call(&arena);
  arena.EnsurePd(model->max_unique_path);
  PathDependentTree(model->trees[0], x.data(), &arena.pd, &out.phi,
                    &out.base_value);
  return out;
}

TreeShapExplanation PathDependentTreeShap(const RandomForest& forest,
                                          const Vector& x) {
  XFAIR_CHECK_MSG(forest.fitted(), "model not fitted");
  XFAIR_SPAN("tree_shap/path_dependent");
  XFAIR_COUNTER_ADD("tree_shap/path_dependent_calls", 1);
  const ShapModelPtr model = ModelFor(forest);
  const size_t d = x.size();
  XFAIR_CHECK(model->max_feature < static_cast<int>(d));
  const size_t num_trees = model->trees.size();
  // Slot d carries the base value so one reduction covers everything.
  Vector acc = ParallelReduceVector(
      0, num_trees, d + 1, [&](const ChunkRange& chunk, Vector* out) {
        ShapArena& arena = LocalArena();
        ArenaCall call(&arena);
        arena.EnsurePd(model->max_unique_path);
        for (size_t t = chunk.begin; t < chunk.end; ++t) {
          PathDependentTree(model->trees[t], x.data(), &arena.pd, out,
                            &(*out)[d]);
        }
      });
  const double inv = 1.0 / static_cast<double>(num_trees);
  TreeShapExplanation out;
  out.phi.assign(acc.begin(), acc.begin() + static_cast<long>(d));
  for (double& v : out.phi) v *= inv;
  out.base_value = acc[d] * inv;
  return out;
}

TreeShapExplanation PathDependentTreeShapMargin(
    const GradientBoostedTrees& gbm, const Vector& x) {
  XFAIR_CHECK_MSG(gbm.fitted(), "model not fitted");
  XFAIR_SPAN("tree_shap/path_dependent");
  XFAIR_COUNTER_ADD("tree_shap/path_dependent_calls", 1);
  const ShapModelPtr model = ModelFor(gbm);
  const size_t d = x.size();
  XFAIR_CHECK(model->max_feature < static_cast<int>(d));
  Vector acc = ParallelReduceVector(
      0, model->trees.size(), d + 1,
      [&](const ChunkRange& chunk, Vector* out) {
        ShapArena& arena = LocalArena();
        ArenaCall call(&arena);
        arena.EnsurePd(model->max_unique_path);
        for (size_t t = chunk.begin; t < chunk.end; ++t) {
          PathDependentTree(model->trees[t], x.data(), &arena.pd, out,
                            &(*out)[d]);
        }
      });
  TreeShapExplanation out;
  out.phi.assign(acc.begin(), acc.begin() + static_cast<long>(d));
  for (double& v : out.phi) v *= gbm.learning_rate();
  out.base_value = gbm.bias() + gbm.learning_rate() * acc[d];
  return out;
}

void TreeShapBatchInto(const DecisionTree& tree, const Matrix& xs,
                       Matrix* phi, Vector* base_values) {
  XFAIR_CHECK_MSG(tree.fitted(), "model not fitted");
  XFAIR_SPAN("tree_shap/batch");
  XFAIR_LATENCY_NS("latency/tree_shap_batch_ns");
  CountBatch(xs.rows());
  PathDependentBatch(ModelFor(tree), BatchMode::kTree, 1.0, 0.0, xs, phi,
                     base_values);
}

void TreeShapBatchInto(const RandomForest& forest, const Matrix& xs,
                       Matrix* phi, Vector* base_values) {
  XFAIR_CHECK_MSG(forest.fitted(), "model not fitted");
  XFAIR_SPAN("tree_shap/batch");
  XFAIR_LATENCY_NS("latency/tree_shap_batch_ns");
  CountBatch(xs.rows());
  const ShapModelPtr model = ModelFor(forest);
  const double inv = 1.0 / static_cast<double>(model->trees.size());
  PathDependentBatch(model, BatchMode::kForestMean, inv, 0.0, xs, phi,
                     base_values);
}

void TreeShapBatchMarginInto(const GradientBoostedTrees& gbm,
                             const Matrix& xs, Matrix* phi,
                             Vector* base_values) {
  XFAIR_CHECK_MSG(gbm.fitted(), "model not fitted");
  XFAIR_SPAN("tree_shap/batch");
  XFAIR_LATENCY_NS("latency/tree_shap_batch_ns");
  CountBatch(xs.rows());
  PathDependentBatch(ModelFor(gbm), BatchMode::kGbmMargin,
                     gbm.learning_rate(), gbm.bias(), xs, phi, base_values);
}

TreeShapBatchExplanation TreeShapBatch(const DecisionTree& tree,
                                       const Matrix& xs) {
  TreeShapBatchExplanation out;
  TreeShapBatchInto(tree, xs, &out.phi, &out.base_values);
  return out;
}

TreeShapBatchExplanation TreeShapBatch(const RandomForest& forest,
                                       const Matrix& xs) {
  TreeShapBatchExplanation out;
  TreeShapBatchInto(forest, xs, &out.phi, &out.base_values);
  return out;
}

TreeShapBatchExplanation TreeShapBatchMargin(const GradientBoostedTrees& gbm,
                                             const Matrix& xs) {
  TreeShapBatchExplanation out;
  TreeShapBatchMarginInto(gbm, xs, &out.phi, &out.base_values);
  return out;
}

TreeShapExplanation InterventionalTreeShap(const DecisionTree& tree,
                                           const Matrix& background,
                                           const Vector& x) {
  XFAIR_CHECK_MSG(tree.fitted(), "model not fitted");
  XFAIR_CHECK(background.rows() > 0);
  XFAIR_CHECK(x.size() == background.cols());
  XFAIR_SPAN("tree_shap/interventional");
  XFAIR_COUNTER_ADD("tree_shap/interventional_calls", 1);
  XFAIR_COUNTER_ADD("tree_shap/background_rows", background.rows());
  const ShapModelPtr model = ModelFor(tree);
  XFAIR_CHECK(model->max_feature < static_cast<int>(x.size()));
  const size_t d = x.size();
  Vector acc = ParallelReduceVector(
      0, background.rows(), d + 1, [&](const ChunkRange& chunk, Vector* out) {
        ShapArena& arena = LocalArena();
        ArenaCall call(&arena);
        arena.Reserve(&arena.iv_path, model->max_unique_path + 1);
        for (size_t b = chunk.begin; b < chunk.end; ++b) {
          IvWalk(model->trees[0].data(), 0, x.data(), background.RowPtr(b),
                 &arena.iv_path, 1.0, out->data(), &(*out)[d], Factorials());
        }
      });
  const double inv = 1.0 / static_cast<double>(background.rows());
  TreeShapExplanation out;
  out.phi.assign(acc.begin(), acc.begin() + static_cast<long>(d));
  for (double& v : out.phi) v *= inv;
  out.base_value = acc[d] * inv;
  return out;
}

TreeShapExplanation InterventionalTreeShap(const RandomForest& forest,
                                           const Matrix& background,
                                           const Vector& x) {
  XFAIR_CHECK_MSG(forest.fitted(), "model not fitted");
  XFAIR_CHECK(background.rows() > 0);
  XFAIR_CHECK(x.size() == background.cols());
  XFAIR_SPAN("tree_shap/interventional");
  XFAIR_COUNTER_ADD("tree_shap/interventional_calls", 1);
  XFAIR_COUNTER_ADD("tree_shap/background_rows", background.rows());
  const size_t d = x.size();
  const ShapModelPtr model = ModelFor(forest);
  XFAIR_CHECK(model->max_feature < static_cast<int>(d));
  Vector acc = ParallelReduceVector(
      0, background.rows(), d + 1, [&](const ChunkRange& chunk, Vector* out) {
        ShapArena& arena = LocalArena();
        ArenaCall call(&arena);
        arena.Reserve(&arena.iv_path, model->max_unique_path + 1);
        for (size_t b = chunk.begin; b < chunk.end; ++b) {
          for (const std::vector<ShapNode>& nodes : model->trees) {
            IvWalk(nodes.data(), 0, x.data(), background.RowPtr(b),
                   &arena.iv_path, 1.0, out->data(), &(*out)[d],
                   Factorials());
          }
        }
      });
  const double inv = 1.0 / (static_cast<double>(background.rows()) *
                            static_cast<double>(model->trees.size()));
  TreeShapExplanation out;
  out.phi.assign(acc.begin(), acc.begin() + static_cast<long>(d));
  for (double& v : out.phi) v *= inv;
  out.base_value = acc[d] * inv;
  return out;
}

void InterventionalTreeShapBatchInto(const DecisionTree& tree,
                                     const Matrix& background,
                                     const Matrix& xs, Matrix* phi,
                                     Vector* base_values) {
  XFAIR_CHECK_MSG(tree.fitted(), "model not fitted");
  XFAIR_SPAN("tree_shap/batch_interventional");
  CountBatch(xs.rows());
  XFAIR_COUNTER_ADD("tree_shap/background_rows", background.rows());
  InterventionalBatch(ModelFor(tree), background, xs, phi, base_values);
}

void InterventionalTreeShapBatchInto(const RandomForest& forest,
                                     const Matrix& background,
                                     const Matrix& xs, Matrix* phi,
                                     Vector* base_values) {
  XFAIR_CHECK_MSG(forest.fitted(), "model not fitted");
  XFAIR_SPAN("tree_shap/batch_interventional");
  CountBatch(xs.rows());
  XFAIR_COUNTER_ADD("tree_shap/background_rows", background.rows());
  InterventionalBatch(ModelFor(forest), background, xs, phi, base_values);
}

TreeShapBatchExplanation InterventionalTreeShapBatch(const DecisionTree& tree,
                                                     const Matrix& background,
                                                     const Matrix& xs) {
  TreeShapBatchExplanation out;
  InterventionalTreeShapBatchInto(tree, background, xs, &out.phi,
                                  &out.base_values);
  return out;
}

TreeShapBatchExplanation InterventionalTreeShapBatch(
    const RandomForest& forest, const Matrix& background, const Matrix& xs) {
  TreeShapBatchExplanation out;
  InterventionalTreeShapBatchInto(forest, background, xs, &out.phi,
                                  &out.base_values);
  return out;
}

Vector InterventionalTreeShapThresholded(const DecisionTree& tree,
                                         const Matrix& xs,
                                         const std::vector<size_t>& rows,
                                         const Vector& weights,
                                         const Vector& z, double tau) {
  XFAIR_CHECK_MSG(tree.fitted(), "model not fitted");
  XFAIR_CHECK(rows.size() == weights.size());
  XFAIR_CHECK(z.size() == xs.cols());
  XFAIR_SPAN("tree_shap/thresholded");
  XFAIR_COUNTER_ADD("tree_shap/thresholded_calls", 1);
  const ShapModelPtr model = ModelFor(tree);
  XFAIR_CHECK(model->max_feature < static_cast<int>(z.size()));
  const size_t d = z.size();
  if (rows.empty()) return Vector(d, 0.0);
  const size_t dim = d + 1;
  ShapArena& caller_arena = LocalArena();
  ArenaCall caller_call(&caller_arena);
  ShapNode* thresholded = ThresholdInto(&caller_arena, model->trees[0], tau);
  const size_t ntiles = (rows.size() + kBatchTile - 1) / kBatchTile;
  caller_arena.Ensure(&caller_arena.slice_partial, ntiles * dim);
  caller_arena.Ensure(&caller_arena.pair, ntiles);
  double* tile_partial = caller_arena.slice_partial.data();
  const size_t m_cap = std::min(model->max_unique_path, kMemoMaxBits);
  ParallelForChunks(0, ntiles, [&](const ChunkRange& ichunk) {
    ShapArena& arena = LocalArena();
    ArenaCall call(&arena);
    // Size everything for a full tile regardless of this chunk's length,
    // so every worker's arena converges to the same steady-state shape.
    arena.Ensure(&arena.cols, d * kBatchTile);
    arena.Ensure(&arena.pbits, (model->max_unique_path + 1) * kTileBlocks);
    arena.Ensure(&arena.psave, (model->max_path_len + 1) * kTileBlocks);
    arena.Ensure(&arena.zbits_saved, model->max_path_len + 1);
    arena.Ensure(&arena.alive_bits, (model->max_path_len + 2) * kTileBlocks);
    arena.Ensure(&arena.bpath, model->max_unique_path + 1);
    arena.Ensure(&arena.partial, kBatchTile * dim);
    arena.Ensure(&arena.memo_vals, (uint64_t{1} << m_cap) * 2);
    arena.Ensure(&arena.memo_epoch, uint64_t{1} << m_cap);
    IvBatchCtx ctx;
    ctx.nodes = thresholded;
    ctx.z = z.data();
    ctx.dim = dim;
    ctx.path = arena.bpath.data();
    ctx.pbits = arena.pbits.data();
    ctx.psave = arena.psave.data();
    ctx.zsaved = arena.zbits_saved.data();
    ctx.alive = arena.alive_bits.data();
    ctx.m_cap = m_cap;
    ctx.memo_vals = arena.memo_vals.data();
    ctx.memo_epoch = arena.memo_epoch.data();
    ctx.epoch = &arena.epoch;
    ctx.fact = Factorials();
    for (size_t ti = ichunk.begin; ti < ichunk.end; ++ti) {
      const size_t at = ti * kBatchTile;
      const size_t tile = std::min(kBatchTile, rows.size() - at);
      ctx.tile = tile;
      ctx.nblk = (tile + kBlockLanes - 1) / kBlockLanes;
      double* cols = arena.cols.data();
      for (size_t i = 0; i < tile; ++i) {
        const double* row = xs.RowPtr(rows[at + i]);
        for (size_t f = 0; f < d; ++f) cols[f * kBatchTile + i] = row[f];
      }
      ctx.cols = cols;
      ctx.weights = weights.data() + at;
      double* acc = arena.partial.data();
      std::fill(acc, acc + tile * dim, 0.0);
      ctx.acc = acc;
      ctx.path_len = 0;
      ctx.zbits = 0;
      // Depth-0 aliveness: every instance in the tile (trailing lanes of
      // a ragged tile's last word stay dead — packs may compute over
      // them but nothing reads those lanes). Entry rows need no reset:
      // fresh-row write semantics rewrite a row before any read. A tree
      // with no nonzero leaf contributes only ±0.0 no-op adds.
      if (thresholded[0].cover != 0.0) {
        uint64_t* alive0 = arena.alive_bits.data();
        for (size_t b = 0; b < ctx.nblk; ++b) {
          const size_t lanes = std::min(kBlockLanes, tile - b * kBlockLanes);
          alive0[b] = lanes == kBlockLanes ? ~uint64_t{0}
                                           : (uint64_t{1} << lanes) - 1;
        }
        IvWalkBatch(&ctx, 0, 0, alive0);
      }
      // Tile partial: ascending-row serial sum per coordinate — the exact
      // combine the looped reference applies to its per-row vectors.
      double* part = tile_partial + ti * dim;
      for (size_t c = 0; c < dim; ++c) {
        double s = 0.0;
        for (size_t i = 0; i < tile; ++i) s += acc[i * dim + c];
        part[c] = s;
      }
    }
    XFAIR_COUNTER_ADD("tree_shap/leaf_memo_hits", ctx.memo_hits);
    XFAIR_COUNTER_ADD("tree_shap/leaf_memo_misses", ctx.memo_misses);
  });
  // Combine the tile partials per coordinate with the fixed pairwise tree.
  Vector out(d);
  for (size_t c = 0; c < d; ++c) {
    for (size_t k = 0; k < ntiles; ++k) {
      caller_arena.pair[k] = tile_partial[k * dim + c];
    }
    out[c] = PairwiseSumInPlace(caller_arena.pair.data(), ntiles);
  }
  return out;
}

CoalitionValue PathDependentGame(const DecisionTree& tree, const Vector& x) {
  XFAIR_CHECK_MSG(tree.fitted(), "model not fitted");
  const ShapModelPtr model = ModelFor(tree);
  return [model, x](const std::vector<bool>& mask) {
    return ExpValue(model->trees[0], 0, mask, x);
  };
}

CoalitionValue PathDependentGame(const RandomForest& forest, const Vector& x) {
  XFAIR_CHECK_MSG(forest.fitted(), "model not fitted");
  const ShapModelPtr model = ModelFor(forest);
  return [model, x](const std::vector<bool>& mask) {
    double acc = 0.0;
    for (const std::vector<ShapNode>& nodes : model->trees) {
      acc += ExpValue(nodes, 0, mask, x);
    }
    return acc / static_cast<double>(model->trees.size());
  };
}

CoalitionValue PathDependentGameMargin(const GradientBoostedTrees& gbm,
                                       const Vector& x) {
  XFAIR_CHECK_MSG(gbm.fitted(), "model not fitted");
  const ShapModelPtr model = ModelFor(gbm);
  const double lr = gbm.learning_rate();
  const double bias = gbm.bias();
  return [model, x, lr, bias](const std::vector<bool>& mask) {
    double acc = bias;
    for (const std::vector<ShapNode>& nodes : model->trees) {
      acc += lr * ExpValue(nodes, 0, mask, x);
    }
    return acc;
  };
}

}  // namespace xfair

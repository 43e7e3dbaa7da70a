#include "src/explain/tree_shap.h"

#include <algorithm>
#include <array>
#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "src/obs/obs.h"
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

/// Instances per SoA tile in the thresholded sweep. Large enough to
/// amortize each tree walk's shared path bookkeeping across many
/// instances, small enough that a tile's columns and accumulators stay
/// cache-resident.
constexpr size_t kBatchTile = 1024;

/// Leaf-delta memo width cap: tables are 2^m entries, so masks wider than
/// this fall back to direct per-instance computation.
constexpr size_t kMemoMaxBits = 12;

/// Node-conversion cache capacity (models, not nodes). Overflow clears
/// the whole map — simple, and refit churn past 64 live models means the
/// workload isn't explanation-serving anyway.
constexpr size_t kNodeCacheCap = 64;

/// A TreeNode in the walkers' layout.
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
  // Interventional walker scratch: the merged-interval path, and the
  // batch's per-background-chunk partials with their pairwise gather.
  std::vector<IvEntry> iv_path;
  std::vector<double> partial, pair;
  // Thresholded-sweep buffers: the thresholded tree, the SoA tile
  // (cols), the path entries' features, the leaf memo, per-tile slice
  // partials (caller-owned, workers write disjoint tiles), the
  // background's per-edge saved coalition bits, and the tile-bitvector
  // state — per-path-entry pass indicators (pbits), their per-edge-depth
  // saves (psave), and the per-depth active-instance bitvectors
  // (alive_bits), all stride kTileBlocks words per row (one bit per tile
  // lane). The sweep's tile accumulator reuses `partial` and its
  // cross-tile gather `pair`.
  std::vector<ShapNode> thresholded;
  std::vector<double> cols, memo_vals, slice_partial;
  std::vector<int> path_features;
  std::vector<uint8_t> zbits_saved;
  std::vector<uint64_t> memo_epoch, pbits, psave, alive_bits;
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

void CountBatch([[maybe_unused]] size_t instances) {
  XFAIR_COUNTER_ADD("tree_shap/batch_calls", 1);
  XFAIR_COUNTER_ADD("tree_shap/batch_instances", instances);
}

/// Per-instance interventional engine over every tree of `model` (a
/// DecisionTree is the one-tree model): background rows fan out over
/// DeterministicChunks, and the chunk partials (phi in slots 0..d-1, the
/// base value in slot d) combine in the fixed pairwise order.
TreeShapExplanation InterventionalInstance(const ShapModelPtr& model,
                                           const Matrix& background,
                                           const Vector& x) {
  XFAIR_CHECK(background.rows() > 0);
  XFAIR_CHECK(x.size() == background.cols());
  XFAIR_SPAN("tree_shap/interventional");
  XFAIR_COUNTER_ADD("tree_shap/interventional_calls", 1);
  XFAIR_COUNTER_ADD("tree_shap/background_rows", background.rows());
  const size_t d = x.size();
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

/// Batched interventional engine: instances fan out over chunks, and each
/// instance replays InterventionalInstance's background-chunk pairwise
/// reduction exactly (same chunks, same tree order, same combine, same
/// scaling).
void InterventionalBatch(const ShapModelPtr& model, const Matrix& background,
                         const Matrix& xs, Matrix* phi, Vector* base) {
  const size_t n = xs.rows();
  const size_t d = xs.cols();
  XFAIR_CHECK(background.rows() > 0);
  XFAIR_CHECK(background.cols() == d);
  XFAIR_SPAN("tree_shap/batch_interventional");
  CountBatch(n);
  XFAIR_COUNTER_ADD("tree_shap/background_rows", background.rows());
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
// couple of word-wide AND/saves, so per-instance bookkeeping collapses
// into whole-word set algebra. The single background row z keeps the
// scalar analogue (zbits + a per-edge saved bit).
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
  int* path = nullptr;   ///< Feature of each path entry.
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
        const size_t f = static_cast<size_t>(ctx->path[k]);
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
  while (idx < ctx->path_len && ctx->path[idx] != n.feature) ++idx;
  const bool existed = idx < ctx->path_len;
  if (!existed) ctx->path[ctx->path_len++] = n.feature;
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

}  // namespace

TreeShapExplanation InterventionalTreeShap(const DecisionTree& tree,
                                           const Matrix& background,
                                           const Vector& x) {
  XFAIR_CHECK_MSG(tree.fitted(), "model not fitted");
  return InterventionalInstance(ModelFor(tree), background, x);
}

TreeShapExplanation InterventionalTreeShap(const RandomForest& forest,
                                           const Matrix& background,
                                           const Vector& x) {
  XFAIR_CHECK_MSG(forest.fitted(), "model not fitted");
  return InterventionalInstance(ModelFor(forest), background, x);
}

void InterventionalTreeShapBatchInto(const DecisionTree& tree,
                                     const Matrix& background,
                                     const Matrix& xs, Matrix* phi,
                                     Vector* base_values) {
  XFAIR_CHECK_MSG(tree.fitted(), "model not fitted");
  InterventionalBatch(ModelFor(tree), background, xs, phi, base_values);
}

void InterventionalTreeShapBatchInto(const RandomForest& forest,
                                     const Matrix& background,
                                     const Matrix& xs, Matrix* phi,
                                     Vector* base_values) {
  XFAIR_CHECK_MSG(forest.fitted(), "model not fitted");
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
    arena.Ensure(&arena.path_features, model->max_unique_path + 1);
    arena.Ensure(&arena.partial, kBatchTile * dim);
    arena.Ensure(&arena.memo_vals, (uint64_t{1} << m_cap) * 2);
    arena.Ensure(&arena.memo_epoch, uint64_t{1} << m_cap);
    IvBatchCtx ctx;
    ctx.nodes = thresholded;
    ctx.z = z.data();
    ctx.dim = dim;
    ctx.path = arena.path_features.data();
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

}  // namespace xfair

#include "src/rec/knowledge_graph.h"

#include <algorithm>
#include <map>

#include "src/util/check.h"

namespace xfair {

size_t KnowledgeGraph::AddEntity(EntityType type, const std::string& name) {
  types_.push_back(type);
  names_.push_back(name);
  adjacency_.emplace_back();
  return types_.size() - 1;
}

size_t KnowledgeGraph::RelationId(const std::string& name) {
  for (size_t r = 0; r < relations_.size(); ++r) {
    if (relations_[r] == name) return r;
  }
  relations_.push_back(name);
  return relations_.size() - 1;
}

void KnowledgeGraph::AddTriple(size_t subject, const std::string& relation,
                               size_t object) {
  XFAIR_CHECK(subject < num_entities() && object < num_entities());
  const size_t rel = RelationId(relation);
  adjacency_[subject].push_back({object, rel});
  adjacency_[object].push_back({subject, rel});  // Traversable inverse.
}

EntityType KnowledgeGraph::type(size_t entity) const {
  XFAIR_CHECK(entity < num_entities());
  return types_[entity];
}

const std::string& KnowledgeGraph::name(size_t entity) const {
  XFAIR_CHECK(entity < num_entities());
  return names_[entity];
}

std::vector<KnowledgeGraph::Path> KnowledgeGraph::FindItemPaths(
    size_t user, size_t max_hops) const {
  XFAIR_CHECK(user < num_entities());
  XFAIR_CHECK(type(user) == EntityType::kUser);
  XFAIR_CHECK(max_hops >= 1);

  // Items directly linked to the user (already consumed): excluded.
  std::vector<bool> consumed(num_entities(), false);
  for (const KgEdge& e : adjacency_[user]) {
    if (type(e.target) == EntityType::kItem) consumed[e.target] = true;
  }

  // DFS over simple paths; keep the highest-relevance path per item.
  std::map<size_t, Path> best;
  Path current;
  current.entities = {user};
  current.relevance = 1.0;
  std::vector<bool> on_path(num_entities(), false);
  on_path[user] = true;

  struct Frame {
    size_t entity;
    size_t next_edge;
    double relevance_in;
  };
  std::vector<Frame> stack = {{user, 0, 1.0}};
  while (!stack.empty()) {
    Frame& top = stack.back();
    const auto& edges = adjacency_[top.entity];
    if (top.next_edge >= edges.size()) {
      on_path[top.entity] = false;
      stack.pop_back();
      current.entities.pop_back();
      if (!current.relations.empty()) current.relations.pop_back();
      continue;
    }
    const KgEdge& e = edges[top.next_edge++];
    if (on_path[e.target]) continue;
    const double relevance =
        top.relevance_in / static_cast<double>(edges.size());
    current.entities.push_back(e.target);
    current.relations.push_back(e.relation);
    if (type(e.target) == EntityType::kItem && !consumed[e.target] &&
        current.relations.size() >= 2) {
      // A recommendation path (via at least one intermediate entity).
      Path found = current;
      found.relevance = relevance;
      // Stable path-type id from the relation sequence.
      size_t h = 1469598103u;
      for (size_t r : found.relations) h = h * 1099511628211ULL + r + 1;
      found.type_id = static_cast<int>(h % 1000003);
      auto it = best.find(e.target);
      if (it == best.end() || relevance > it->second.relevance) {
        best[e.target] = std::move(found);
      }
    }
    if (current.relations.size() < max_hops) {
      // Expansion continues through any entity type: attribute-mediated
      // content paths and user-mediated collaborative paths both count
      // as explanations.
      on_path[e.target] = true;
      stack.push_back({e.target, 0, relevance});
    } else {
      current.entities.pop_back();
      current.relations.pop_back();
    }
  }

  std::vector<Path> out;
  out.reserve(best.size());
  for (auto& [item, path] : best) out.push_back(std::move(path));
  std::sort(out.begin(), out.end(), [](const Path& a, const Path& b) {
    return a.relevance > b.relevance;
  });
  return out;
}

std::vector<ExplainedCandidate> KnowledgeGraph::ToCandidates(
    const std::vector<Path>& paths,
    const std::vector<int>& item_groups) const {
  std::vector<ExplainedCandidate> out;
  out.reserve(paths.size());
  for (const Path& p : paths) {
    XFAIR_CHECK(!p.entities.empty());
    const size_t item = p.entities.back();
    XFAIR_CHECK(item < item_groups.size());
    ExplainedCandidate c;
    c.item = item;
    c.relevance = p.relevance;
    c.item_group = item_groups[item];
    c.path_type = p.type_id;
    out.push_back(c);
  }
  return out;
}

KgWorld BuildKgFromRecWorld(const RecWorld& world, size_t num_attributes,
                            uint64_t seed) {
  XFAIR_CHECK(num_attributes >= 1);
  Rng rng(seed);
  KgWorld out;
  const Interactions& ia = world.interactions;
  out.user_entities.reserve(ia.num_users());
  // Names are appended, not "u" + std::to_string(u): GCC 12 at -O3 flags
  // that overload with a spurious -Wrestrict.
  for (size_t u = 0; u < ia.num_users(); ++u) {
    out.user_entities.push_back(out.kg.AddEntity(
        EntityType::kUser, std::string("u").append(std::to_string(u))));
  }
  out.item_entities.reserve(ia.num_items());
  for (size_t i = 0; i < ia.num_items(); ++i) {
    out.item_entities.push_back(out.kg.AddEntity(
        EntityType::kItem, std::string("i").append(std::to_string(i))));
  }
  std::vector<size_t> attribute_entities;
  for (size_t a = 0; a < num_attributes; ++a) {
    attribute_entities.push_back(out.kg.AddEntity(
        EntityType::kAttribute, std::string("a").append(std::to_string(a))));
  }
  for (const auto& [u, i] : ia.pairs()) {
    out.kg.AddTriple(out.user_entities[u], "interacted",
                     out.item_entities[i]);
  }
  for (size_t i = 0; i < ia.num_items(); ++i) {
    const size_t first = rng.Below(num_attributes);
    out.kg.AddTriple(out.item_entities[i], "has_attribute",
                     attribute_entities[first]);
    if (num_attributes > 1 && rng.Bernoulli(0.5)) {
      size_t second = rng.Below(num_attributes - 1);
      if (second >= first) ++second;
      out.kg.AddTriple(out.item_entities[i], "has_attribute",
                       attribute_entities[second]);
    }
  }
  out.entity_item_groups.assign(out.kg.num_entities(), 0);
  for (size_t i = 0; i < ia.num_items(); ++i) {
    out.entity_item_groups[out.item_entities[i]] = world.item_groups[i];
  }
  return out;
}

}  // namespace xfair

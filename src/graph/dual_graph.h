// Dual graphs: the (G, G′) topology pair of the abstract MAC layer.
//
// G captures reliable links (the model always delivers over E), G′ ⊇ G
// adds unreliable links (the model may deliver over E′ \ E).  The paper
// studies three restrictions on G′ (Section 2), all of which this type
// can represent and verify:
//   * arbitrary       — only E ⊆ E′ is required;
//   * r-restricted    — every E′ edge joins nodes within r hops in G;
//   * grey zone       — nodes embed in the plane, E edges iff distance
//                       <= 1, E′ edges only up to distance c.
#pragma once

#include <optional>

#include "graph/geometry.h"
#include "graph/graph.h"

namespace ammb::graph {

/// The reliable/unreliable topology pair with an optional plane
/// embedding (present for geometric constructions).
class DualGraph {
 public:
  /// Builds a dual graph; validates E ⊆ E′ and equal node counts.
  DualGraph(Graph g, Graph gPrime);

  /// Builds a dual graph that also carries a plane embedding.
  DualGraph(Graph g, Graph gPrime, Embedding embedding);

  /// Number of nodes.
  NodeId n() const { return g_.n(); }

  /// The reliable graph G.
  const Graph& g() const { return g_; }

  /// The unreliable superset graph G′ (E ⊆ E′).
  const Graph& gPrime() const { return gPrime_; }

  /// The embedding, if this topology was built geometrically.
  const std::optional<Embedding>& embedding() const { return embedding_; }

  /// True iff {u, v} ∈ E′ \ E (an unreliable-only link).
  bool isUnreliableOnlyEdge(NodeId u, NodeId v) const {
    return gPrime_.hasEdge(u, v) && !g_.hasEdge(u, v);
  }

  /// Smallest r such that G′ is r-restricted (max over E′ edges of the
  /// endpoints' hop distance in G).  Returns std::nullopt when some E′
  /// edge joins nodes in different G components (no finite r exists).
  std::optional<int> restrictionRadius() const;

  /// True iff G′ is r-restricted for the given r >= 1.
  bool isRRestricted(int r) const;

  /// Checks the grey-zone property against the stored embedding: E
  /// edges exactly at distance <= 1, E′ edges at distance <= c.
  /// Returns false when no embedding is stored.
  bool satisfiesGreyZone(double c, double tolerance = 1e-9) const;

 private:
  void validate() const;

  Graph g_;
  Graph gPrime_;
  std::optional<Embedding> embedding_;
};

}  // namespace ammb::graph

"""Picard rank of the minimal K3 model attached to a reflexive 3-polytope.

Implements the standard toric-hypersurface count (Batyrev's h^{1,1} in
dimension 3): with p the Newton polytope and p* its polar dual,

    rho = l(p*) - 4 - sum_{facets F* of p*} l*(F*)
                    + sum_{edges E* of p*} l*(E*) . l*(E)

where E is the edge of p dual to E* and l, l* count lattice points and
relative-interior lattice points.  All are closed-form boundary counts (no
lattice point is enumerated): p* is reflexive, so l(p*) is its boundary count
plus the origin.  The correction sum is reported separately: it is the rank
of the part of the Picard lattice not visible from the ambient toric
resolution.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .polytope import Polytope3, is_reflexive, polar_dual


class NotReflexive(ValueError):
    """Raised when a Picard computation is attempted on a non-reflexive polytope."""


@dataclass(frozen=True)
class EdgePair:
    """One dual pair of edges with its lattice point counts."""

    dual_edge: tuple[int, int]  # vertex indices in p*
    edge: tuple[int, int]  # vertex indices in p
    interior_dual: int  # l*(E*)
    interior: int  # l*(E)

    @property
    def contribution(self) -> int:
        return self.interior_dual * self.interior


@dataclass(frozen=True)
class PicardBreakdown:
    rho: int
    toric_part: int
    correction: int
    dual_points: int  # l(p*)
    dual_facet_interior: tuple[int, ...]  # l*(F*) per facet of p*
    edge_pairs: tuple[EdgePair, ...]

    def __post_init__(self):
        if self.rho != self.toric_part + self.correction:
            raise AssertionError("rho is not toric part plus correction")


def _dual_edge_map(p: Polytope3, dual: Polytope3) -> list[int]:
    """For each edge of `dual`, the index of the matching edge of p.

    p is reflexive, so a vertex of the dual is the normal n of a unique
    facet (n, 1) of p; a dual edge therefore names two facets of p, and the
    matching edge of p is the one where those two facets meet.
    """
    facet_of_vertex = {n: f for f, (n, _) in enumerate(p.facets)}
    edge_of_facets = {frozenset(fs): e for e, fs in enumerate(p.edge_facets)}
    pairs = [
        edge_of_facets.get(frozenset(facet_of_vertex[dual.vertices[k]] for k in edge))
        for edge in dual.edges
    ]
    if len(pairs) != p.n_edges or set(pairs) != set(range(p.n_edges)):
        raise AssertionError("edge duality is not a bijection")
    return pairs


@lru_cache(maxsize=None)
def picard_rank(p: Polytope3) -> PicardBreakdown:
    """Picard rank with its toric/correction split; p must be reflexive."""
    try:
        reflexive = is_reflexive(p)
    except ValueError as exc:
        raise NotReflexive(str(exc)) from exc
    if not reflexive:
        raise NotReflexive("polytope is not reflexive")
    dual = polar_dual(p)
    if not is_reflexive(dual):
        raise AssertionError("polar dual of a reflexive polytope is not reflexive")
    dcounts = dual.face_counts
    pcounts = p.face_counts
    edge_of_dual_edge = _dual_edge_map(p, dual)
    pairs = tuple(
        EdgePair(
            dual_edge=dual.edges[k],
            edge=p.edges[e],
            interior_dual=dcounts.per_edge[k],
            interior=pcounts.per_edge[e],
        )
        for k, e in enumerate(edge_of_dual_edge)
    )
    # the origin is the only interior lattice point of the reflexive dual
    dual_points = dcounts.boundary + 1
    toric = dual_points - 4 - sum(dcounts.per_facet)
    correction = sum(pair.contribution for pair in pairs)
    return PicardBreakdown(
        rho=toric + correction,
        toric_part=toric,
        correction=correction,
        dual_points=dual_points,
        dual_facet_interior=dcounts.per_facet,
        edge_pairs=pairs,
    )

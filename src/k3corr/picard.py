"""Picard rank of the minimal K3 model attached to a reflexive 3-polytope.

Implements the standard toric-hypersurface count (Batyrev's h^{1,1} in
dimension 3): with p the Newton polytope and p* its polar dual,

    rho = l(p*) - 4 - sum_{facets F* of p*} l*(F*)
                    + sum_{edges E* of p*} l*(E*) . l*(E)

where E is the edge of p dual to E* and l, l* count lattice points and
relative-interior lattice points.  The correction sum is reported separately:
it is the rank of the part of the Picard lattice not visible from the
ambient toric resolution.
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


def _dual_edge_map(p: Polytope3, dual: Polytope3) -> list[tuple[int, int]]:
    """For each edge of `dual`, the matching edge of p, via incidence only.

    p is reflexive, so a vertex of the dual is the normal n of a unique
    facet (n, 1) of p; a dual edge therefore names two facets of p, and the
    matching edge of p is their shared vertex pair.
    """
    facet_of_vertex = {n: f for f, (n, _) in enumerate(p.facets)}
    edge_index = {frozenset(e): i for i, e in enumerate(p.edges)}
    pairs = []
    for i, j in dual.edges:
        fi = facet_of_vertex[dual.vertices[i]]
        fj = facet_of_vertex[dual.vertices[j]]
        shared = set(p.facet_vertices[fi]) & set(p.facet_vertices[fj])
        if len(shared) != 2 or frozenset(shared) not in edge_index:
            raise AssertionError("dual edge does not match an edge of p")
        pairs.append(edge_index[frozenset(shared)])
    if len(set(pairs)) != len(p.edges):
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
    toric = dcounts.total - 4 - sum(dcounts.per_facet)
    correction = sum(pair.contribution for pair in pairs)
    return PicardBreakdown(
        rho=toric + correction,
        toric_part=toric,
        correction=correction,
        dual_points=dcounts.total,
        dual_facet_interior=dcounts.per_facet,
        edge_pairs=pairs,
    )


def l0_rank(p: Polytope3) -> int:
    """Rank of the orthogonal complement of the toric classes: the edge sum."""
    return picard_rank(p).correction

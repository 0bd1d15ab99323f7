"""Picard rank of the minimal K3 model attached to a reflexive 3-polytope.

Implements the standard toric-hypersurface count (Batyrev's h^{1,1} in
dimension 3): with p the Newton polytope and p* its polar dual,

    rho = l(p*) - 4 - sum_{facets F* of p*} l*(F*)
                    + sum_{edges E* of p*} l*(E*) . l*(E)

where E is the edge of p dual to E* and l, l* count lattice points and
relative-interior lattice points.  One Pick pass gives p*'s counts in
closed form from p's incidence read the other way round, with no dual
hull; p* is reflexive, so l(p*) is its boundary count plus the origin.
p's own counts enter only through l*(E), one gcd per edge: the facet
counts of p cancel from the dual family's rank.  The correction sum is
reported separately: it is the rank of the part of the Picard lattice not
visible from the ambient toric resolution.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd
from typing import NamedTuple

from .intlinalg import K3CorrError
from .polytope import Polytope3, is_reflexive, pick_counts


class NotReflexive(K3CorrError):
    """Raised when a Picard computation is attempted on a non-reflexive polytope."""


class EdgePair(NamedTuple):
    """One dual pair of edges with its lattice point counts."""

    dual_edge: tuple[int, int]  # vertex indices in p*
    edge: tuple[int, int]  # vertex indices in p
    interior_dual: int  # l*(E*)
    interior: int  # l*(E)

    @property
    def contribution(self) -> int:
        return self.interior_dual * self.interior


class PicardBreakdown(NamedTuple):
    rho: int  # toric_part + correction
    toric_part: int
    correction: int
    dual_points: int  # l(p*)
    edge_pairs: tuple[EdgePair, ...]
    dual_rho: int  # rho of the polar dual's family


@lru_cache(maxsize=1024)
def picard_rank(p: Polytope3) -> PicardBreakdown:
    """Picard rank with its toric/correction split; p must be reflexive.

    `dual_rho` is p*'s rank: the same count with p and p* swapped (p** = p),
    l(p) - 4 - sum of l*(F) over the facets F of p plus the same correction.
    p's boundary holds its V vertices and the points inside its edges and
    facets, and the origin is its one interior point, so l(p) - 1 = V +
    sum of l*(E) + sum of l*(F): the facet terms cancel, and dual_rho =
    V + sum of l*(E) - 3 + correction, with l*(E) = gcd(v_j - v_i) - 1.
    """
    try:
        reflexive = is_reflexive(p)
    except K3CorrError as exc:
        raise NotReflexive(str(exc)) from exc
    if not reflexive:
        raise NotReflexive("polytope is not reflexive")
    # p* has the facet (v, 1) for each vertex v of p, at distance 1 iff v is
    # primitive; this is the reflexivity of p*
    if any(gcd(*v) != 1 for v in p.vertices):
        raise AssertionError("polar dual of a reflexive polytope is not reflexive")
    # p read the other way round: vertex f of p* is facet f of p, facet i of
    # p* is vertex i, and edge k of p* joins the two facets meeting in edge k
    dcounts = pick_counts(
        [n for n, _ in p.facets], p.edge_facets, p.edges, p.vertices
    )
    verts = p.vertices
    interior = [
        gcd(vx - ux, vy - uy, vz - uz) - 1
        for (ux, uy, uz), (vx, vy, vz) in ((verts[i], verts[j]) for i, j in p.edges)
    ]
    # sorted by dual edge (a facet pair no other edge has) and built
    # positionally: keyword construction costs a quarter of the call
    pairs = tuple(map(EdgePair._make, sorted(
        zip(p.edge_facets, p.edges, dcounts.per_edge, interior)
    )))
    # the origin is the only interior lattice point of the reflexive dual
    dual_points = dcounts.boundary + 1
    toric = dual_points - 4 - sum(dcounts.per_facet)
    correction = sum(a * b for a, b in zip(dcounts.per_edge, interior))
    rho = toric + correction
    dual_rho = len(verts) + sum(interior) - 3 + correction
    return PicardBreakdown(rho, toric, correction, dual_points, pairs, dual_rho)

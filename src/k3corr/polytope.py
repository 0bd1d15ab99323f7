"""Exact 3-dimensional polytopes over the rationals.

A polytope is built once from a point cloud by an incremental (beneath-beyond)
convex hull over exact arithmetic, after which it is immutable: vertices in
canonical lexicographic order, facets as primitive inward inequalities
<n, x> >= -c, the full facet/vertex incidence, and edges with the two facets
meeting in each.  Per-face lattice point counts follow in closed form from
that incidence (gcd and Pick); the lattice-point list is a cached box scan.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import ceil, floor, gcd, lcm
from typing import Iterable, Optional, Sequence

from .intlinalg import (
    NotUnimodular,
    det,
    fit_lattice_map,
    independent_triple,
    mat_vec,
    primitive,
    vec_dot,
)

Point = tuple  # 3-tuple of int | Fraction


class DegeneratePointSet(ValueError):
    """Raised when the input points do not affinely span R^3."""


class OriginNotInterior(ValueError):
    """Raised when an operation needs the origin strictly inside the polytope."""


def _exact(x) -> int | Fraction:
    f = Fraction(x)
    return int(f) if f.denominator == 1 else f


def _cross(u, v):
    return (
        u[1] * v[2] - u[2] * v[1],
        u[2] * v[0] - u[0] * v[2],
        u[0] * v[1] - u[1] * v[0],
    )


def _sub(u, v):
    return (u[0] - v[0], u[1] - v[1], u[2] - v[2])


def _triangle_hull(pts: list[tuple[int, int, int]]) -> list[tuple[int, int, int]]:
    """Beneath-beyond hull of integer points; returns outward-oriented triangles.

    Points already on the current hull are skipped; every returned triangle
    (a, b, c) has outward normal (b-a) x (c-a).  Coplanar triangles are merged
    into facets by the caller.
    """
    n = len(pts)
    i0 = 0
    i1 = next((i for i in range(n) if pts[i] != pts[i0]), None)
    if i1 is None:
        raise DegeneratePointSet("all points coincide")
    d01 = _sub(pts[i1], pts[i0])
    i2 = next(
        (i for i in range(n) if any(_cross(d01, _sub(pts[i], pts[i0])))), None
    )
    if i2 is None:
        raise DegeneratePointSet("points are collinear")
    normal = _cross(d01, _sub(pts[i2], pts[i0]))
    i3 = next(
        (i for i in range(n) if vec_dot(normal, _sub(pts[i], pts[i0]))), None
    )
    if i3 is None:
        raise DegeneratePointSet("points are coplanar")

    def oriented(a, b, c, opposite):
        nrm = _cross(_sub(pts[b], pts[a]), _sub(pts[c], pts[a]))
        if vec_dot(nrm, _sub(pts[opposite], pts[a])) > 0:
            return (a, c, b)
        return (a, b, c)

    faces = {
        oriented(i0, i1, i2, i3),
        oriented(i0, i1, i3, i2),
        oriented(i0, i2, i3, i1),
        oriented(i1, i2, i3, i0),
    }
    seeded = {i0, i1, i2, i3}

    for m in range(n):
        if m in seeded:
            continue
        p = pts[m]
        visible = set()
        for f in faces:
            a = pts[f[0]]
            nrm = _cross(_sub(pts[f[1]], a), _sub(pts[f[2]], a))
            if vec_dot(nrm, _sub(p, a)) > 0:
                visible.add(f)
        if not visible:
            continue
        # horizon: directed edges of visible faces whose twin face survives
        edge_owner = {}
        for f in faces:
            for e in ((f[0], f[1]), (f[1], f[2]), (f[2], f[0])):
                edge_owner[e] = f
        horizon = [
            e
            for f in visible
            for e in ((f[0], f[1]), (f[1], f[2]), (f[2], f[0]))
            if edge_owner[(e[1], e[0])] not in visible
        ]
        faces -= visible
        for u, v in horizon:
            faces.add((u, v, m))
    return sorted(faces)


class Polytope3:
    """Immutable full-dimensional rational polytope in R^3.

    Use :func:`hull` to construct one; the constructor trusts its arguments.
    """

    def __init__(self, vertices, facets, facet_vertices, edges, edge_facets):
        self.vertices: tuple[Point, ...] = vertices
        #: (primitive inward normal, offset c):  <n, x> >= -c  for all x
        self.facets: tuple[tuple[tuple[int, int, int], int | Fraction], ...] = facets
        self.facet_vertices: tuple[tuple[int, ...], ...] = facet_vertices
        self.edges: tuple[tuple[int, int], ...] = edges
        #: the two facets (f, g), f < g, that meet in each edge
        self.edge_facets: tuple[tuple[int, int], ...] = edge_facets

    # -- basic queries ----------------------------------------------------

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_facets(self) -> int:
        return len(self.facets)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def __eq__(self, other):
        return isinstance(other, Polytope3) and self.vertices == other.vertices

    def __hash__(self):
        return hash(self.vertices)

    def __repr__(self):
        return (
            f"Polytope3(V={self.n_vertices}, E={self.n_edges}, "
            f"F={self.n_facets})"
        )

    @property
    def is_lattice(self) -> bool:
        return all(isinstance(x, int) for v in self.vertices for x in v)

    @property
    def origin_interior(self) -> bool:
        return all(c > 0 for _, c in self.facets)

    def contains_point(self, p: Sequence) -> bool:
        return all(vec_dot(n, p) >= -c for n, c in self.facets)

    def contains(self, other: "Polytope3") -> bool:
        """True iff every vertex of `other` satisfies every facet inequality."""
        return all(self.contains_point(v) for v in other.vertices)

    # -- lattice data ------------------------------------------------------

    @cached_property
    def lattice_points(self) -> tuple[tuple[int, int, int], ...]:
        """All integer points of the polytope, by exact bounding-box scan."""
        los = [min(v[i] for v in self.vertices) for i in range(3)]
        his = [max(v[i] for v in self.vertices) for i in range(3)]
        ranges = [range(ceil(lo), floor(hi) + 1) for lo, hi in zip(los, his)]
        return tuple(
            p for p in itertools.product(*ranges) if self.contains_point(p)
        )

    @cached_property
    def face_counts(self) -> "FaceCounts":
        """Lattice points in each open edge and facet, in closed form.

        An edge u-v holds gcd(v - u) - 1.  A facet with primitive normal n
        has rim B = sum of its edges' gcds and normalized double area 2A =
        sum of |((vi - v0) x (vj - v0)).n| / n.n over its edges (a fan from
        its first vertex v0), so Pick gives (2A - B + 2)/2 interior points.
        """
        if not self.is_lattice:
            raise ValueError("face counts are defined for lattice polytopes")
        vs = self.vertices
        steps = [gcd(*_sub(vs[j], vs[i])) for i, j in self.edges]
        rim, area2 = [0] * self.n_facets, [0] * self.n_facets
        for (i, j), g, facet_pair in zip(self.edges, steps, self.edge_facets):
            for f in facet_pair:
                rim[f] += g
                v0 = vs[self.facet_vertices[f][0]]
                fan = _cross(_sub(vs[i], v0), _sub(vs[j], v0))
                area2[f] += abs(vec_dot(fan, self.facets[f][0]))
        per_facet = []
        for (n, _), a, b in zip(self.facets, area2, rim):
            twice_area, inexact = divmod(a, vec_dot(n, n))
            if inexact or (twice_area - b) % 2 or twice_area - b + 2 < 0:
                raise AssertionError("Pick's theorem gives no count for a facet")
            per_facet.append((twice_area - b + 2) // 2)
        per_edge = tuple(g - 1 for g in steps)
        boundary = self.n_vertices + sum(per_edge) + sum(per_facet)
        return FaceCounts(boundary, tuple(per_facet), per_edge)


@dataclass(frozen=True)
class FaceCounts:
    """Lattice points on the boundary, split by the open face they sit on."""

    boundary: int
    per_facet: tuple[int, ...]  # relative interior of each facet
    per_edge: tuple[int, ...]  # strictly between the endpoints of each edge


def hull(points: Iterable[Sequence]) -> Polytope3:
    """Exact convex hull of rational points affinely spanning R^3.

    Returns the polytope with its minimal vertex set (lexicographically
    sorted), primitive facet inequalities, incidence and edges.  Raises
    DegeneratePointSet when the affine span has dimension < 3.
    """
    cloud = sorted({tuple(_exact(c) for c in p) for p in points})
    if len(cloud) < 4:
        raise DegeneratePointSet("need at least 4 distinct points")
    scale = lcm(*(Fraction(c).denominator for p in cloud for c in p))
    ipts = [tuple(int(c * scale) for c in p) for p in cloud]

    triangles = _triangle_hull(ipts)

    # group coplanar triangles into facet planes (outward form <g, x> <= s)
    planes: dict[tuple[tuple[int, int, int], int], None] = {}
    for a, b, c in triangles:
        nrm = _cross(_sub(ipts[b], ipts[a]), _sub(ipts[c], ipts[a]))
        g = primitive(nrm)
        planes[(g, vec_dot(g, ipts[a]))] = None
    plane_list = list(planes)

    # a point is a vertex iff its incident facet normals span R^3
    on_plane = [
        [i for i, q in enumerate(ipts) if vec_dot(g, q) == s]
        for g, s in plane_list
    ]
    incident: dict[int, list[int]] = {}
    for f, members in enumerate(on_plane):
        for i in members:
            incident.setdefault(i, []).append(f)
    vertex_ids = []
    for i, fs in incident.items():
        if len(fs) < 3:
            continue
        normals = [plane_list[f][0] for f in fs]
        if any(
            det((normals[a], normals[b], normals[c]))
            for a, b, c in itertools.combinations(range(len(normals)), 3)
        ):
            vertex_ids.append(i)
    vertex_ids.sort(key=lambda i: cloud[i])
    renumber = {old: new for new, old in enumerate(vertex_ids)}
    vertices = tuple(cloud[i] for i in vertex_ids)

    facets = []
    facet_vertices = []
    for (g, s), members in zip(plane_list, on_plane):
        inward = tuple(-x for x in g)
        facets.append((inward, _exact(Fraction(s, scale))))
        facet_vertices.append(
            tuple(sorted(renumber[i] for i in members if i in renumber))
        )
    order = sorted(range(len(facets)), key=lambda f: facets[f])
    facets = tuple(facets[f] for f in order)
    facet_vertices = tuple(facet_vertices[f] for f in order)

    if any(len(fv) < 3 for fv in facet_vertices):
        raise AssertionError("facet with fewer than 3 vertices")

    # two facets share two vertices exactly when they meet in an edge
    facets_of_edge = {}
    for fa, fb in itertools.combinations(range(len(facets)), 2):
        shared = tuple(sorted(set(facet_vertices[fa]) & set(facet_vertices[fb])))
        if len(shared) == 2:
            facets_of_edge[shared] = (fa, fb)
    edges, edge_facets = zip(*sorted(facets_of_edge.items()))

    poly = Polytope3(vertices, facets, facet_vertices, edges, edge_facets)
    if poly.n_vertices - poly.n_edges + poly.n_facets != 2:
        raise AssertionError("Euler relation violated; hull is inconsistent")
    if not all(poly.contains_point(p) for p in cloud):
        raise AssertionError("hull drops an input point")
    return poly


def polar_dual(p: Polytope3) -> Polytope3:
    """Polar dual {y : <x, y> >= -1 for all x in p}; needs origin interior.

    Its vertices are n/c over the facets (n, c) of p, so (p*)* = p exactly.
    """
    if not p.origin_interior:
        raise OriginNotInterior("polar dual needs the origin strictly inside")
    return hull(
        [tuple(Fraction(x, 1) / c for x in n) for n, c in p.facets]
    )


def is_reflexive(p: Polytope3) -> bool:
    """True iff all facets of the lattice polytope p support at distance 1."""
    if not p.is_lattice:
        raise ValueError("reflexivity is defined for lattice polytopes")
    if not p.origin_interior:
        raise OriginNotInterior("reflexivity needs the origin strictly inside")
    return all(c == 1 for _, c in p.facets)


def transform(p: Polytope3, u: Sequence[Sequence[int]]) -> Polytope3:
    """Image of p under the linear map x -> u.x (u invertible over Q)."""
    return hull([mat_vec(u, v) for v in p.vertices])


def unimodular_equivalent(p: Polytope3, q: Polytope3) -> Optional[tuple]:
    """A matrix U in GL(3, Z) with U.p = q as vertex sets, or None.

    Brute force: fit one fixed independent vertex triple of p onto every
    ordered triple of q's vertices and check the whole vertex set.
    Adequate for the small vertex counts that arise here.
    """
    if (p.n_vertices, p.n_edges, p.n_facets) != (q.n_vertices, q.n_edges, q.n_facets):
        return None
    if sorted(map(len, p.facet_vertices)) != sorted(map(len, q.facet_vertices)):
        return None
    p_triple = [p.vertices[i] for i in independent_triple(p.vertices)]
    q_set = set(q.vertices)
    for cand in itertools.permutations(q.vertices, 3):
        try:
            u = fit_lattice_map(p_triple, cand)
        except NotUnimodular:
            continue
        if {mat_vec(u, v) for v in p.vertices} == q_set:
            return u
    return None


# -- polytope text format ----------------------------------------------------


def parse_points_text(text: str) -> list[tuple]:
    """Read points from the plain text format: three numbers per line,
    blank lines and ``#`` comments ignored.  Entries may be fractions."""
    pts = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 3:
            raise ValueError(f"line {lineno}: expected 3 coordinates, got {raw!r}")
        try:
            pts.append(tuple(_exact(Fraction(tok)) for tok in parts))
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"line {lineno}: bad coordinate in {raw!r}") from exc
    return pts


def points_to_text(points: Iterable[Sequence], comment: str | None = None) -> str:
    lines = [f"# {comment}"] if comment else []
    lines.extend(" ".join(str(c) for c in p) for p in points)
    return "\n".join(lines) + "\n"

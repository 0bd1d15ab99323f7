"""Exact 3-dimensional polytopes over the rationals.

A polytope is built once from a point cloud, after which it is immutable.
`hull` does it in three steps: it makes the cloud exact and distinct, in the
order given, runs an incremental (beneath-beyond) convex hull over exact
integers that gives a triangle mesh, each triangle one flat record (gx, gy,
gz, s) of its outward normal and offset, and builds the polytope from it.
A rational cloud is scaled by the lcm of its denominators; an integer cloud
has scale 1 and builds no Fraction.  The mesh inserts the cloud in list
order, so the caller orders the points: the order sets the cost, never the
result.  Clouds that are distinct integer triples already skip `hull` and
go to the mesh and the builder directly: a Newton polytope's few vertex
candidates (`weights.newton_polytope`), in lexicographic order, and a
search child's points.  The mesh's seed search alone decides that a cloud
(the empty one included) spans less than R^3, and its DegeneratePointSet
names the span.  The builder takes the cloud in any order and reads the
mesh in one pass: it groups the triangles by facet plane and hands the
planes with their corner sets to the one step that makes a polytope,
which finds the vertices in one membership pass over the corner sets,
sorts vertices and facets, checks 3 or more vertices per facet and pairs
the facets that share two vertices into edges.  The builder then checks
Euler's relation, each facet's plane through its vertices and every cloud
point contained.  The mesh is the one source of the combinatorics:
vertices in lexicographic order, facets as primitive inward inequalities
<n, x> >= -c, the full facet/vertex incidence, and edges with the two
facets meeting in each.  Per-face lattice point counts follow in closed
form from that incidence (gcd and Pick); read both ways, it gives the polar
dual's points and planes, built by the same step with no dual hull, and
its counts.  The lattice-point list is a cached scan of the columns under
the polytope's shadow.  The columns of the vertex-facet pairing matrix
<n, v> + c, each sorted, are the GL(3, Z)-invariant vertex signatures;
sorted, they are the key that buckets polytopes before the exact
equivalence test, which fits only vertex triples whose signatures match.
"""

from __future__ import annotations

import itertools
import re
from fractions import Fraction
from functools import cached_property
from math import ceil, floor, gcd, lcm
from typing import Iterable, NamedTuple, Optional, Sequence

from .intlinalg import (
    InputError,
    K3CorrError,
    NotUnimodular,
    fit_lattice_map,
    independent_triple,
    mat_vec,
)

Point = tuple  # 3-tuple of int | Fraction


class DegeneratePointSet(InputError):
    """Raised when the input points do not affinely span R^3."""


class OriginNotInterior(K3CorrError):
    """Raised when an operation needs the origin strictly inside the polytope."""


def _exact(x) -> int | Fraction:
    if type(x) is int:
        return x
    f = Fraction(x)
    return int(f) if f.denominator == 1 else f


def _triangle_hull(pts: list[tuple[int, int, int]]) -> dict[tuple, tuple]:
    """Beneath-beyond hull of integer points, as a closed triangle mesh.

    Returns {(a, b, c): (gx, gy, gz, s)}: each triangle's corner indices
    with its outward normal g = (b-a) x (c-a) and offset s = <g, a>, one flat
    record computed once when the triangle is made.  A point sees a
    triangle when <g, p> > s; points on or inside the current hull are
    skipped, so a corner may lie inside a facet or an edge.  Coplanar
    triangles are merged into facets by the caller.

    Points are inserted in list order, also when the seed tetrahedron is
    drawn: the first point, the first point apart from it, the first one off
    their line (a nonzero cross product, written out) and the first one off
    that plane.  The order sets the triangulation and the cost, never the
    hull: when the first points are known vertices, most later points lie
    beneath the hull and cost one visibility scan.  The seed search is the
    only code that raises DegeneratePointSet: each step fails exactly when
    the affine span is too small for it, so the message names the span
    whatever the order or number of points, none included.
    """
    n = len(pts)
    i1 = next((i for i in range(1, n) if pts[i] != pts[0]), None)
    if i1 is None:
        raise DegeneratePointSet("fewer than 2 distinct points")
    ox, oy, oz = pts[0]
    x, y, z = pts[i1]
    ux, uy, uz = x - ox, y - oy, z - oz
    for i2 in range(i1 + 1, n):
        x, y, z = pts[i2]
        vx, vy, vz = x - ox, y - oy, z - oz
        nx, ny, nz = uy * vz - uz * vy, uz * vx - ux * vz, ux * vy - uy * vx
        if nx or ny or nz:
            break
    else:
        raise DegeneratePointSet("points are collinear")
    s0 = nx * ox + ny * oy + nz * oz
    for i3 in range(i2 + 1, n):
        x, y, z = pts[i3]
        side = nx * x + ny * y + nz * z - s0
        if side:
            break
    else:
        raise DegeneratePointSet("points are coplanar")
    if side > 0:
        i1, i2 = i2, i1

    def plane(a, b, c):
        ax, ay, az = pts[a]
        bx, by, bz = pts[b]
        cx, cy, cz = pts[c]
        ux, uy, uz = bx - ax, by - ay, bz - az
        vx, vy, vz = cx - ax, cy - ay, cz - az
        gx, gy, gz = uy * vz - uz * vy, uz * vx - ux * vz, ux * vy - uy * vx
        return gx, gy, gz, gx * ax + gy * ay + gz * az

    # (0, i1, i2) faces away from i3; the other three share its orientation
    seed = [(0, i1, i2), (0, i3, i1), (i1, i3, i2), (i2, i3, 0)]
    faces = {f: plane(*f) for f in seed}
    for m in range(n):
        if m in (0, i1, i2, i3):
            continue
        x, y, z = pts[m]
        visible = [
            f for f, (gx, gy, gz, s) in faces.items() if gx * x + gy * y + gz * z > s
        ]
        if not visible:
            continue
        # horizon: directed edges of visible faces whose reverse is not visible
        rim = {e for a, b, c in visible for e in ((a, b), (b, c), (c, a))}
        for f in visible:
            del faces[f]
        for u, v in rim:
            if (v, u) not in rim:
                faces[u, v, m] = plane(u, v, m)
    return faces


class _PolytopeFields(NamedTuple):
    vertices: tuple[Point, ...]
    #: (primitive inward normal, offset c):  <n, x> >= -c  for all x
    facets: tuple[tuple[tuple[int, int, int], int | Fraction], ...]
    facet_vertices: tuple[tuple[int, ...], ...]
    edges: tuple[tuple[int, int], ...]
    #: the two facets (f, g), f < g, that meet in each edge
    edge_facets: tuple[tuple[int, int], ...]


class Polytope3(_PolytopeFields):
    """Immutable full-dimensional rational polytope in R^3.

    Use :func:`hull` to construct one; the constructor trusts its arguments.
    Equality and hashing see the five fields, all of which hull derives from
    the vertex set.  Assigning any attribute raises AttributeError; the
    cached properties are written to the instance dict by cached_property,
    not through __setattr__.
    """

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r} of a Polytope3")

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
        x, y, z = p
        return all(
            nx * x + ny * y + nz * z >= -c for (nx, ny, nz), c in self.facets
        )

    # -- lattice data ------------------------------------------------------

    @cached_property
    def lattice_points(self) -> tuple[tuple[int, int, int], ...]:
        """All integer points of the polytope, in lexicographic order.

        Scans the (x, y) columns under the polytope's shadow, not its
        bounding box.  The slice at X = x is a polygon whose corners lie on
        edges, so its y-range runs from the least to the greatest y at which
        an edge meets that plane.  Every column in that range meets the
        polytope, so facets parallel to the z-axis cut none of them.
        An edge that leaves the plane meets it in one y, whose ceil and
        floor are exact floor divisions, of ints for a lattice polytope and
        of Fractions otherwise.  An edge with equal x at both ends adds
        nothing: each of its ends also ends an edge that leaves the plane.
        With every offset scaled by the lcm L of their denominators, a facet
        (n, c) reads L n_z z >= -(L c + L n_x x + L n_y y) over the integers,
        so each column's z-interval is an exact integer ceil/floor division.
        """
        scale = lcm(*(c.denominator for _, c in self.facets))  # an int's is 1
        rows = [
            (scale * nx, scale * ny, scale * nz, int(scale * c))
            for (nx, ny, nz), c in self.facets
        ]
        floors = [r for r in rows if r[2] > 0]  # lower bounds on z
        ceilings = [r for r in rows if r[2] < 0]  # upper bounds on z
        verts = self.vertices
        shadow: dict[int, list[int]] = {}  # x -> [least y, greatest y]
        for i, j in self.edges:
            (ux, uy, _), (vx, vy, _) = sorted((verts[i], verts[j]))
            dx, dy = vx - ux, vy - uy
            if not dx:
                continue
            for x in range(ceil(ux), floor(vx) + 1):
                num = uy * dx + (x - ux) * dy  # y = num / dx
                lo, hi = -(-num // dx), num // dx
                span = shadow.setdefault(x, [lo, hi])
                if lo < span[0]:
                    span[0] = lo
                if hi > span[1]:
                    span[1] = hi
        points = []
        for x in sorted(shadow):
            ylo, yhi = shadow[x]
            for y in range(ylo, yhi + 1):
                lo = max(-((c + a * x + b * y) // d) for a, b, d, c in floors)
                hi = min((c + a * x + b * y) // -d for a, b, d, c in ceilings)
                points.extend((x, y, z) for z in range(lo, hi + 1))
        return tuple(points)

    @cached_property
    def face_counts(self) -> "FaceCounts":
        """Lattice points in each open edge and facet (see :func:`pick_counts`)."""
        if not self.is_lattice:
            raise K3CorrError("face counts are defined for lattice polytopes")
        normals = [n for n, _ in self.facets]
        return pick_counts(self.vertices, self.edges, self.edge_facets, normals)

    # -- GL(3, Z) invariants -----------------------------------------------

    @cached_property
    def vertex_signatures(self) -> tuple[tuple[tuple, ...], ...]:
        """Per vertex, its pairing-matrix column: the sorted (c, <n, v> + c)
        over all facets (n, c).  A lattice map x -> U.x sends facet (n, c) to
        (U^-T n, c), still primitive, and keeps every <n, v>, so it sends each
        vertex to one with the same signature, for rational polytopes too."""
        facets = self.facets
        return tuple(
            tuple(sorted((c, nx * x + ny * y + nz * z + c) for (nx, ny, nz), c in facets))
            for x, y, z in self.vertices
        )

    @cached_property
    def gl3z_key(self) -> tuple:
        """The pairing matrix's columns, each sorted, in sorted order: the
        same for all GL(3, Z) images of the polytope.  Different keys rule
        equivalence out; equal keys decide nothing."""
        return tuple(sorted(self.vertex_signatures))


class FaceCounts(NamedTuple):
    """Lattice points on the boundary, split by the open face they sit on."""

    boundary: int
    per_facet: tuple[int, ...]  # relative interior of each facet
    per_edge: tuple[int, ...]  # strictly between the endpoints of each edge


def pick_counts(points, edges, edge_faces, normals) -> FaceCounts:
    """Lattice points in each open edge and facet of a lattice polytope.

    Takes the vertices, the edges as vertex index pairs, the two facets
    meeting in each edge and the primitive facet normals.  An edge u-v holds
    gcd(v - u) - 1.  A facet with normal n has rim B = sum of its edges'
    gcds and normalized double area 2A = sum of |((vi - v0) x (vj - v0)).n|
    / n.n over its edges (a fan from v0, the first edge endpoint met on the
    facet), so Pick gives (2A - B + 2)/2 interior points.
    """
    steps = []
    rim, area2, anchor = [0] * len(normals), [0] * len(normals), {}
    for (i, j), faces in zip(edges, edge_faces):
        p, q = points[i], points[j]
        g = gcd(q[0] - p[0], q[1] - p[1], q[2] - p[2])
        steps.append(g)
        for f in faces:
            rim[f] += g
            v0 = anchor.setdefault(f, p)
            ux, uy, uz = p[0] - v0[0], p[1] - v0[1], p[2] - v0[2]
            vx, vy, vz = q[0] - v0[0], q[1] - v0[1], q[2] - v0[2]
            cx, cy, cz = uy * vz - uz * vy, uz * vx - ux * vz, ux * vy - uy * vx
            nx, ny, nz = normals[f]
            area2[f] += abs(nx * cx + ny * cy + nz * cz)
    per_facet = []
    for (nx, ny, nz), a, b in zip(normals, area2, rim):
        twice_area, inexact = divmod(a, nx * nx + ny * ny + nz * nz)
        if inexact or (twice_area - b) % 2 or twice_area - b + 2 < 0:
            raise AssertionError("Pick's theorem gives no count for a facet")
        per_facet.append((twice_area - b + 2) // 2)
    per_edge = tuple(g - 1 for g in steps)
    boundary = len(points) + sum(per_edge) + sum(per_facet)
    return FaceCounts(boundary, tuple(per_facet), per_edge)


def hull(points: Iterable[Sequence]) -> Polytope3:
    """Exact convex hull of rational points affinely spanning R^3.

    Returns the polytope with its minimal vertex set (lexicographically
    sorted), primitive facet inequalities, incidence and edges, all read off
    the triangle mesh of :func:`_triangle_hull` by :func:`_from_mesh`.
    The mesh's seed search raises DegeneratePointSet when the affine span
    has dimension < 3, as it has for fewer than 4 distinct points.  Points
    are inserted in the order given, the first of repeated points kept: the
    order sets the cost, never the result.

    Every point is made exact coordinate by coordinate; an int stays as it
    is.  Rational points are scaled to integers by the lcm of their
    denominators, and offsets scaled back.  Integer points take no Fraction
    round trip: the scale is 1 and the offsets stay ints.
    """
    cloud = list(dict.fromkeys(tuple(map(_exact, p)) for p in points))
    scale = lcm(*(c.denominator for p in cloud for c in p if type(c) is not int))
    ipts = cloud if scale == 1 else [tuple(int(c * scale) for c in p) for p in cloud]
    return _from_mesh(cloud, scale, _triangle_hull(ipts))


def _assemble(points: Sequence, planes: list, corners: list[set[int]]) -> Polytope3:
    """The polytope with facet planes `planes`, each ((nx, ny, nz), c) in
    the inward form <n, x> >= -c, where `corners[k]` holds the indices into
    `points` of the points on plane k.  The one place a Polytope3 is made.

    A point on three or more planes is a vertex (two facets of a 3-polytope
    share at most an edge), found by one membership pass over the corner
    sets.  Vertices are numbered in lexicographic order and facets in
    sorted plane order, so a polytope's fields do not depend on the order
    in which its points or planes came.  Each facet lists its vertices in
    ascending order; one with fewer than 3 raises AssertionError.
    Two facets of a 3-polytope meet in a face, so two that share two
    vertices meet in the edge those two span: with the facets listed at
    each vertex, a facet pairs with the earlier facets listed at two of its
    vertices and never looks at a facet it does not touch.  As the later
    facet's list is ascending, each edge is (i, j) with i < j and its facets
    are (f, g) with f < g; the edges are in sorted order.
    """
    once, twice, on3 = set(), set(), set()
    for plane in corners:
        on3 |= twice & plane
        twice |= once & plane
        once |= plane
    vertex_ids = sorted(on3, key=points.__getitem__)
    renumber = {old: new for new, old in enumerate(vertex_ids)}

    facets, facet_vertices, pairs = [], [], []
    at: list[list[int]] = [[] for _ in vertex_ids]
    for f, k in enumerate(sorted(range(len(planes)), key=planes.__getitem__)):
        facets.append(planes[k])
        fv = sorted([renumber[i] for i in corners[k] & on3])
        if len(fv) < 3:
            raise AssertionError("facet with fewer than 3 vertices")
        facet_vertices.append(tuple(fv))
        first: dict[int, int] = {}
        for i in fv:
            for g in at[i]:
                if g in first:
                    pairs.append(((first[g], i), (g, f)))
                else:
                    first[g] = i
            at[i].append(f)
    pairs.sort()
    edges, edge_facets = zip(*pairs)
    vertices = tuple([points[i] for i in vertex_ids])
    return Polytope3(
        vertices, tuple(facets), tuple(facet_vertices), edges, edge_facets
    )


def _from_mesh(cloud: list, scale: int, mesh: dict[tuple, tuple]) -> Polytope3:
    """The polytope of a duplicate-free cloud, in any order, from its
    triangle mesh, read in one pass.

    `mesh` is :func:`_triangle_hull` of the cloud scaled by `scale` (the
    cloud itself when `scale` is 1).  One loop over the triangles groups
    their corners by facet plane, and :func:`_assemble` builds the polytope
    from the planes and their corner sets.  Then checks that Euler's
    relation holds, that each facet's plane passes through its vertices and
    that every cloud point is contained, and raises AssertionError
    otherwise.
    """
    # group the triangles by facet plane (inward form <n, x> >= -c, made
    # primitive by one gcd, which divides the offset as the corners are
    # integers), numbering the planes as they are first seen
    ids: dict[tuple[int, int, int, int], int] = {}
    corners: list[set[int]] = []
    for (a, b, c), (gx, gy, gz, s) in mesh.items():
        d = gcd(gx, gy, gz)
        f = ids.setdefault((-gx // d, -gy // d, -gz // d, s // d), len(corners))
        if f < len(corners):
            corners[f].update((a, b, c))
        else:
            corners.append({a, b, c})
    planes = [
        ((nx, ny, nz), s if scale == 1 else _exact(Fraction(s, scale)))
        for nx, ny, nz, s in ids
    ]
    p = _assemble(cloud, planes, corners)

    vertices, facets = p.vertices, p.facets
    if len(vertices) - len(p.edges) + len(facets) != 2:
        raise AssertionError("Euler relation violated; hull is inconsistent")
    for ((nx, ny, nz), c), fv in zip(facets, p.facet_vertices):
        for i in fv:
            x, y, z = vertices[i]
            if nx * x + ny * y + nz * z != -c:
                raise AssertionError("facet plane misses one of its vertices")
    for (nx, ny, nz), c in facets:
        for x, y, z in cloud:
            if nx * x + ny * y + nz * z < -c:
                raise AssertionError("hull drops an input point")
    return p


def polar_dual(p: Polytope3) -> Polytope3:
    """Polar dual {y : <x, y> >= -1 for all x in p}; needs origin interior.

    Read off p's incidence and built by the shared step :func:`_assemble`,
    with no hull.  Facet f = (n, c) of p is the point n/c, and vertex v of
    p the plane <v, y> >= -1, made primitive: with L the lcm of v's
    denominators and G the gcd of L v, it is (L v / G, L / G).  The points
    on that plane are p's facets through v.  The step orders vertices and
    facets as `hull` does, so (p*)* = p exactly, for rational p too.  A
    coordinate that c divides is an int, and so is an offset that G
    divides: a reflexive p (every c is 1, every vertex primitive) has an
    integer dual, built with no Fraction.
    """
    if not p.origin_interior:
        raise OriginNotInterior("polar dual needs the origin strictly inside")
    points = [
        tuple(x // c if not x % c else Fraction(x, c) for x in n) for n, c in p.facets
    ]
    planes = []
    for v in p.vertices:
        scale = lcm(*(x.denominator for x in v))  # an int's denominator is 1
        m = [x.numerator * (scale // x.denominator) for x in v]
        g = gcd(*m)
        offset = scale // g if not scale % g else Fraction(scale, g)
        planes.append((tuple([x // g for x in m]), offset))
    through: list[set[int]] = [set() for _ in planes]
    for f, fv in enumerate(p.facet_vertices):
        for i in fv:
            through[i].add(f)
    return _assemble(points, planes, through)


def is_reflexive(p: Polytope3) -> bool:
    """True iff all facets of the lattice polytope p support at distance 1."""
    if not p.is_lattice:
        raise K3CorrError("reflexivity is defined for lattice polytopes")
    if not p.origin_interior:
        raise OriginNotInterior("reflexivity needs the origin strictly inside")
    return all(c == 1 for _, c in p.facets)


def transform(p: Polytope3, u: Sequence[Sequence[int]]) -> Polytope3:
    """Image of p under the linear map x -> u.x (u invertible over Q)."""
    return hull([mat_vec(u, v) for v in p.vertices])


def unimodular_equivalent(p: Polytope3, q: Polytope3) -> Optional[tuple]:
    """A matrix U in GL(3, Z) with U.p = q as vertex sets, or None.

    None at once when the invariant keys differ.  Otherwise one fixed
    independent vertex triple of p is fitted onto every ordered triple of
    q's vertices with the same per-vertex signatures (a lattice map must
    preserve them), in the order of itertools.permutations, and each fit
    is checked on the whole vertex set.  The key only prunes: every answer
    is an exact fit.
    """
    if p.gl3z_key != q.gl3z_key:
        return None
    trip = independent_triple(p.vertices)
    p_triple = [p.vertices[i] for i in trip]
    p_sig, q_sig = p.vertex_signatures, q.vertex_signatures
    a, b, c = (
        [j for j, sig in enumerate(q_sig) if sig == p_sig[i]] for i in trip
    )
    q_set = set(q.vertices)
    for i, j, k in itertools.product(a, b, c):
        if i == j or j == k or i == k:
            continue
        try:
            u = fit_lattice_map(p_triple, [q.vertices[m] for m in (i, j, k)])
        except NotUnimodular:
            continue
        if {mat_vec(u, v) for v in p.vertices} == q_set:
            return u
    return None


# -- polytope text format ----------------------------------------------------


#: an integer, a fraction p/q with q > 0 or a plain decimal, in ASCII
#: digits: Fraction alone would also take digit-group underscores (on some
#: Python versions only) and non-ASCII digits.  Compiled on first use, not
#: on import.
_COORDINATE = r"[+-]?([0-9]+(/0*[1-9][0-9]*|\.[0-9]*)?|\.[0-9]+)"


def parse_points_text(text: str) -> list[tuple]:
    """Read points from the plain text format: three numbers per line,
    blank lines and ``#`` comments ignored.  Entries are integers, fractions
    p/q or plain decimals, and nothing else on any Python version.  Exponent
    notation is rejected: a short token such as 1e100000000 stands for an
    integer too large to compute with."""
    pts = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 3:
            raise InputError(f"line {lineno}: expected 3 coordinates, got {raw!r}")
        if "e" in line or "E" in line:
            raise InputError(f"line {lineno}: exponent notation in {raw!r}")
        try:
            if not all(re.fullmatch(_COORDINATE, tok) for tok in parts):
                raise ValueError("not an integer, fraction or plain decimal")
            # Fraction still refuses an integer past the int-string digit limit
            pts.append(tuple(_exact(Fraction(tok)) for tok in parts))
        except ValueError as exc:
            raise InputError(f"line {lineno}: bad coordinate in {raw!r}") from exc
    return pts


def points_to_text(points: Iterable[Sequence], comment: str | None = None) -> str:
    lines = [f"# {comment}"] if comment else []
    lines.extend(" ".join(str(c) for c in p) for p in points)
    return "\n".join(lines) + "\n"

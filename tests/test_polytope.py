"""Hulls, duality, reflexivity, lattice points, equivalence.

The hull oracle is an exhaustive supporting-plane scan over all point
triples, a completely different algorithm from the incremental insertion
used by the implementation.
"""

import itertools
import random
from collections import Counter, defaultdict
from fractions import Fraction
from math import ceil, comb, floor, gcd, lcm

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from k3corr import polytope
from k3corr.intlinalg import (
    IllPosedWeights,
    InputError,
    adjugate,
    cross,
    det,
    identity,
    independent_triple,
    is_unimodular,
    mat_mul,
    mat_vec,
    transpose,
    vec_dot,
)
from k3corr.picard import picard_rank
from k3corr.polytope import (
    DegeneratePointSet,
    FaceCounts,
    OriginNotInterior,
    Polytope3,
    hull,
    is_reflexive,
    parse_points_text,
    points_to_text,
    polar_dual,
    transform,
    unimodular_equivalent,
)
from k3corr.weights import WeightSystem, anticanonical_points, newton_polytope

F = Fraction


def cube():
    return hull([(x, y, z) for x in (-1, 1) for y in (-1, 1) for z in (-1, 1)])


def octahedron():
    return hull([(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)])


def quartic_simplex():
    return hull([(-1, -1, -1), (3, -1, -1), (-1, 3, -1), (-1, -1, 3)])


def primitive(v):
    """Divide an integer vector by the gcd of its entries (positive gcd)."""
    g = gcd(*v)
    if g == 0:
        raise ValueError("zero vector has no primitive form")
    return tuple(x // g for x in v)


def brute_force_facets(points):
    """All supporting planes, as (primitive inward normal, offset) pairs."""
    pts = [tuple(Fraction(c) for c in p) for p in points]
    planes = set()
    for a, b, c in itertools.combinations(pts, 3):
        n = (
            (b[1] - a[1]) * (c[2] - a[2]) - (b[2] - a[2]) * (c[1] - a[1]),
            (b[2] - a[2]) * (c[0] - a[0]) - (b[0] - a[0]) * (c[2] - a[2]),
            (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0]),
        )
        if not any(n):
            continue
        vals = [vec_dot(n, p) - vec_dot(n, a) for p in pts]
        if all(v >= 0 for v in vals):
            inward = n
        elif all(v <= 0 for v in vals):
            inward = tuple(-x for x in n)
        else:
            continue
        # clear denominators, then make primitive
        scale = 1
        for x in inward:
            scale = scale * Fraction(x).denominator
        ni = primitive(tuple(int(x * scale) for x in inward))
        planes.add((ni, -vec_dot(ni, a)))
    return planes


# -- hull ---------------------------------------------------------------------


def test_hull_cube_counts():
    p = cube()
    assert (p.n_vertices, p.n_edges, p.n_facets) == (8, 12, 6)


def test_hull_drops_interior_points():
    p = hull([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)])
    # origin is inside conv of the rest
    assert (0, 0, 0) not in p.vertices
    assert p.n_vertices == 4


def test_hull_simplex_with_interior_point():
    p = hull(
        [(0, 0, 0), (4, 0, 0), (0, 4, 0), (0, 0, 4), (1, 1, 1)]
    )
    assert p.n_vertices == 4
    assert (1, 1, 1) not in p.vertices


def test_hull_degenerate_inputs():
    with pytest.raises(DegeneratePointSet):
        hull([(0, 0, 0), (1, 0, 0), (2, 0, 0), (3, 0, 0)])  # collinear
    with pytest.raises(DegeneratePointSet):
        hull([(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)])  # coplanar
    with pytest.raises(DegeneratePointSet):
        hull([(0, 0, 0), (1, 1, 1)])


def test_hull_delta_1_6_14_21(rows_by_key):
    row = rows_by_key["14-28-45-51"]
    pts = [row.weights[0].monomial_point(m) for m in row.column_monomials(0)]
    p = hull(pts)
    assert (p.n_vertices, p.n_edges, p.n_facets) == (4, 6, 4)
    for q in pts:
        assert p.contains_point(q)
        assert all(vec_dot(n, q) >= -c for n, c in p.facets)


point_sets = st.lists(
    st.tuples(
        st.integers(-4, 4), st.integers(-4, 4), st.integers(-4, 4)
    ),
    min_size=4,
    max_size=12,
)


@settings(max_examples=120, deadline=None)
@given(point_sets)
def test_hull_matches_brute_force(points):
    try:
        p = hull(points)
    except DegeneratePointSet:
        # oracle view of degeneracy: no triple gives two-sided support
        return
    assert set(p.facets) == brute_force_facets(points)
    assert all(p.contains_point(q) for q in points)
    assert p.n_vertices - p.n_edges + p.n_facets == 2
    # each vertex is extreme: dropping it from the input shrinks the hull
    others = [q for q in points if tuple(q) not in p.vertices]
    for v in p.vertices:
        rest = [q for q in points if tuple(q) != v]
        try:
            q = hull(rest)
        except DegeneratePointSet:
            continue
        assert not q.contains_point(v)
    # each non-vertex input point is inside the hull of the vertices
    for q in others:
        assert p.contains_point(q)


def polytope_fields(p):
    return p.vertices, p.facets, p.facet_vertices, p.edges, p.edge_facets


@settings(max_examples=150, deadline=None)
@given(point_sets)
@example([(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)])
@example([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)])
def test_from_mesh_matches_hull(points):
    """On a sorted, duplicate-free integer cloud, the builder run on the
    triangle mesh gives hull's polytope, and the mesh's offsets are all
    positive exactly when the origin is interior."""
    cloud = sorted(set(points))
    try:
        mesh = polytope._triangle_hull(cloud)
    except DegeneratePointSet:
        with pytest.raises(DegeneratePointSet):
            hull(points)
        return
    p = hull(points)
    assert polytope_fields(polytope._from_mesh(cloud, 1, mesh)) == polytope_fields(p)
    assert all(s > 0 for *_, s in mesh.values()) == p.origin_interior


rational_point_sets = st.lists(
    st.tuples(
        *(
            st.builds(
                Fraction,
                st.integers(-6, 6),
                st.integers(1, 3),
            )
            for _ in range(3)
        )
    ),
    min_size=4,
    max_size=8,
)


@settings(max_examples=150, deadline=None)
@given(point_sets, st.data())
def test_from_mesh_matches_hull_in_any_insertion_order(points, data):
    """The order of the cloud changes only the triangulation: the builder,
    given the cloud in that order, still gives hull's polytope, and the
    mesh's offsets are all positive exactly when the origin is interior."""
    cloud = data.draw(st.permutations(sorted(set(points))))
    try:
        mesh = polytope._triangle_hull(cloud)
    except DegeneratePointSet:
        with pytest.raises(DegeneratePointSet):
            hull(points)
        return
    p = hull(points)
    assert polytope_fields(polytope._from_mesh(cloud, 1, mesh)) == polytope_fields(p)
    assert all(s > 0 for *_, s in mesh.values()) == p.origin_interior


@settings(max_examples=150, deadline=None)
@given(st.one_of(point_sets, rational_point_sets), st.data())
def test_hull_of_a_shuffled_cloud_equals_hull_of_the_sorted_cloud(points, data):
    """hull inserts its points in the order given, repeats and all: the
    order sets the triangulation, never the polytope."""
    shuffled = data.draw(st.permutations(points))
    try:
        want = hull(sorted(points))
    except DegeneratePointSet:
        with pytest.raises(DegeneratePointSet):
            hull(shuffled)
        return
    assert polytope_fields(hull(shuffled)) == polytope_fields(want)


def test_hull_meshes_the_distinct_points_in_first_occurrence_order(monkeypatch):
    """Repeats, also an int against an equal Fraction, are dropped and the
    first occurrence keeps its place; a rational cloud is scaled in place."""
    meshed, real = [], polytope._triangle_hull

    def spy(pts):
        meshed.append(list(pts))
        return real(pts)

    monkeypatch.setattr(polytope, "_triangle_hull", spy)
    half = Fraction(1, 2)
    hull([(0, 0, 1), (1, 0, 0), (0, 0, 1), (-1, -1, -1), (Fraction(1), 0, 0), (0, 1, 0)])
    hull([(0, half, 0), (-1, -1, -1), (0, half, 0), (1, 0, 0), (0, 0, 1), (1, 0, 0)])
    assert meshed == [
        [(0, 0, 1), (1, 0, 0), (-1, -1, -1), (0, 1, 0)],
        [(0, 1, 0), (-2, -2, -2), (2, 0, 0), (0, 0, 2)],
    ]


@settings(max_examples=80, deadline=None)
@given(st.one_of(point_sets, rational_point_sets))
@example([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)])
@example(
    [
        (Fraction(-1, 2), 0, 0), (0, Fraction(1, 3), 0),
        (0, 0, Fraction(2, 3)), (0, 0, 0), (Fraction(1, 2), 1, 1),
    ]
)
def test_from_mesh_rejects_a_mesh_that_misses_a_point(points):
    """The last point of a sorted cloud is a vertex of its hull, so a mesh
    of the other points leaves it outside and the builder refuses it, on
    integer clouds and on rational ones scaled as hull scales them."""
    cloud = sorted({tuple(map(polytope._exact, p)) for p in points})
    scale = lcm(*(Fraction(c).denominator for p in cloud for c in p))
    scaled = [tuple(int(c * scale) for c in p) for p in cloud]
    try:
        mesh = polytope._triangle_hull(scaled[:-1])
    except DegeneratePointSet:
        assume(False)
    with pytest.raises(AssertionError, match="^hull drops an input point$"):
        polytope._from_mesh(cloud, scale, mesh)


# -- the builder against its reference ------------------------------------------


def reference_from_mesh(cloud, scale, mesh):
    """The reference builder: planes in a defaultdict of corner sets,
    vertices by a Counter, the edges from zip(*sorted(...)), and the same
    four checks with the same messages."""
    ids = {}
    corners = defaultdict(set)
    owner = {}
    for (a, b, c), (gx, gy, gz, s) in mesh.items():
        d = gcd(gx, gy, gz)
        f = ids.setdefault((-gx // d, -gy // d, -gz // d, s // d), len(ids))
        corners[f].update((a, b, c))
        owner[a, b] = owner[b, c] = owner[c, a] = f
    on_planes = Counter(i for plane in corners.values() for i in plane)
    vertex_ids = sorted(
        (i for i, k in on_planes.items() if k >= 3), key=cloud.__getitem__
    )
    renumber = {old: new for new, old in enumerate(vertex_ids)}
    vertices = tuple(cloud[i] for i in vertex_ids)
    ordered = sorted(ids)
    rank = [0] * len(ordered)
    for f, plane in enumerate(ordered):
        rank[ids[plane]] = f
    facets = tuple(
        ((nx, ny, nz), s if scale == 1 else polytope._exact(Fraction(s, scale)))
        for nx, ny, nz, s in ordered
    )
    facet_vertices = tuple(
        tuple(sorted(renumber[i] for i in corners[ids[pl]] if i in renumber))
        for pl in ordered
    )
    if any(len(fv) < 3 for fv in facet_vertices):
        raise AssertionError("facet with fewer than 3 vertices")
    meets = {(f, g) for (a, b), f in owner.items() if f < (g := owner[b, a])}
    shared = [set(fv) for fv in facet_vertices]
    edges, edge_facets = zip(*sorted(
        (tuple(sorted(shared[f] & shared[g])), (f, g))
        for f, g in (sorted((rank[f], rank[g])) for f, g in meets)
    ))
    if len(vertices) - len(edges) + len(facets) != 2:
        raise AssertionError("Euler relation violated; hull is inconsistent")
    for ((nx, ny, nz), c), fv in zip(facets, facet_vertices):
        on = {nx * x + ny * y + nz * z for x, y, z in (vertices[i] for i in fv)}
        if on != {-c}:
            raise AssertionError("facet plane misses one of its vertices")
    for (nx, ny, nz), c in facets:
        if min(nx * x + ny * y + nz * z for x, y, z in cloud) < -c:
            raise AssertionError("hull drops an input point")
    return Polytope3(vertices, facets, facet_vertices, edges, edge_facets)


def builder_inputs(monkeypatch, run, modules=(polytope,)):
    """The (cloud, scale, mesh) of every builder call that run() makes
    through the given modules."""
    calls = []

    def recording(cloud, scale, mesh, real=polytope._from_mesh):
        calls.append((cloud, scale, mesh))
        return real(cloud, scale, mesh)

    for module in modules:
        monkeypatch.setattr(module, "_from_mesh", recording)
    run()
    monkeypatch.undo()
    return calls


def assert_builder_matches_reference(calls):
    for cloud, scale, mesh in calls:
        want = polytope_fields(reference_from_mesh(cloud, scale, mesh))
        assert polytope_fields(polytope._from_mesh(cloud, scale, mesh)) == want


def test_builder_matches_reference_on_table_clouds(rows, monkeypatch):
    """The 26 point sets that a cold verify_row and verify_swaps pass
    builds: 16 hulled, and 10 Newton polytopes' vertex candidates, which
    enter the builder from `weights`."""
    from k3corr import correspondence, weights

    for cached in (
        correspondence.common_delta,
        newton_polytope,
        picard_rank,
        correspondence._monomial_points,
        correspondence._point_set_hull,
    ):
        cached.cache_clear()

    def run():
        for row in rows:
            correspondence.verify_row(row)
            correspondence.verify_swaps(row)

    calls = builder_inputs(monkeypatch, run, modules=(polytope, weights))
    assert len(calls) == 26
    assert_builder_matches_reference(calls)


def test_builder_matches_reference_on_sweep_clouds(monkeypatch):
    """The Newton clouds with d <= 20, of which 228 of the 235 span R^3.
    Their polar duals are read off the incidence, with no builder call, and
    are checked by the dual oracle below."""

    def run():
        for points in well_posed_newton_clouds(20):
            try:
                hull(points)
            except DegeneratePointSet:
                continue

    calls = builder_inputs(monkeypatch, run)
    assert len(calls) == 228
    assert_builder_matches_reference(calls)


def test_builder_matches_reference_on_search_children(rows, monkeypatch):
    """Every child that the depth-2 search from the 16 Δ's builds, each
    cloud in the walk's own order."""
    from k3corr import correspondence

    deltas = [correspondence.common_delta(row) for row in rows]

    def run():
        for delta in deltas:
            correspondence.search_sub_reflexive(delta, max_depth=2)

    calls = builder_inputs(monkeypatch, run, modules=(correspondence,))
    assert len(calls) == 101
    assert_builder_matches_reference(calls)


def test_builder_matches_reference_on_a_many_facet_shell():
    """The lattice points of the shell R^2 - 2R < |x|^2 <= R^2 at R = 8:
    many small facets, each vertex on several, so each facet meets many
    others in a vertex and a few in an edge."""
    r = 8
    cloud = [
        (x, y, z)
        for x in range(-r, r + 1)
        for y in range(-r, r + 1)
        for z in range(-r, r + 1)
        if r * r - 2 * r < x * x + y * y + z * z <= r * r
    ]
    assert len(cloud) == 744
    mesh = polytope._triangle_hull(cloud)
    p = polytope._from_mesh(cloud, 1, mesh)
    assert (p.n_vertices, p.n_edges, p.n_facets) == (150, 336, 188)
    assert polytope_fields(p) == polytope_fields(reference_from_mesh(cloud, 1, mesh))


def test_builder_pairs_no_facets_that_meet_in_a_vertex():
    """Each octahedron facet meets three facets in an edge, three in a
    single vertex and one not at all; only the first three are paired."""
    cloud = [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)]
    mesh = polytope._triangle_hull(cloud)
    p = polytope._from_mesh(cloud, 1, mesh)
    assert (p.n_vertices, p.n_edges, p.n_facets) == (6, 12, 8)
    for (i, j), (f, g) in zip(p.edges, p.edge_facets):
        assert set(p.facet_vertices[f]) & set(p.facet_vertices[g]) == {i, j}
    assert polytope_fields(p) == polytope_fields(reference_from_mesh(cloud, 1, mesh))


@settings(max_examples=100, deadline=None)
@given(rational_point_sets)
@example([(F(1, 2), 0, 0), (0, F(1, 3), 0), (0, 0, F(2, 3)), (F(-1, 2), F(-1, 2), -1)])
def test_builder_matches_reference_on_rational_clouds(points):
    with pytest.MonkeyPatch.context() as monkeypatch:
        try:
            calls = builder_inputs(monkeypatch, lambda: hull(points))
        except DegeneratePointSet:
            assume(False)
    ((_, scale, _),) = calls
    assume(scale > 1)
    assert_builder_matches_reference(calls)


@pytest.mark.parametrize("build", [polytope._from_mesh, reference_from_mesh])
def test_builder_rejects_a_facet_with_fewer_than_3_vertices(build):
    """(1, 1, 1), inserted first, stays a corner inside the simplex's facet
    x + y + z = 3.  Moving one of its triangles there, (2, 3, 0), to a plane
    of its own leaves (1, 1, 1) on two planes, so that plane has 2 vertices."""
    cloud = [(1, 1, 1), (0, 0, 0), (3, 0, 0), (0, 3, 0), (0, 0, 3)]
    mesh = polytope._triangle_hull(cloud)
    assert mesh[2, 3, 0] == (3, 3, 3, 9)
    mesh[2, 3, 0] = (1, 1, 1, 4)
    with pytest.raises(AssertionError, match="^facet with fewer than 3 vertices$"):
        build(cloud, 1, mesh)


@pytest.mark.parametrize("build", [polytope._from_mesh, reference_from_mesh])
def test_builder_rejects_a_mesh_that_breaks_euler(build):
    """The cube's bottom triangles moved onto its top plane: every corner is
    still on 3 planes, but the 5 planes meet in 8 plane pairs, one for each
    side facet with the merged plane and one for each vertical edge, so
    V - E + F = 8 - 8 + 5."""
    cloud = [(x, y, z) for x in (-1, 1) for y in (-1, 1) for z in (-1, 1)]
    mesh = polytope._triangle_hull(cloud)
    bottom = [t for t, (_, _, gz, _) in mesh.items() if gz < 0]
    assert len(bottom) == 2
    for t in bottom:
        mesh[t] = mesh[3, 1, 5]
    with pytest.raises(
        AssertionError, match="^Euler relation violated; hull is inconsistent$"
    ):
        build(cloud, 1, mesh)


@pytest.mark.parametrize("build", [polytope._from_mesh, reference_from_mesh])
def test_builder_rejects_a_facet_plane_off_its_vertices(build):
    """The cube's two x = 1 triangles relabelled with the z = 1 record: the
    planes then read V - E + F = 6 - 9 + 5 with 3 or more vertices each, and
    every cloud point satisfies them, but the merged top facet holds
    (1, -1, -1), which lies off z = 1.  Unchecked, the polytope has no
    x <= 1 facet and contains (5, 0, 0)."""
    cloud = [(x, y, z) for x in (-1, 1) for y in (-1, 1) for z in (-1, 1)]
    mesh = polytope._triangle_hull(cloud)
    front = [t for t, (gx, _, _, _) in mesh.items() if gx > 0]
    assert len(front) == 2 and mesh[3, 1, 5] == (0, 0, 4, 4)
    for t in front:
        mesh[t] = mesh[3, 1, 5]
    with pytest.raises(
        AssertionError, match="^facet plane misses one of its vertices$"
    ):
        build(cloud, 1, mesh)


@settings(max_examples=60, deadline=None)
@given(point_sets)
def test_triangle_hull_records_outward_normal_and_offset(points):
    """Each triangle (a, b, c) maps to (gx, gy, gz, s) with
    g = (b - a) x (c - a) and s = <g, a>, and g points outward: no point of
    the cloud lies beyond the plane and some point lies beneath it."""
    cloud = list(dict.fromkeys(points))
    try:
        mesh = polytope._triangle_hull(cloud)
    except DegeneratePointSet:
        return
    for (a, b, c), (gx, gy, gz, s) in mesh.items():
        pa, pb, pc = cloud[a], cloud[b], cloud[c]
        u = tuple(x - y for x, y in zip(pb, pa))
        v = tuple(x - y for x, y in zip(pc, pa))
        g = cross(u, v)
        assert (gx, gy, gz) == g
        assert s == vec_dot(g, pa)
        heights = [vec_dot(g, q) for q in cloud]
        assert max(heights) == s > min(heights)


@pytest.mark.parametrize(
    "points, message",
    [
        ([], "all points coincide"),
        ([(1, 2, 3)], "all points coincide"),
        ([(1, 2, 3)] * 4, "all points coincide"),
        ([(0, 0, 0), (1, 1, 1), (2, 2, 2), (-1, -1, -1)], "points are collinear"),
        ([(0, 0, 0), (0, 0, 0), (1, 0, 0)], "points are collinear"),
        ([(0, 0, 0), (1, 0, 0), (0, 1, 0), (2, 3, 0)], "points are coplanar"),
        ([(0, 0, 0), (1, 0, 0), (2, 0, 0), (0, 1, 0)], "points are coplanar"),
    ],
)
def test_triangle_hull_degenerate_inputs_keep_their_messages(points, message):
    with pytest.raises(DegeneratePointSet, match=f"^{message}$"):
        polytope._triangle_hull(points)


@settings(max_examples=60, deadline=None)
@given(rational_point_sets)
def test_hull_matches_brute_force_rational(points):
    try:
        p = hull(points)
    except DegeneratePointSet:
        return
    assert set(p.facets) == brute_force_facets(points)
    assert all(p.contains_point(q) for q in points)
    assert p.n_vertices - p.n_edges + p.n_facets == 2


@settings(max_examples=40, deadline=None)
@given(point_sets)
def test_hull_facets_have_polygon_incidence(points):
    try:
        p = hull(points)
    except DegeneratePointSet:
        return
    for (n, c), fv in zip(p.facets, p.facet_vertices):
        assert len(fv) >= 3
        for i in fv:
            assert vec_dot(n, p.vertices[i]) == -c


def brute_force_edges(facet_vertices):
    """Reference edges: two facets meet in an edge exactly when they share
    two vertices.  Returns {(i, j): (f, g)} with i < j and f < g."""
    edges = {}
    for f, g in itertools.combinations(range(len(facet_vertices)), 2):
        shared = set(facet_vertices[f]) & set(facet_vertices[g])
        if len(shared) == 2:
            edges[tuple(sorted(shared))] = (f, g)
    return edges


def assert_combinatorics_match(points, support=None):
    """hull(points) against the brute-force reference, field by field.

    The facets are brute_force_facets over `support` (the whole cloud by
    default).  A smaller support, such as the hull's own vertices, keeps the
    triple scan short; every cloud point must then satisfy those facets, so
    they are still the facets of the cloud.  A support point is a vertex when
    it lies on three facets, and the edges come from brute_force_edges.
    """
    p = hull(points)
    cloud = {tuple(Fraction(c) for c in q) for q in points}
    support = cloud if support is None else {
        tuple(Fraction(c) for c in q) for q in support
    }
    assert support <= cloud
    facets = sorted(brute_force_facets(support))
    assert all(vec_dot(n, q) >= -c for n, c in facets for q in cloud)
    assert p.facets == tuple(facets)
    on = {
        q: {f for f, (n, c) in enumerate(facets) if vec_dot(n, q) == -c}
        for q in support
    }
    vertices = sorted(q for q, fs in on.items() if len(fs) >= 3)
    assert p.vertices == tuple(vertices)
    facet_vertices = tuple(
        tuple(i for i, v in enumerate(vertices) if f in on[v])
        for f in range(len(facets))
    )
    assert p.facet_vertices == facet_vertices
    edges = brute_force_edges(facet_vertices)
    assert p.edges == tuple(sorted(edges))
    assert p.edge_facets == tuple(edges[e] for e in p.edges)


dense_point_sets = st.lists(
    st.tuples(st.integers(-1, 1), st.integers(-1, 1), st.integers(-1, 1)),
    min_size=4,
    max_size=20,
)


@settings(max_examples=150, deadline=None)
@given(st.one_of(point_sets, dense_point_sets, rational_point_sets))
def test_hull_combinatorics_match_brute_force(points):
    try:
        hull(points)
    except DegeneratePointSet:
        return
    assert_combinatorics_match(points)


def test_hull_combinatorics_on_clouds_dense_in_boundary_points(rows):
    grid1 = [(x, y, z) for x in (-1, 0, 1) for y in (-1, 0, 1) for z in (-1, 0, 1)]
    cube_with_midpoints = [q for q in grid1 if sum(map(abs, q)) >= 2]
    assert_combinatorics_match(grid1)
    assert_combinatorics_match(cube_with_midpoints)
    r = range(-2, 3)
    grid2 = [(x, y, z) for x in r for y in r for z in r]
    assert_combinatorics_match(grid2, support=hull(grid2).vertices)
    for row in rows:
        for ws in row.weights:
            pts = anticanonical_points(ws)
            assert_combinatorics_match(pts, support=hull(pts).vertices)


# -- integer clouds --------------------------------------------------------------

HULL_FIELDS = ("vertices", "facets", "facet_vertices", "edges", "edge_facets")


def assert_integer_hull_matches_fraction_hull(points):
    """The integer cloud and the same cloud as Fractions give the same hull,
    and the integer one has int vertex coordinates and facet offsets."""
    try:
        p = hull(points)
    except DegeneratePointSet:
        with pytest.raises(DegeneratePointSet):
            hull([tuple(Fraction(c) for c in q) for q in points])
        return
    q = hull([tuple(Fraction(c) for c in v) for v in points])
    for field in HULL_FIELDS:
        assert getattr(p, field) == getattr(q, field), field
    assert all(type(x) is int for v in p.vertices for x in v)
    assert all(type(c) is int for _, c in p.facets)


def well_posed_systems(max_degree):
    """Every well-posed sorted quadruple with d <= max_degree."""
    for a in itertools.combinations_with_replacement(range(1, max_degree), 4):
        if sum(a) > max_degree:
            continue
        try:
            yield WeightSystem.from_weights(a)
        except IllPosedWeights:
            continue


def well_posed_newton_clouds(max_degree):
    return map(anticanonical_points, well_posed_systems(max_degree))


def test_integer_hull_matches_fraction_hull_on_newton_clouds():
    clouds = list(well_posed_newton_clouds(20))
    assert len(clouds) == 235
    for points in clouds:
        assert_integer_hull_matches_fraction_hull(points)


@settings(max_examples=100, deadline=None)
@given(st.one_of(point_sets, dense_point_sets))
def test_integer_hull_matches_fraction_hull(points):
    assert_integer_hull_matches_fraction_hull(points)


def test_hull_of_integer_cloud_builds_no_fraction(monkeypatch, rows):
    clouds = [
        [(x, y, z) for x in (-1, 0, 1) for y in (-1, 0, 1) for z in (-1, 0, 1)],
        anticanonical_points(rows[0].weights[0]),
    ]
    want = [hull(points) for points in clouds]

    def no_fraction(*args):
        raise AssertionError("hull built a Fraction")

    monkeypatch.setattr(polytope, "Fraction", no_fraction)
    for points, p in zip(clouds, want):
        q = hull(points)
        assert [getattr(q, f) for f in HULL_FIELDS] == [
            getattr(p, f) for f in HULL_FIELDS
        ]


def test_contains_point_rejects_wrong_length():
    c = cube()
    for bad in [(0, 0), (0, 0, 0, 0)]:
        with pytest.raises(ValueError):
            c.contains_point(bad)


# -- duality ------------------------------------------------------------------


def test_polar_dual_cube_is_octahedron():
    d = polar_dual(cube())
    assert d.vertices == octahedron().vertices


def test_polar_dual_quartic_simplex():
    d = polar_dual(quartic_simplex())
    assert set(d.vertices) == {(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)}


def test_polar_dual_requires_interior_origin():
    shifted = hull([(0, 0, 0), (2, 0, 0), (0, 2, 0), (0, 0, 2)])
    with pytest.raises(OriginNotInterior):
        polar_dual(shifted)


def test_polar_dual_of_a_reflexive_polytope_builds_no_fraction(monkeypatch, rows):
    """Every offset of a reflexive polytope is 1 and every vertex primitive,
    so its dual has int vertices and offsets: the same polytope, built with
    no Fraction."""
    from k3corr.correspondence import common_delta

    reflexive = [cube(), octahedron()] + [common_delta(row) for row in rows]
    want = [polytope_fields(polar_dual(p)) for p in reflexive]

    def no_fraction(*args):
        raise AssertionError("polar_dual built a Fraction")

    monkeypatch.setattr(polytope, "Fraction", no_fraction)
    for p, fields in zip(reflexive, want):
        d = polar_dual(p)
        assert polytope_fields(d) == fields
        assert all(type(x) is int for v in d.vertices for x in v)
        assert all(type(c) is int for _, c in d.facets)


@settings(max_examples=80, deadline=None)
@given(st.one_of(point_sets, rational_point_sets))
@example([(3, 0, 0), (0, 2, 0), (0, 0, 1), (1, 1, 1)])
def test_polar_dual_equals_the_hull_of_its_fraction_cloud(points):
    """With its negatives added the cloud keeps the origin interior; the
    dual equals the hull of n/c built as Fractions, also where some c > 1
    divides a coordinate and some does not."""
    try:
        p = hull(points + [tuple(-x for x in q) for q in points])
    except DegeneratePointSet:
        return
    fractions = [tuple(Fraction(x, 1) / c for x in n) for n, c in p.facets]
    assert polytope_fields(polar_dual(p)) == polytope_fields(hull(fractions))


def assert_polar_dual_matches_the_hull(p):
    """polar_dual(p), read off the incidence, equals the hull of the n/c
    points field by field, the type of each number included, and its own
    dual is p."""
    d = polar_dual(p)
    want = hull([tuple(Fraction(x) / c for x in n) for n, c in p.facets])
    assert repr(polytope_fields(d)) == repr(polytope_fields(want))
    assert repr(polytope_fields(polar_dual(d))) == repr(polytope_fields(p))


def test_polar_dual_matches_the_hull_on_sweep_newton_polytopes():
    """The reflexive Newton polytopes with d <= 20, whose duals the sweep
    builds."""
    reflexive = []
    for ws in well_posed_systems(20):
        try:
            p = newton_polytope(ws)
        except DegeneratePointSet:
            continue
        if p.origin_interior and is_reflexive(p):
            reflexive.append(p)
    assert len(reflexive) == 45
    for p in reflexive:
        assert_polar_dual_matches_the_hull(p)


def test_polar_dual_matches_the_hull_on_table_deltas(rows):
    from k3corr.correspondence import common_delta

    for row in rows:
        assert_polar_dual_matches_the_hull(common_delta(row))


def test_polar_dual_matches_the_hull_on_family_newton_polytopes(rows):
    """The Newton polytopes of the table's 38 families (34 weight systems),
    10 of which have a vertex more than their row's common polytope."""
    polytopes = [newton_polytope(ws) for row in rows for ws in row.weights]
    assert len(polytopes) == 38
    for p in polytopes:
        assert_polar_dual_matches_the_hull(p)


def dual_involution_cases(rows_by_key):
    from k3corr.correspondence import common_delta

    yield cube()
    yield octahedron()
    yield quartic_simplex()
    for key in ("13-72", "26-34", "16-54", "56-73"):
        yield common_delta(rows_by_key[key])
    for w in ((1, 6, 14, 21), (2, 4, 5, 9), (3, 5, 6, 7)):
        yield newton_polytope(WeightSystem.from_weights(w))


def test_dual_involution_and_face_correspondence(rows_by_key):
    for p in dual_involution_cases(rows_by_key):
        d = polar_dual(p)
        assert polar_dual(d) == p  # vertex-set equality, exact
        assert d.n_vertices == p.n_facets
        assert d.n_facets == p.n_vertices
        assert d.n_edges == p.n_edges
        # incidence reversal: each dual vertex's facet count equals the
        # vertex count of the matching primal facet
        dual_vertex_of_facet = {
            tuple(Fraction(x) / c for x in n): f
            for f, (n, c) in enumerate(p.facets)
        }
        for i, v in enumerate(d.vertices):
            f = dual_vertex_of_facet[tuple(Fraction(x) for x in v)]
            degree = sum(i in fv for fv in d.facet_vertices)
            assert degree == len(p.facet_vertices[f])


# -- reflexivity --------------------------------------------------------------


def test_is_reflexive_cube():
    assert is_reflexive(cube())


def test_is_reflexive_stretched_octahedron():
    p = hull(
        [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 2), (0, 0, -2)]
    )
    assert not is_reflexive(p)
    assert ((2, 2, 1), 2) in set(p.facets) or ((-2, -2, -1), 2) in set(p.facets)


def test_is_reflexive_table_delta(rows_by_key):
    from k3corr.correspondence import common_delta

    assert is_reflexive(common_delta(rows_by_key["14-28-45-51"]))


def test_is_reflexive_rejects_non_lattice():
    p = hull([(1, 0, 0), (0, 1, 0), (0, 0, Fraction(1, 2)), (-1, -1, -1)])
    with pytest.raises(ValueError):
        is_reflexive(p)


def test_reflexive_iff_dual_reflexive(rows_by_key):
    for p in dual_involution_cases(rows_by_key):
        if p.is_lattice and is_reflexive(p):
            assert is_reflexive(polar_dual(p))


# -- lattice points and face counts ---------------------------------------------


def test_lattice_points_cube():
    assert len(cube().lattice_points) == 27


def test_lattice_points_quartic_simplex():
    # independent count: monomials of degree 4 in 4 variables
    assert len(quartic_simplex().lattice_points) == comb(7, 3)


def test_lattice_points_unit_simplex():
    p = hull([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)])
    assert set(p.lattice_points) == {(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)}


def box_scan_points(p):
    """Reference lattice points: every integer point of the bounding box that
    satisfies all facet inequalities, in lexicographic order."""
    los = [ceil(min(v[i] for v in p.vertices)) for i in range(3)]
    his = [floor(max(v[i] for v in p.vertices)) for i in range(3)]
    box = itertools.product(*[range(lo, hi + 1) for lo, hi in zip(los, his)])
    return tuple(q for q in box if p.contains_point(q))


def test_lattice_points_match_box_scan_on_table(rows):
    import random

    rnd = random.Random(2010)
    for p in table_polytopes(rows):
        # few shears keep the reference box scan short
        q = transform(p, _random_unimodular(rnd, shears=2))
        for r in (p, polar_dual(p), q):
            assert r.lattice_points == box_scan_points(r)


@settings(max_examples=60, deadline=None)
@given(point_sets, st.randoms(use_true_random=False))
# the slice at x = 0 is the edge (0,-2,0)-(0,3,1), at constant x
@example([(0, -2, 0), (0, 3, 1), (4, 0, -1), (2, 1, 3)], random.Random(0))
# a prism: its facets with n_z = 0 bound the shadow, the columns just past
# them hold a whole z-range, and its crossings fall between integers
@example(
    [(0, 0, 0), (4, 1, 0), (1, 3, 0), (0, 0, 1), (4, 1, 1), (1, 3, 1)], random.Random(0)
)
# the slice at x = 3 is the vertex (3, 1, 0) alone
@example([(3, 1, 0), (0, -2, -2), (0, 3, -1), (-1, 0, 2)], random.Random(0))
def test_lattice_points_match_box_scan_on_random_hulls(points, rnd):
    try:
        p = hull(points)
    except DegeneratePointSet:
        return
    assert p.lattice_points == box_scan_points(p)
    q = transform(p, _random_unimodular(rnd, shears=2))
    assert q.lattice_points == box_scan_points(q)
    assert len(q.lattice_points) == len(p.lattice_points)


@settings(max_examples=60, deadline=None)
@given(rational_point_sets)
@example([(Fraction(1, 2), 0, 0), (0, Fraction(1, 3), 0), (0, 0, 1), (-1, -1, -1)])
# the slice at x = 1 is an edge with rational ends holding (1,0,0) and (1,2,1)
@example([(1, F(-1, 2), F(-1, 4)), (1, F(5, 2), F(5, 4)), (F(9, 2), F(1, 3), F(-5, 2)),
          (F(7, 2), F(7, 3), F(7, 2))])
# a rational prism, its shadow bounded by facets with n_z = 0
@example([(F(1, 2), 0, F(-1, 2)), (F(9, 2), 1, F(-1, 2)), (1, F(10, 3), F(-1, 2)),
          (F(1, 2), 0, F(3, 2)), (F(9, 2), 1, F(3, 2)), (1, F(10, 3), F(3, 2))])
# no vertex at an integer x, so every crossing is a rational y
@example([(F(-3, 2), -7, 0), (F(15, 2), 1, -3), (1, F(33, 4), 6),
          (F(9, 2), F(-3, 2), F(-15, 2)), (F(3, 5), F(3, 7), F(3, 2))])
# the slice at x = 3 is the vertex (3, 1/2, 0) alone, holding no lattice point
@example([(3, F(1, 2), 0), (0, -2, -2), (0, 3, -1), (-1, 0, 2)])
def test_lattice_points_match_box_scan_on_rational_hulls(points):
    try:
        p = hull(points)
    except DegeneratePointSet:
        return
    assert p.lattice_points == box_scan_points(p)


def test_lattice_points_vertex_stability_oracle(rows_by_key):
    """Membership cross-check: q is in P iff adding q leaves the vertex set."""
    from k3corr.correspondence import common_delta

    for key in ("13-72", "26-34-76", "16-54"):
        p = common_delta(rows_by_key[key])
        los = [min(v[i] for v in p.vertices) for i in range(3)]
        his = [max(v[i] for v in p.vertices) for i in range(3)]
        box = itertools.product(
            *[range(lo, hi + 1) for lo, hi in zip(los, his)]
        )
        expected = {
            q
            for q in box
            if hull(list(p.vertices) + [q]).vertices == p.vertices
        }
        assert set(p.lattice_points) == expected


def test_face_counts_cube():
    p = cube()
    fc = p.face_counts
    assert len(p.lattice_points) == 27
    assert fc.boundary == 26
    assert fc.per_facet == (1,) * 6
    assert fc.per_edge == (1,) * 12


def test_face_counts_quartic_simplex():
    p = quartic_simplex()
    fc = p.face_counts
    assert len(p.lattice_points) == 35
    assert fc.boundary == 34
    assert fc.per_facet == (3,) * 4  # 15 points per triangle: 3+9 on rim
    assert fc.per_edge == (3,) * 6  # lattice length 4

    edge = next(
        e
        for e in p.edges
        if {p.vertices[e[0]], p.vertices[e[1]]} == {(-1, -1, -1), (3, -1, -1)}
    )
    assert fc.per_edge[p.edges.index(edge)] == 3


def test_reflexive_interior_is_origin_only(rows_by_key):
    for p in dual_involution_cases(rows_by_key):
        if p.is_lattice and is_reflexive(p):
            assert len(p.lattice_points) == p.face_counts.boundary + 1
            assert p.contains_point((0, 0, 0))


def brute_force_face_counts(p):
    """Reference counts: classify every lattice point by the set of facets it
    lies on.  One facet is a facet interior, the two facets whose vertex sets
    share an edge are that edge's interior, three or more make a vertex."""
    edge_of_facet_set = {
        frozenset(f for f, fv in enumerate(p.facet_vertices) if set(e) <= set(fv)): k
        for k, e in enumerate(p.edges)
    }
    per_facet, per_edge = [0] * p.n_facets, [0] * p.n_edges
    boundary = n_vertex_points = 0
    for q in p.lattice_points:
        on = frozenset(
            f for f, (n, c) in enumerate(p.facets) if vec_dot(n, q) == -c
        )
        boundary += bool(on)
        if len(on) == 1:
            per_facet[next(iter(on))] += 1
        elif on in edge_of_facet_set:
            per_edge[edge_of_facet_set[on]] += 1
        elif on:
            n_vertex_points += 1
    assert n_vertex_points == p.n_vertices
    return FaceCounts(boundary, tuple(per_facet), tuple(per_edge))


def assert_face_counts_match(p):
    assert p.face_counts == brute_force_face_counts(p)
    for (i, j), (f, g) in zip(p.edges, p.edge_facets):
        assert f < g
        assert {i, j} <= set(p.facet_vertices[f]) & set(p.facet_vertices[g])


def table_polytopes(rows):
    from k3corr.correspondence import common_delta

    for row in rows:
        yield common_delta(row)
        for ws in row.weights:
            yield newton_polytope(ws)


def test_face_counts_match_brute_force_on_table(rows):
    for p in table_polytopes(rows):
        assert_face_counts_match(p)
        assert_face_counts_match(polar_dual(p))  # reflexive, so a lattice dual


@settings(max_examples=100, deadline=None)
@given(point_sets)
@example([(0, 0, 0), (4, 0, 0), (0, 3, 0), (1, 1, 4)])  # origin is a vertex
@example([(1, 1, 1), (4, 1, 1), (1, 4, 1), (1, 1, 4)])  # origin is outside
def test_face_counts_match_brute_force_on_random_hulls(points):
    try:
        p = hull(points)
    except DegeneratePointSet:
        return
    assert_face_counts_match(p)


def reference_pick_counts(points, edges, edge_faces, normals) -> FaceCounts:
    """pick_counts through vec_dot and cross: the oracle for its written-out
    fan product and n.n."""
    steps = [gcd(*(b - a for a, b in zip(points[i], points[j]))) for i, j in edges]
    rim, area2, anchor = [0] * len(normals), [0] * len(normals), {}
    for (i, j), g, faces in zip(edges, steps, edge_faces):
        for f in faces:
            rim[f] += g
            v0 = anchor.setdefault(f, points[i])
            fan = cross(
                tuple(a - b for a, b in zip(points[i], v0)),
                tuple(a - b for a, b in zip(points[j], v0)),
            )
            area2[f] += abs(vec_dot(fan, normals[f]))
    per_facet = []
    for n, a, b in zip(normals, area2, rim):
        twice_area, inexact = divmod(a, vec_dot(n, n))
        if inexact or (twice_area - b) % 2 or twice_area - b + 2 < 0:
            raise AssertionError("Pick's theorem gives no count for a facet")
        per_facet.append((twice_area - b + 2) // 2)
    per_edge = tuple(g - 1 for g in steps)
    boundary = len(points) + sum(per_edge) + sum(per_facet)
    return FaceCounts(boundary, tuple(per_facet), per_edge)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # noqa: BLE001 - the class and message are compared
        return type(exc), str(exc)


def assert_pick_counts_match_reference(p):
    """Both reads of p: its own faces, and the transposed one picard_rank
    makes for the polar dual (facet normals as vertices, vertices as normals)."""
    normals = [n for n, _ in p.facets]
    for args in (
        (p.vertices, p.edges, p.edge_facets, normals),
        (normals, p.edge_facets, p.edges, p.vertices),
    ):
        got = _outcome(polytope.pick_counts, *args)
        assert got == _outcome(reference_pick_counts, *args)


def test_pick_counts_match_reference_on_newton_polytopes():
    systems = list(well_posed_systems(20))
    assert len(systems) == 235
    for ws in systems:
        try:
            p = newton_polytope(ws)
        except DegeneratePointSet:
            continue
        assert_pick_counts_match_reference(p)


@settings(max_examples=150, deadline=None)
@given(st.one_of(point_sets, dense_point_sets))
@example([(0, 0, 0), (4, 0, 0), (0, 3, 0), (1, 1, 4)])  # origin is a vertex
def test_pick_counts_match_reference_on_random_hulls(points):
    try:
        p = hull(points)
    except DegeneratePointSet:
        return
    assert_pick_counts_match_reference(p)


def _random_unimodular(rnd, shears=4):
    u = [list(r) for r in identity(3)]
    for _ in range(shears):
        i, j = rnd.sample(range(3), 2)
        c = rnd.choice([-2, -1, 1, 2])
        for k in range(3):
            u[i][k] += c * u[j][k]
    return tuple(tuple(r) for r in u)


@settings(max_examples=30, deadline=None)
@given(point_sets, st.randoms(use_true_random=False))
def test_face_counts_match_brute_force_on_gl3z_images(points, rnd):
    try:
        p = hull(points)
    except DegeneratePointSet:
        return
    q = transform(p, _random_unimodular(rnd))
    assert_face_counts_match(q)
    assert q.face_counts.boundary == p.face_counts.boundary
    assert sorted(q.face_counts.per_facet) == sorted(p.face_counts.per_facet)
    assert sorted(q.face_counts.per_edge) == sorted(p.face_counts.per_edge)


def test_face_counts_match_brute_force_on_gl3z_images_of_table(rows):
    import random

    rnd = random.Random(2010)
    for p in table_polytopes(rows):
        # few shears keep the box scan of the reference count short
        q = transform(p, _random_unimodular(rnd, shears=2))
        assert_face_counts_match(q)
        assert_face_counts_match(polar_dual(q))


def test_picard_rank_enumerates_no_lattice_points(monkeypatch):
    p = transform(quartic_simplex(), ((1, 3, 0), (0, 1, 0), (2, 6, 1)))
    assert picard_rank.__wrapped__(p).rho == 1  # past the cache
    assert "lattice_points" not in vars(p)

    def scan(self):
        raise AssertionError("picard_rank enumerated lattice points")

    # nor for the polar dual, whose counts picard_rank reads off p's incidence
    monkeypatch.setattr(Polytope3, "lattice_points", property(scan))
    assert picard_rank.__wrapped__(octahedron()).rho == 17


# -- containment and equivalence -------------------------------------------------


def contains(p, q):
    """True iff every vertex of q satisfies every facet inequality of p."""
    return all(p.contains_point(v) for v in q.vertices)


def test_contains_self_and_octahedron():
    c = cube()
    assert contains(c, c)
    assert contains(c, octahedron())
    assert not contains(octahedron(), c)


def test_unimodular_equivalent_permuted():
    p = quartic_simplex()
    perm = ((0, 0, 1), (1, 0, 0), (0, 1, 0))
    q = transform(p, perm)
    u = unimodular_equivalent(p, q)
    assert u is not None
    assert {mat_vec(u, v) for v in p.vertices} == set(q.vertices)


def brute_force_maps(p, q):
    """Every integral unimodular fit of one independent vertex triple of p
    onto an ordered triple of q's vertices (through the source triple's
    adjugate, computed once) that maps the whole vertex set onto q's, in the
    order of itertools.permutations, with no invariant to prune."""
    if p.n_vertices != q.n_vertices:
        return
    s = transpose([p.vertices[i] for i in independent_triple(p.vertices)])
    d, adj = det(s), adjugate(s)
    q_set = set(q.vertices)
    for t in itertools.permutations(q.vertices, 3):
        scaled = mat_mul(transpose(t), adj)
        if any(x % d for row in scaled for x in row):
            continue
        u = tuple(tuple(x // d for x in row) for row in scaled)
        if is_unimodular(u) and {mat_vec(u, v) for v in p.vertices} == q_set:
            yield u


def brute_force_equivalent(p, q):
    """Reference equivalence test: the first of :func:`brute_force_maps`."""
    return next(brute_force_maps(p, q), None)


def brute_force_automorphisms(p):
    """The lattice automorphisms of p: every map of p onto itself."""
    return list(brute_force_maps(p, p))


def assert_maps_onto(u, p, q):
    assert is_unimodular(u) and all(isinstance(x, int) for row in u for x in row)
    assert {mat_vec(u, v) for v in p.vertices} == set(q.vertices)


def _random_gl3z(rnd):
    """A random shear product, with its first row negated half the time so
    that orientation-reversing maps are drawn too."""
    u = _random_unimodular(rnd)
    if rnd.random() < 0.5:
        u = (tuple(-x for x in u[0]),) + u[1:]
    return u


@settings(max_examples=60, deadline=None)
@given(point_sets, st.randoms(use_true_random=False))
def test_gl3z_key_and_equivalence_on_gl3z_images(points, rnd):
    try:
        p = hull(points)
    except DegeneratePointSet:
        return
    q = transform(p, _random_gl3z(rnd))
    assert p.gl3z_key == q.gl3z_key
    u = unimodular_equivalent(p, q)
    assert_maps_onto(u, p, q)
    assert u == brute_force_equivalent(p, q)
    for v, sig in zip(p.vertices, p.vertex_signatures):
        assert q.vertex_signatures[q.vertices.index(mat_vec(u, v))] == sig


@settings(max_examples=40, deadline=None)
@given(rational_point_sets, st.randoms(use_true_random=False))
def test_gl3z_key_invariant_on_rational_hulls(points, rnd):
    try:
        p = hull(points)
    except DegeneratePointSet:
        return
    q = transform(p, _random_gl3z(rnd))
    assert p.gl3z_key == q.gl3z_key
    assert_maps_onto(unimodular_equivalent(p, q), p, q)


def test_unimodular_equivalent_rejects_different_shapes():
    assert unimodular_equivalent(cube(), octahedron()) is None


def test_unimodular_equivalent_identity():
    u = unimodular_equivalent(cube(), cube())
    assert u is not None


@settings(max_examples=30, deadline=None)
@given(st.randoms(use_true_random=False))
def test_counts_invariant_under_gl3z(rnd):
    p = quartic_simplex()
    q = transform(p, _random_unimodular(rnd))
    assert (q.n_vertices, q.n_edges, q.n_facets) == (4, 6, 4)
    assert len(q.lattice_points) == 35
    assert len(q.lattice_points) == q.face_counts.boundary + 1
    assert sorted(q.face_counts.per_edge) == sorted(p.face_counts.per_edge)
    assert is_reflexive(q) == is_reflexive(p)


# -- text format -----------------------------------------------------------------


def test_points_text_round_trip():
    p = cube()
    text = points_to_text(p.vertices, comment="cube")
    back = parse_points_text(text)
    assert hull(back) == p


def test_parse_points_text_fractions_and_comments():
    pts = parse_points_text("# dual\n1/2 0 0\n0 1 0  # inline\n\n0 0 1\n-1 -1 -1\n")
    assert pts[0] == (Fraction(1, 2), 0, 0)
    assert len(pts) == 4


def test_parse_points_text_errors():
    with pytest.raises(ValueError):
        parse_points_text("1 2\n")
    with pytest.raises(ValueError):
        parse_points_text("a b c\n")
    for token in ("1e100000000", "1E5", "2.5e-3"):
        with pytest.raises(InputError, match=r"^line 2: exponent notation"):
            parse_points_text(f"0 0 1\n1 0 {token}\n")


def test_parse_points_text_plain_decimals():
    assert parse_points_text("0.5 -1.25 3.\n") == [(Fraction(1, 2), Fraction(-5, 4), 3)]

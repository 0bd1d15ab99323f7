"""Picard ranks via lattice point counts on dual pairs.

The quartic value is pinned by the hand-computed dual simplex: 5 dual
points, no face-interior points on either side, so rho = 5 - 4 = 1.
"""

import itertools
import random
from dataclasses import fields

import pytest

from k3corr import polytope
from k3corr.intlinalg import IllPosedWeights, identity
from k3corr.picard import (
    EdgePair,
    NotReflexive,
    PicardBreakdown,
    dual_rho,
    picard_rank,
)
from k3corr.polytope import (
    DegeneratePointSet,
    hull,
    is_reflexive,
    polar_dual,
    transform,
)
from k3corr.weights import WeightSystem, newton_polytope

from test_polytope import cube, octahedron, quartic_simplex
from test_weights import anticanonical_exponents


def test_quartic_breakdown():
    bk = picard_rank(quartic_simplex())
    assert bk.rho == 1
    assert bk.dual_points == 5
    assert bk.toric_part == 1
    assert bk.correction == 0
    assert sum(bk.dual_facet_interior) == 0


def test_quartic_via_weights():
    p = newton_polytope(WeightSystem.from_weights([1, 1, 1, 1]))
    assert picard_rank(p).rho == 1


def test_cube_and_octahedron():
    # hand computation: l(octahedron) = 7, no facet or edge interiors on the
    # octahedron side, so rho(cube) = 7 - 4 = 3 and the correction vanishes
    # (octahedron edges carry no interior lattice points).
    bk = picard_rank(cube())
    assert (bk.rho, bk.toric_part, bk.correction) == (3, 3, 0)
    assert picard_rank(cube()).correction == 0
    # dual side: l(cube) = 27, six facet interiors of 1, correction again 0
    bko = picard_rank(octahedron())
    assert (bko.rho, bko.toric_part, bko.correction) == (17, 17, 0)
    assert bk.rho + bko.rho == 20  # observed mirror pairing, not asserted elsewhere


def test_rejects_non_reflexive():
    stretched = hull(
        [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 2), (0, 0, -2)]
    )
    with pytest.raises(NotReflexive):
        picard_rank(stretched)
    shifted = hull([(0, 0, 0), (2, 0, 0), (0, 2, 0), (0, 0, 2)])
    with pytest.raises(NotReflexive):
        picard_rank(shifted)


def test_l0_quartic_zero():
    assert picard_rank(quartic_simplex()).correction == 0


def test_l0_16_54_positive(rows_by_key):
    from k3corr.correspondence import common_delta

    assert picard_rank(common_delta(rows_by_key["16-54"])).correction > 0


def test_l0_regression_goldens(rows_by_key):
    """Computed once with this code and frozen; the printed table has no L0
    column, only positivity hints, which these values respect."""
    from k3corr.correspondence import common_delta

    golden = {
        "13-72": 0,
        "26-34": 4,
        "26-34-76": 3,
        "27-49": 2,
        "16-54": 4,
        "43-48": 2,
        "43-48-88": 0,
        "56-73": 0,
    }
    for key, want in golden.items():
        assert picard_rank(common_delta(rows_by_key[key])).correction == want


def test_rank_bounds_on_table(rows_by_key):
    from k3corr.correspondence import common_delta

    for key, row in rows_by_key.items():
        bk = picard_rank(common_delta(row))
        assert 1 <= bk.rho <= 20
        assert bk.rho == bk.toric_part + bk.correction


def test_rho_invariant_under_gl3z():
    rnd = random.Random(48612)
    base = quartic_simplex()
    want = picard_rank(base).rho
    small = newton_polytope(WeightSystem.from_weights([3, 5, 6, 7]))
    want_small = picard_rank(small).rho
    for _ in range(25):
        u = _random_unimodular(rnd)
        assert picard_rank(transform(base, u)).rho == want
        assert picard_rank(transform(small, u)).rho == want_small


def _random_unimodular(rnd):
    u = [list(r) for r in identity(3)]
    for _ in range(3):
        i, j = rnd.sample(range(3), 2)
        c = rnd.choice([-2, -1, 1, 2])
        for k in range(3):
            u[i][k] += c * u[j][k]
    if rnd.random() < 0.5:
        u.reverse()
    return tuple(tuple(r) for r in u)


def test_edge_pairing_is_complete(rows_by_key):
    from k3corr.correspondence import common_delta

    for key in ("13-72", "9-71", "26-34-76", "68-83-92"):
        p = common_delta(rows_by_key[key])
        bk = picard_rank(p)
        assert len(bk.edge_pairs) == p.n_edges
        assert len(bk.edge_pairs) == polar_dual(p).n_edges
        assert {pair.edge for pair in bk.edge_pairs} == set(p.edges)


# -- the dual-hull reference ---------------------------------------------------


def reference_picard(p):
    """Reference breakdown by the route that hulls the polar dual: the dual's
    own face counts, and each dual edge matched to the edge of p where the
    two facets named by its endpoints (normals n of facets (n, 1)) meet."""
    if not is_reflexive(p):
        raise NotReflexive("polytope is not reflexive")
    dual = polar_dual(p)
    assert is_reflexive(dual)
    dcounts, pcounts = dual.face_counts, p.face_counts
    facet_of_vertex = {n: f for f, (n, _) in enumerate(p.facets)}
    edge_of_facets = {frozenset(fs): e for e, fs in enumerate(p.edge_facets)}
    pairs = []
    for k, dual_edge in enumerate(dual.edges):
        e = edge_of_facets[
            frozenset(facet_of_vertex[dual.vertices[i]] for i in dual_edge)
        ]
        pairs.append(
            EdgePair(dual_edge, p.edges[e], dcounts.per_edge[k], pcounts.per_edge[e])
        )
    assert sorted(pair.edge for pair in pairs) == list(p.edges)
    dual_points = dcounts.boundary + 1
    toric = dual_points - 4 - sum(dcounts.per_facet)
    correction = sum(pair.contribution for pair in pairs)
    return PicardBreakdown(
        rho=toric + correction,
        toric_part=toric,
        correction=correction,
        dual_points=dual_points,
        dual_facet_interior=dcounts.per_facet,
        edge_pairs=tuple(pairs),
    )


def assert_matches_reference(p):
    got, want = picard_rank.__wrapped__(p), reference_picard(p)
    for field in fields(PicardBreakdown):
        assert getattr(got, field.name) == getattr(want, field.name), field.name


def reflexive_newton_polytopes(max_degree):
    """Every reflexive Newton polytope of a sorted well-posed weight system
    with d <= max_degree.  An interior origin needs each exponent to take the
    value 0 and some value >= 2 (else the polytope lies in m_i >= 0 or
    m_i <= 0), which skips the largest clouds before they are hulled."""
    found = []
    for a in itertools.combinations_with_replacement(range(1, max_degree), 4):
        if sum(a) > max_degree:
            continue
        try:
            ws = WeightSystem.from_weights(a)
        except IllPosedWeights:
            continue
        exponents = list(anticanonical_exponents(ws))
        if not all(min(e) == 0 and max(e) >= 2 for e in zip(*exponents)):
            continue
        try:
            p = newton_polytope(ws)
        except DegeneratePointSet:
            continue
        if p.origin_interior and is_reflexive(p):
            found.append(p)
    return found


def test_picard_rank_matches_reference(rows):
    """The 16 common polytopes, the cube, the octahedron, every reflexive
    Newton polytope with d <= 30 and its dual, and a GL(3, Z) image of each."""
    from k3corr.correspondence import common_delta

    bases = [common_delta(row) for row in rows] + [cube(), octahedron()]
    for n in reflexive_newton_polytopes(30):
        bases += [n, polar_dual(n)]
    assert len(bases) == 16 + 2 + 2 * 76
    rnd = random.Random(90217)
    for p in bases:
        assert_matches_reference(p)
        assert_matches_reference(transform(p, _random_unimodular(rnd)))


def test_picard_rank_builds_no_hull(monkeypatch, rows):
    from k3corr.correspondence import common_delta

    cases = [common_delta(row) for row in rows] + [cube(), octahedron()]
    want = [reference_picard(p) for p in cases]

    def no_hull(points):
        raise AssertionError("picard_rank built a hull")

    monkeypatch.setattr(polytope, "hull", no_hull)
    assert [picard_rank.__wrapped__(p) for p in cases] == want


def test_dual_rho_matches_dual_hull(rows):
    """Every reflexive Newton polytope with d <= 40 and its dual, the 16
    common polytopes, and a GL(3, Z) image of each."""
    from k3corr.correspondence import common_delta

    bases = [common_delta(row) for row in rows]
    for n in reflexive_newton_polytopes(40):
        bases += [n, polar_dual(n)]
    assert len(bases) == 16 + 2 * 87
    rnd = random.Random(30518)
    for p in bases:
        for q in (p, transform(p, _random_unimodular(rnd))):
            assert dual_rho(q) == picard_rank(polar_dual(q)).rho

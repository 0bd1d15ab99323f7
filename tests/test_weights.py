"""Weight systems, monomial parsing, the weight tetrahedron and Newton polytopes."""

import itertools
from fractions import Fraction
from functools import lru_cache
from math import comb, gcd

import pytest
from hypothesis import given, strategies as st

from k3corr.intlinalg import (
    IllPosedWeights,
    det,
    kernel_basis,
    mat_vec,
    transpose,
)
from k3corr.polytope import DegeneratePointSet, hull
from k3corr.weights import (
    MalformedMonomial,
    Monomial,
    WeightSystem,
    WrongDegree,
    _vertex_candidates,
    anticanonical_count,
    anticanonical_points,
    newton_polytope,
    parse_monomial,
    weights_from_text,
)
from test_intlinalg import NotInLattice, to_coords
from test_polytope import contains, well_posed_systems


def anticanonical_exponents(ws):
    """All e >= 0 with sum(a_i e_i) = d, in sorted-weight coordinates: the
    exponent filter that `anticanonical_points` is checked against."""
    a, d = ws.a, ws.d
    for e0 in range(d // a[0] + 1):
        r0 = d - a[0] * e0
        for e1 in range(r0 // a[1] + 1):
            r1 = r0 - a[1] * e1
            for e2 in range(r1 // a[2] + 1):
                r2 = r1 - a[2] * e2
                q, rem = divmod(r2, a[3])
                if rem == 0:
                    yield (e0, e1, e2, q)


def filtered_points(ws):
    """The oracle's exponents mapped through to_coords, in the filter's order."""
    return tuple(
        to_coords(ws.basis, tuple(k - 1 for k in e))
        for e in anticanonical_exponents(ws)
    )


def test_parse_monomial_examples():
    assert parse_monomial("Z^2").e == (0, 0, 0, 2)
    assert parse_monomial("WXYZ").e == (1, 1, 1, 1)
    assert parse_monomial("W^3X^7").e == (3, 7, 0, 0)
    assert parse_monomial("W^{42}").e == parse_monomial("W^42").e == (42, 0, 0, 0)
    assert parse_monomial("X^4Z").e == (0, 4, 0, 1)


def test_parse_monomial_rejects_garbage():
    for bad in (
        "", "W^0", "WW", "W^2X^3W", "A^2", "W^-1", "W^2 X", "W^{3", "W^3}", "W^{}"
    ):
        with pytest.raises(MalformedMonomial):
            parse_monomial(bad)


def test_monomial_str_round_trip():
    for text in ("Z^2", "WXYZ", "W^3X^7", "X^4Z", "W^42"):
        assert str(parse_monomial(text)) == text
        assert parse_monomial(str(parse_monomial(text))) == parse_monomial(text)


def test_weight_system_sorted_and_well_posed():
    ws = WeightSystem.from_weights([12, 1, 8, 3])
    assert ws.a == (1, 3, 8, 12)
    assert ws.d == 24
    assert ws.input_weights == (12, 1, 8, 3)
    with pytest.raises(IllPosedWeights):
        WeightSystem.from_weights([2, 4, 6, 9])


def test_weight_system_is_just_its_weights():
    """d and basis follow from a; equality and hashing see only a and perm."""
    assert WeightSystem._fields == ("a", "perm")
    ws = WeightSystem.from_weights([12, 1, 8, 3])
    assert ws.basis == kernel_basis(ws.a)
    assert ws == WeightSystem.from_weights((12, 1, 8, 3))
    assert hash(ws) == hash(WeightSystem.from_weights((12, 1, 8, 3)))
    assert ws != WeightSystem.from_weights([1, 3, 8, 12])


def test_unsorted_weights_keep_variable_convention():
    # Z carries weight 12 here, so Z^2 is anticanonical exactly as for (1,3,8,12)
    ws = WeightSystem.from_weights([12, 3, 8, 1])
    m = Monomial((2, 0, 0, 0))  # W^2, weight-12 variable
    assert ws.weighted_degree(m) == 24
    pt = ws.monomial_point(m)
    sorted_ws = WeightSystem.from_weights([1, 3, 8, 12])
    assert pt == sorted_ws.monomial_point(parse_monomial("Z^2"))


def test_monomial_point_origin():
    for w in ((1, 1, 1, 1), (2, 4, 5, 9), (5, 6, 8, 11)):
        ws = WeightSystem.from_weights(w)
        assert ws.monomial_point(Monomial((1, 1, 1, 1))) == (0, 0, 0)


def test_monomial_point_w42():
    ws = WeightSystem.from_weights([1, 6, 14, 21])
    pt = ws.monomial_point(parse_monomial("W^42"))
    assert mat_vec(transpose(ws.basis), pt) == (41, -1, -1, -1)


def test_monomial_point_x5y():
    ws = WeightSystem.from_weights([1, 2, 5, 7])
    pt = ws.monomial_point(parse_monomial("X^5Y"))
    assert mat_vec(transpose(ws.basis), pt) == (-1, 4, 0, -1)


def test_monomial_point_wrong_degree():
    ws = WeightSystem.from_weights([1, 6, 14, 21])
    with pytest.raises(WrongDegree) as err:
        ws.monomial_point(parse_monomial("W^41"))
    assert str(err.value) == "W^41 has degree 41, expected 42"


def test_coords_block_is_triangular_with_determinant_a3():
    # exponent_point and anticanonical_points back-substitute through this block
    for ws in well_posed_systems(40):
        block = tuple(row[:3] for row in ws.basis)
        g = gcd(ws.a[2], ws.a[3])
        assert [block[i][j] for i in range(3) for j in range(i)] == [0, 0, 0]
        assert (block[0][0], block[1][1], block[2][2]) == (1, g, ws.a[3] // g)
        assert det(block) == ws.a[3]


def test_anticanonical_points_match_to_coords_oracle():
    n = 0
    for ws in well_posed_systems(40):
        want = filtered_points(ws)
        assert anticanonical_points(ws) == want
        n += len(want)
    assert n == 104981


def test_anticanonical_points_match_oracle_on_table_weight_orders(rows):
    """The enumeration sees only the sorted weights, and every point maps to
    a monomial of degree d in the input order and back."""
    for a in {ws.a for row in rows for ws in row.weights}:
        want = filtered_points(WeightSystem.from_weights(a))
        for order in itertools.permutations(a):
            ws = WeightSystem.from_weights(order)
            assert anticanonical_points(ws) == want
            monomials = [ws.point_monomial(x) for x in want]
            assert all(ws.weighted_degree(m) == ws.d for m in monomials)
            assert tuple(map(ws.monomial_point, monomials)) == want


@pytest.mark.parametrize("n", [4, 5, 40, 400])
def test_anticanonical_points_count_on_1_1_1_n(n):
    # e3 = 0 leaves e0 + e1 + e2 = n + 3, e3 = 1 leaves 3, and e3 >= 2 is
    # out of reach once n >= 4
    ws = WeightSystem.from_weights([1, 1, 1, n])
    assert len(anticanonical_points(ws)) == comb(n + 5, 2) + 10
    assert anticanonical_count(ws) == comb(n + 5, 2) + 10


def test_anticanonical_count_matches_the_listed_points():
    systems = list(well_posed_systems(30))
    assert len(systems) == 1059
    for ws in systems:
        assert anticanonical_count(ws) == len(anticanonical_points(ws))


def test_monomial_point_matches_to_coords_oracle(rows):
    for row in rows:
        for k, ws in enumerate(row.weights):
            for m in row.column_monomials(k):
                shifted = tuple(m.e[i] - 1 for i in ws.perm)
                assert ws.monomial_point(m) == to_coords(ws.basis, shifted)


def test_exponent_point_off_lattice_is_an_invariant_error():
    # (0, 0, 1, 0) has degree 14, not 42: no lattice vector starts (-1, -1, 0)
    ws = WeightSystem.from_weights([1, 6, 14, 21])
    with pytest.raises(AssertionError):
        ws.exponent_point((0, 0, 1, 0))


def test_exponent_point_raises_exactly_off_the_block_lattice():
    """x is fixed by the first three entries of e - 1, and exponent_point
    raises exactly when they are not in the row lattice of the basis's
    triangular block; each system here has both pivots g and q above 1."""
    for w in ((1, 6, 14, 21), (5, 6, 22, 33), (7, 8, 10, 25)):
        ws = WeightSystem.from_weights(w)
        block = tuple(row[:3] for row in ws.basis)
        for e in itertools.product(range(12), repeat=3):
            try:
                want = to_coords(block, tuple(k - 1 for k in e))
            except NotInLattice:
                with pytest.raises(AssertionError):
                    ws.exponent_point(e + (0,))
                continue
            assert ws.exponent_point(e + (0,)) == want


def test_point_monomial_round_trip(rows):
    for row in rows:
        for k, ws in enumerate(row.weights):
            for m in row.column_monomials(k):
                assert ws.point_monomial(ws.monomial_point(m)) == m


@lru_cache(maxsize=None)
def delta_tetrahedron(ws):
    """Reference for the Newton polytope: the rational tetrahedron cut out
    by m_i >= -1 on the degree-zero lattice.

    Vertex j puts every coordinate except m_j at -1, forcing
    m_j = (d - a_j) / a_j, which need not be an integer.  Scaled by a_j it is
    an integral degree-zero vector, so it has integer lattice coordinates.
    """
    verts = []
    for j, a in enumerate(ws.a):
        m = [-a] * 4
        m[j] = ws.d - a
        verts.append(tuple(Fraction(c, a) for c in to_coords(ws.basis, m)))
    return hull(verts)


def test_delta_tetrahedron_integral_case():
    ws = WeightSystem.from_weights([1, 6, 14, 21])
    p = delta_tetrahedron(ws)
    corners = {mat_vec(transpose(ws.basis), v) for v in p.vertices}
    assert corners == {
        (41, -1, -1, -1),
        (-1, 6, -1, -1),
        (-1, -1, 2, -1),
        (-1, -1, -1, 1),
    }


def test_delta_tetrahedron_symmetric():
    ws = WeightSystem.from_weights([1, 1, 1, 1])
    p = delta_tetrahedron(ws)
    assert p.n_vertices == 4
    assert p.is_lattice
    assert set(p.facets) == {
        ((1, 0, 0), 1),
        ((0, 1, 0), 1),
        ((0, 0, 1), 1),
        ((-1, -1, -1), 1),
    }


def test_delta_tetrahedron_rational_vertex():
    ws = WeightSystem.from_weights([2, 4, 5, 9])
    p = delta_tetrahedron(ws)
    corners = [mat_vec(transpose(ws.basis), v) for v in p.vertices]
    fractional = [c for c in corners if any(Fraction(x).denominator != 1 for x in c)]
    assert len(fractional) == 1
    assert fractional[0] == (-1, -1, -1, Fraction(11, 9))
    assert not p.is_lattice


def test_newton_polytope_quartic():
    ws = WeightSystem.from_weights([1, 1, 1, 1])
    p = newton_polytope(ws)
    assert len(p.lattice_points) == comb(7, 3)
    assert p == delta_tetrahedron(ws)


def test_newton_polytope_equals_delta_when_integral():
    ws = WeightSystem.from_weights([1, 6, 14, 21])
    assert newton_polytope(ws) == delta_tetrahedron(ws)


def test_newton_polytope_strictly_inside_rational_delta():
    ws = WeightSystem.from_weights([2, 4, 5, 9])
    n, d = newton_polytope(ws), delta_tetrahedron(ws)
    assert contains(d, n)
    assert not contains(n, d)


def pair_test_survivors(ws):
    """The anticanonical points, in their order, whose sorted exponents e
    have no pair i < j with e_i >= a_j/g and e_j >= a_i/g (g = gcd(a_i,
    a_j)): the six pair tests, written from their definition."""
    a = ws.a
    pairs = [
        (i, j, a[j] // gcd(a[i], a[j]), a[i] // gcd(a[i], a[j]))
        for i, j in itertools.combinations(range(4), 2)
    ]
    return [
        x
        for x in anticanonical_points(ws)
        for e in (tuple(k + 1 for k in mat_vec(transpose(ws.basis), x)),)
        if not any(e[i] >= p and e[j] >= q for i, j, p, q in pairs)
    ]


def test_newton_polytope_matches_the_lexicographic_hull():
    # newton_polytope hulls only the vertex candidates: they are the cloud
    # points that pass the six pair tests, in the cloud's order, every
    # vertex of the full cloud's hull must be one of them, and a degenerate
    # cloud must keep its message.  The last two systems have both lattice
    # steps well above 1 (g = 100, q = 10 and g = 25, q = 5), so the loop
    # skips most e1 and e2.
    newton = newton_polytope.__wrapped__
    systems = list(well_posed_systems(30))
    assert len(systems) == 1059
    systems += map(WeightSystem.from_weights, [(3, 7, 100, 1000), (2, 3, 50, 125)])
    for ws in systems:
        points = anticanonical_points(ws)
        candidates = _vertex_candidates(ws)
        assert candidates == pair_test_survivors(ws)
        try:
            want = hull(points)
        except DegeneratePointSet as exc:
            with pytest.raises(DegeneratePointSet) as err:
                newton(ws)
            assert str(err.value) == str(exc)
        else:
            assert set(want.vertices) <= set(candidates)
            assert newton(ws) == want


def tampered(weights, row, column):
    """A weight system whose cached basis has entry (row, column) one more
    than it should: still triangular, but no longer the weights' kernel."""
    ws = WeightSystem.from_weights(weights)
    basis = [list(r) for r in ws.basis]
    basis[row][column] += 1
    ws.__dict__["basis"] = tuple(map(tuple, basis))
    return ws


def test_vertex_candidates_check_the_basis_against_the_degree():
    """The classes the loop steps through come from the basis; a basis that
    disagrees with the weights fails the e1 check (y1 moved) or, with e1's
    classes right, the e2 check (y2 or s moved), before any point is listed."""
    w = (3, 7, 100, 1000)
    # the loop never reads column 0, so moving it changes nothing
    want = _vertex_candidates(WeightSystem.from_weights(w))
    assert _vertex_candidates(tampered(w, 0, 0)) == want
    with pytest.raises(AssertionError, match="e1's class mod 100 misses"):
        _vertex_candidates(tampered(w, 0, 1))
    for row, column in ((0, 2), (1, 2)):
        with pytest.raises(AssertionError, match="e2's class mod 10 misses"):
            _vertex_candidates(tampered(w, row, column))


def test_newton_polytope_hulls_the_vertex_candidates(monkeypatch):
    """The candidates go to the mesh as they are; `hull` sees only the full
    cloud of a degenerate candidate set."""
    from k3corr import weights

    meshed, hulled = [], []

    def meshing(points, real=weights._triangle_hull):
        meshed.append(points)
        return real(points)

    def hulling(points, real=weights.hull):
        hulled.append(points)
        return real(points)

    monkeypatch.setattr(weights, "_triangle_hull", meshing)
    monkeypatch.setattr(weights, "hull", hulling)
    for w in ((2, 4, 5, 9), (1, 6, 14, 21), (1, 1, 1, 200)):
        ws = WeightSystem.from_weights(w)
        newton_polytope.__wrapped__(ws)
        assert (meshed, hulled) == ([_vertex_candidates(ws)], [])
        meshed.clear()
    # both have 4 coplanar candidates (of 4 and of 44 monomials): the full
    # cloud is hulled after them, so that the message is the cloud's
    for w in ((7, 11, 13, 17), (3, 3, 50, 64)):
        ws = WeightSystem.from_weights(w)
        with pytest.raises(DegeneratePointSet, match="points are coplanar"):
            newton_polytope.__wrapped__(ws)
        assert (meshed, hulled) == ([_vertex_candidates(ws)], [anticanonical_points(ws)])
        meshed.clear()
        hulled.clear()
    # on the quartic a monomial with two exponents >= 1 is a midpoint, so
    # only the four vertices are hulled
    ws = WeightSystem.from_weights([1, 1, 1, 1])
    assert sorted(map(ws.point_monomial, _vertex_candidates(ws))) == sorted(
        parse_monomial(m) for m in ("W^4", "X^4", "Y^4", "Z^4")
    )


def test_newton_in_delta_with_interior_origin(rows):
    seen = set()
    for row in rows:
        for ws in row.weights:
            if ws in seen:
                continue
            seen.add(ws)
            n, d = newton_polytope(ws), delta_tetrahedron(ws)
            assert contains(d, n)
            assert n.origin_interior


def test_delta_lattice_points_are_anticanonical_monomials():
    # also exercises the box scan over rational facet data
    for w in ((2, 4, 5, 9), (3, 5, 6, 7), (1, 2, 5, 7)):
        ws = WeightSystem.from_weights(w)
        assert set(delta_tetrahedron(ws).lattice_points) == set(
            anticanonical_points(ws)
        )


def test_monomial_point_injective_and_counts_match(rows):
    seen = set()
    for row in rows:
        for ws in row.weights:
            if ws in seen:
                continue
            seen.add(ws)
            pts = anticanonical_points(ws)
            assert len(set(pts)) == len(pts)
            assert len(pts) == len(newton_polytope(ws).lattice_points)
            assert set(pts) == set(newton_polytope(ws).lattice_points)


def test_all_table_monomials_have_row_degree(rows):
    for row in rows:
        for k, ws in enumerate(row.weights):
            assert row.degrees[k] == ws.d
            for m in row.column_monomials(k):
                assert ws.weighted_degree(m) == row.degrees[k]


@given(st.lists(st.integers(1, 30), min_size=4, max_size=4))
def test_anticanonical_enumeration_matches_filter(weights):
    try:
        ws = WeightSystem.from_weights(weights)
    except IllPosedWeights:
        return
    pts = anticanonical_points(ws)
    assert list(pts) == sorted(set(pts))
    got = [tuple(m + 1 for m in mat_vec(transpose(ws.basis), x)) for x in pts]
    d, a = ws.d, ws.a
    brute = {
        (e0, e1, e2, e3)
        for e0 in range(d // a[0] + 1)
        for e1 in range(d // a[1] + 1)
        for e2 in range(d // a[2] + 1)
        for e3 in range(d // a[3] + 1)
        if a[0] * e0 + a[1] * e1 + a[2] * e2 + a[3] * e3 == d
    }
    assert len(got) == len(brute)
    assert set(got) == brute


def test_weights_from_text():
    assert weights_from_text("1,6,14,21").a == (1, 6, 14, 21)
    with pytest.raises(ValueError):
        weights_from_text("1,6,x")
    with pytest.raises(IllPosedWeights):
        weights_from_text("2,4,6,9")

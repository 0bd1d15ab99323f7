"""Exact linear algebra: kernel bases, coordinates, lattice-map fitting.

`xgcd`, `hnf` and `to_coords` below are the general routines that the
package no longer needs: the two-pass row HNF of the weight column is the
reference that the closed-form `kernel_basis` is tested against here, and
`to_coords` (back-substitution on any row-HNF basis, then a full residual
check) the one that `WeightSystem.exponent_point` and `anticanonical_points`
are tested against in test_weights.py.

sympy's Smith invariant factors are the independent oracle for the
saturation of kernel bases; HNF is checked structurally (shape, unimodular
transform, lattice invariance) rather than against a second implementation,
since conventions differ.
"""

import itertools
import random
from typing import Sequence

import pytest
import sympy
from sympy.matrices.normalforms import invariant_factors
from hypothesis import assume, given, settings, strategies as st

from k3corr.intlinalg import (
    IllPosedWeights,
    InconsistentPairs,
    IntMat,
    NotIntegral,
    NotUnimodular,
    RankDeficientSource,
    adjugate,
    det,
    fit_lattice_map,
    identity,
    independent_triple,
    is_unimodular,
    kernel_basis,
    mat_inv_rational,
    mat_mul,
    mat_vec,
    transpose,
)
from test_polytope import well_posed_systems


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, s, t) with s*a + t*b = g = gcd(a, b) >= 0."""
    s, next_s = 1, 0
    t, next_t = 0, 1
    g, next_g = a, b
    while next_g:
        q = g // next_g
        s, next_s = next_s, s - q * next_s
        t, next_t = next_t, t - q * next_t
        g, next_g = next_g, g - q * next_g
    if g < 0:
        s, t, g = -s, -t, -g
    return g, s, t


def hnf(m: Sequence[Sequence[int]]) -> tuple[IntMat, IntMat]:
    """Row Hermite normal form.

    Returns (h, u) with h = u * m, u unimodular.  Pivots are positive,
    entries above a pivot are reduced into [0, pivot), zero rows sink to
    the bottom.  The form is canonical, so it doubles as a deterministic
    choice of basis for the row lattice.
    """
    rows = [list(r) for r in m]
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    u = [list(r) for r in identity(nrows)]
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, nrows) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        u[r], u[piv] = u[piv], u[r]
        for i in range(r + 1, nrows):
            while rows[i][c]:
                g, s, t = xgcd(rows[r][c], rows[i][c])
                pr, qi = rows[r][c] // g, rows[i][c] // g
                rows[r], rows[i] = (
                    [s * a + t * b for a, b in zip(rows[r], rows[i])],
                    [-qi * a + pr * b for a, b in zip(rows[r], rows[i])],
                )
                u[r], u[i] = (
                    [s * a + t * b for a, b in zip(u[r], u[i])],
                    [-qi * a + pr * b for a, b in zip(u[r], u[i])],
                )
        if rows[r][c] < 0:
            rows[r] = [-x for x in rows[r]]
            u[r] = [-x for x in u[r]]
        for i in range(r):
            q = rows[i][c] // rows[r][c]
            if q:
                rows[i] = [a - q * b for a, b in zip(rows[i], rows[r])]
                u[i] = [a - q * b for a, b in zip(u[i], u[r])]
        r += 1
        if r == nrows:
            break
    h = tuple(tuple(row) for row in rows)
    return h, tuple(tuple(row) for row in u)


def hnf_kernel_basis(weights):
    """The kernel basis by two HNF passes: if u * a = (g, 0, 0, 0)^T with u
    in GL(4, Z), the last three rows of u generate the kernel lattice, and
    their HNF is the canonical choice."""
    _, u = hnf(tuple((w,) for w in weights))
    h, _ = hnf(u[1:])
    return h


small_ints = st.integers(min_value=-30, max_value=30)


def mat_strategy(rows, cols):
    return st.lists(
        st.lists(small_ints, min_size=cols, max_size=cols),
        min_size=rows,
        max_size=rows,
    ).map(lambda m: tuple(tuple(r) for r in m))


@given(st.integers(-10**12, 10**12), st.integers(-10**12, 10**12))
def test_xgcd(a, b):
    g, s, t = xgcd(a, b)
    assert s * a + t * b == g
    assert g >= 0
    if a or b:
        assert a % g == 0 and b % g == 0


def _is_row_hnf(h):
    pivots = []
    for row in h:
        nz = [j for j, x in enumerate(row) if x]
        if not nz:
            pivots.append(None)
            continue
        assert all(p is not None for p in pivots), "zero row above a nonzero row"
        j = nz[0]
        if pivots:
            assert pivots[-1] is None or j > pivots[-1]
        assert row[j] > 0
        pivots.append(j)
    for i, j in enumerate(pivots):
        if j is None:
            continue
        for k in range(i):
            assert 0 <= h[k][j] < h[i][j]
    return True


@settings(max_examples=150)
@given(st.one_of(mat_strategy(3, 3), mat_strategy(3, 4), mat_strategy(2, 4), mat_strategy(4, 4)))
def test_hnf_transform_and_shape(m):
    h, u = hnf(m)
    assert mat_mul(u, m) == h
    assert sympy.Matrix(u).det() in (1, -1)
    assert _is_row_hnf(h)


@settings(max_examples=60)
@given(mat_strategy(3, 4), st.randoms(use_true_random=False))
def test_hnf_canonical_on_row_lattice(m, rnd):
    """Left-multiplying by a unimodular matrix must not change the HNF."""
    p = _random_unimodular(rnd, 3)
    h1, _ = hnf(m)
    h2, _ = hnf(mat_mul(p, m))
    assert h1 == h2


def _random_unimodular(rnd, n):
    u = [list(r) for r in identity(n)]
    for _ in range(6):
        i, j = rnd.sample(range(n), 2)
        c = rnd.choice([-2, -1, 1, 2])
        for k in range(n):
            u[i][k] += c * u[j][k]
    return tuple(tuple(r) for r in u)


def test_hnf_identity():
    h, u = hnf(identity(3))
    assert h == identity(3)
    assert u == identity(3)


def test_hnf_already_diagonal():
    h, u = hnf(((2, 0), (0, 3)))
    assert h == ((2, 0), (0, 3))
    assert u == identity(2)


def test_hnf_single_row():
    h, u = hnf(((1, 3, 8, 12),))
    assert h == ((1, 3, 8, 12),)
    assert u == ((1,),)


def test_hnf_zero_matrix():
    h, u = hnf(((0, 0), (0, 0)))
    assert h == ((0, 0), (0, 0))
    assert sympy.Matrix(u).det() in (1, -1)


def test_is_unimodular():
    assert is_unimodular(identity(3))
    assert not is_unimodular(((1, 0, 0), (0, 1, 0), (0, 0, 2)))
    perm = ((0, 1, 0), (0, 0, 1), (1, 0, 0))
    assert is_unimodular(perm)


WEIGHTS = [
    (1, 1, 1, 1),
    (1, 6, 14, 21),
    (2, 4, 5, 9),
    (3, 5, 6, 7),
    (7, 8, 10, 25),
]


@settings(max_examples=100)
@given(mat_strategy(3, 3))
def test_adjugate_and_rational_inverse(m):
    d = det(m)
    assert d == sympy.Matrix(m).det()
    assert mat_mul(m, adjugate(m)) == tuple(tuple(d * x for x in r) for r in identity(3))
    if d:
        assert mat_mul(m, mat_inv_rational(m)) == identity(3)


@st.composite
def gl3z(draw):
    """A GL(3, Z) matrix as a product of elementary row operations."""
    u = [list(r) for r in identity(3)]
    ops = st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(-3, 3))
    for i, j, c in draw(st.lists(ops, max_size=8)):
        if i != j:
            u[i] = [a + c * b for a, b in zip(u[i], u[j])]
    if draw(st.booleans()):
        u[0] = [-x for x in u[0]]
    return tuple(tuple(r) for r in u)


@st.composite
def spanning_points(draw):
    """3 to 8 integer points in any order, three of them linearly independent."""
    triple = draw(mat_strategy(3, 3).filter(lambda m: det(m) != 0))
    extra = draw(st.lists(st.tuples(small_ints, small_ints, small_ints), max_size=5))
    return draw(st.permutations(list(triple) + extra))


def _image(m, points):
    return [mat_vec(m, p) for p in points]


@settings(max_examples=80, deadline=None)
@given(gl3z(), spanning_points())
def test_fit_lattice_map_recovers_gl3z_image(u, points):
    assert fit_lattice_map(points, _image(u, points)) == u


@settings(max_examples=60, deadline=None)
@given(gl3z(), spanning_points())
def test_fit_lattice_map_rejects_det_2_and_non_integral(u, points):
    m = mat_mul(u, ((2, 0, 0), (0, 1, 0), (0, 0, 1)))
    with pytest.raises(NotUnimodular) as det_2:
        fit_lattice_map(points, _image(m, points))
    assert type(det_2.value) is NotUnimodular
    assert str(det_2.value) == f"determinant is {det(m)}"
    # the inverse map has determinant +-1/2, so it cannot be integral
    with pytest.raises(NotIntegral):
        fit_lattice_map(_image(m, points), points)


@settings(max_examples=60, deadline=None)
@given(gl3z(), spanning_points(), st.data())
def test_fit_lattice_map_reports_inconsistent_pairs(u, points, data):
    trip = independent_triple(points)
    others = [j for j in range(len(points)) if j not in trip]
    assume(others)
    k = data.draw(st.sampled_from(others))
    tgt = _image(u, points)
    tgt[k] = (tgt[k][0] + 1,) + tgt[k][1:]
    with pytest.raises(InconsistentPairs) as exc:
        fit_lattice_map(points, tgt)
    assert exc.value.bad == [k]


def test_fit_lattice_map_rank_deficient():
    plane = [(1, 0, 0), (0, 1, 0), (1, 1, 0), (2, -1, 0)]
    with pytest.raises(RankDeficientSource):
        fit_lattice_map(plane, plane)


def test_kernel_basis_matches_two_pass_hnf_on_sorted_weights():
    n = 0
    for ws in well_posed_systems(40):
        assert kernel_basis(ws.a) == hnf_kernel_basis(ws.a), ws.a
        n += 1
    assert n == 3118


def test_kernel_basis_matches_two_pass_hnf_on_table_weight_orders(rows):
    for row in rows:
        for ws in row.weights:
            for a in itertools.permutations(ws.a):
                assert kernel_basis(a) == hnf_kernel_basis(a), a


def test_kernel_basis_is_a_saturated_hnf_basis_of_the_kernel():
    """Structural checks with no HNF code: row HNF shape, every row in the
    kernel, and invariant factors (1, 1, 1), so the rows span all of it."""
    n = 0
    for ws in well_posed_systems(20):
        basis = kernel_basis(ws.a)
        assert _is_row_hnf(basis)
        assert all(sum(w * x for w, x in zip(ws.a, b)) == 0 for b in basis)
        theirs = sympy.Matrix(list(map(list, basis)))
        assert tuple(invariant_factors(theirs)) == (1, 1, 1)
        n += 1
    assert n == 235


def test_kernel_basis_all_table_weights(rows):
    for row in rows:
        for ws in row.weights:
            basis = kernel_basis(ws.a)
            assert all(
                sum(w * x for w, x in zip(ws.a, b)) == 0 for b in basis
            )
            theirs = sympy.Matrix(list(map(list, basis)))
            assert tuple(invariant_factors(theirs)) == (1, 1, 1)


@pytest.mark.parametrize("a", WEIGHTS)
def test_kernel_basis_spans_full_kernel(a):
    basis = kernel_basis(a)
    assert len(basis) == 3 and all(len(row) == 4 for row in basis)
    for row in basis:
        assert sum(w * x for w, x in zip(a, row)) == 0
    # saturated sublattice of rank 3 <=> invariant factors (1, 1, 1)
    theirs = sympy.Matrix(list(map(list, basis)))
    assert tuple(invariant_factors(theirs)) == (1, 1, 1)


def test_kernel_basis_symmetric_weights():
    basis = kernel_basis((1, 1, 1, 1))
    assert basis == ((1, 0, 0, -1), (0, 1, 0, -1), (0, 0, 1, -1))


def test_kernel_basis_rejects_ill_posed():
    with pytest.raises(IllPosedWeights):
        kernel_basis((2, 4, 6, 3))  # gcd(2,4,6) = 2
    with pytest.raises(IllPosedWeights):
        kernel_basis((0, 1, 1, 1))
    with pytest.raises(IllPosedWeights):
        kernel_basis((1, 1, 1))


class NotInLattice(ValueError):
    """Raised when a vector is not an integer combination of a lattice basis."""


def to_coords(basis, m):
    """Coordinates x with x . basis = m, for m in the lattice spanned by basis.

    Exploits the HNF shape of the basis: back-substitute on pivot columns,
    then verify the full residual.  Raises NotInLattice otherwise.
    """
    pivots = [next(j for j, x in enumerate(row) if x) for row in basis]
    coords = []
    for i, row in enumerate(basis):
        j = row[pivots[i]]
        residual = m[pivots[i]] - sum(
            coords[k] * basis[k][pivots[i]] for k in range(i)
        )
        q, rem = divmod(residual, j)
        if rem:
            raise NotInLattice(f"{tuple(m)} is not in the lattice")
        coords.append(q)
    if any(
        sum(coords[k] * basis[k][j] for k in range(len(basis))) != m[j]
        for j in range(len(m))
    ):
        raise NotInLattice(f"{tuple(m)} is not in the lattice")
    return tuple(coords)


@pytest.mark.parametrize("a", WEIGHTS)
def test_coords_round_trip_random_lattice_points(a):
    basis = kernel_basis(a)
    rnd = random.Random(20250810)
    for _ in range(1000):
        x = tuple(rnd.randint(-50, 50) for _ in range(3))
        m = mat_vec(transpose(basis), x)
        assert sum(w * c for w, c in zip(a, m)) == 0
        assert to_coords(basis, m) == x


def test_to_coords_examples():
    basis = kernel_basis((1, 6, 14, 21))
    assert to_coords(basis, (0, 0, 0, 0)) == (0, 0, 0)
    assert to_coords(basis, basis[0]) == (1, 0, 0)
    coords = to_coords(basis, (41, -1, -1, -1))
    assert mat_vec(transpose(basis), coords) == (41, -1, -1, -1)


def test_to_coords_rejects_non_lattice():
    basis = kernel_basis((1, 6, 14, 21))
    with pytest.raises(NotInLattice):
        to_coords(basis, (1, 0, 0, 0))  # weighted sum 1, not in kernel
    with pytest.raises(NotInLattice):
        # in the kernel over Q only after scaling: (1,6,14,21)-orthogonal? no
        to_coords(basis, (0, 7, -3, 1))

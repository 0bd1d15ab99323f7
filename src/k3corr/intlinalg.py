"""Exact integer and rational linear algebra for rank-3 exponent lattices.

Everything here works over arbitrary-precision Python ints and
``fractions.Fraction``; there is no floating point anywhere.  Vectors are
tuples of ints (or Fractions), matrices are tuples of row tuples.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import gcd
from typing import Sequence

IntVec = tuple[int, ...]
IntMat = tuple[IntVec, ...]


class IllPosedWeights(ValueError):
    """Raised for weight quadruples where some three weights share a factor."""


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


def identity(n: int) -> IntMat:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def vec_dot(u: Sequence, v: Sequence):
    return sum(a * b for a, b in zip(u, v, strict=True))


def mat_vec(m: Sequence[Sequence], v: Sequence) -> tuple:
    """Matrix times column vector."""
    return tuple(vec_dot(row, v) for row in m)


def mat_mul(a: Sequence[Sequence], b: Sequence[Sequence]) -> tuple:
    bt = list(zip(*b))
    return tuple(tuple(vec_dot(row, col) for col in bt) for row in a)


def transpose(m: Sequence[Sequence]) -> tuple:
    return tuple(zip(*m))


def cross(u: Sequence, v: Sequence) -> tuple:
    """The cross product of two 3-vectors."""
    return (
        u[1] * v[2] - u[2] * v[1],
        u[2] * v[0] - u[0] * v[2],
        u[0] * v[1] - u[1] * v[0],
    )


def det(m: Sequence[Sequence]):
    """Exact determinant of a 3x3 matrix (the triple product of its rows)."""
    return vec_dot(m[0], cross(m[1], m[2]))


def is_unimodular(m: Sequence[Sequence[int]]) -> bool:
    """True iff the 3x3 integer matrix has determinant +-1."""
    return det(m) in (1, -1)


def adjugate(m: Sequence[Sequence]) -> tuple:
    """Adjugate of a 3x3 matrix, so that m . adj(m) = det(m) I: its columns
    are the cross products of pairs of rows."""
    return transpose((cross(m[1], m[2]), cross(m[2], m[0]), cross(m[0], m[1])))


def mat_inv_rational(m: Sequence[Sequence]) -> tuple:
    """Exact inverse over the rationals via the adjugate."""
    d = det(m)
    if d == 0:
        raise ZeroDivisionError("matrix is singular")
    return tuple(tuple(Fraction(x, d) for x in row) for row in adjugate(m))


class RankDeficientSource(ValueError):
    """Raised when no three source points are linearly independent."""


class InconsistentPairs(ValueError):
    """Raised when no single linear map fits every pair; `bad` lists them."""

    def __init__(self, message: str, bad: list[int]):
        super().__init__(message)
        self.bad = bad


class NotUnimodular(ValueError):
    """Raised when the fitted map is not in GL(3, Z)."""


class NotIntegral(NotUnimodular):
    """Raised when the fitted map has a non-integer entry."""


def independent_triple(points: Sequence[Sequence]) -> tuple[int, int, int]:
    """Indices of the first three linearly independent points."""
    for trip in itertools.combinations(range(len(points)), 3):
        if det(tuple(points[i] for i in trip)):
            return trip
    raise RankDeficientSource("fewer than 3 independent source points")


def fit_lattice_map(src: Sequence[Sequence], tgt: Sequence[Sequence]) -> IntMat:
    """The U in GL(3, Z) with U.s = t for every pair (s, t) of src and tgt.

    Solves det(S) U = T adj(S) on the first independent triple S of src (as
    columns) and its targets T, then checks every pair, integrality and the
    determinant; anything else is an error, never a best fit.
    """
    trip = independent_triple(src)
    s = transpose(tuple(src[i] for i in trip))
    d = det(s)
    scaled = mat_mul(transpose(tuple(tgt[i] for i in trip)), adjugate(s))
    bad = [
        j
        for j, (p, t) in enumerate(zip(src, tgt, strict=True))
        if mat_vec(scaled, p) != tuple(d * x for x in t)
    ]
    if bad:
        raise InconsistentPairs(f"no linear map fits pairs {bad}", bad)
    if any(x % d for row in scaled for x in row):
        raise NotIntegral("map is not integral")
    u = tuple(tuple(x // d for x in row) for row in scaled)
    if not is_unimodular(u):
        raise NotUnimodular(f"determinant is {det(u)}")
    return u


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


def check_well_posed(weights: Sequence[int]) -> None:
    if len(weights) != 4 or any(w <= 0 for w in weights):
        raise IllPosedWeights(f"need four positive weights, got {tuple(weights)}")
    for skip in range(4):
        rest = [w for i, w in enumerate(weights) if i != skip]
        g = gcd(gcd(rest[0], rest[1]), rest[2])
        if g != 1:
            raise IllPosedWeights(
                f"weights {tuple(weights)} are not well-posed: "
                f"gcd of all but position {skip} is {g}"
            )


def kernel_basis(weights: Sequence[int]) -> IntMat:
    """Canonical basis (3x4, HNF rows) of {m in Z^4 : sum(a_i * m_i) = 0}.

    If u * a = (g, 0, 0, 0)^T with u in GL(4, Z), the last three rows of u
    generate the kernel lattice; re-running HNF on them makes the choice
    canonical.
    """
    check_well_posed(weights)
    col = tuple((w,) for w in weights)
    _, u = hnf(col)
    basis = u[1:]
    h, _ = hnf(basis)
    return h


def from_coords(basis: IntMat, coords: Sequence) -> tuple:
    """x . basis: the ambient 4-vector with lattice coordinates x."""
    return tuple(
        sum(coords[k] * basis[k][j] for k in range(len(basis)))
        for j in range(len(basis[0]))
    )


def primitive(v: Sequence[int]) -> IntVec:
    """Divide an integer vector by the gcd of its entries (positive gcd)."""
    g = gcd(*v)
    if g == 0:
        raise ValueError("zero vector has no primitive form")
    return tuple(x // g for x in v)

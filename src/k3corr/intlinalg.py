"""Exact integer and rational linear algebra for rank-3 exponent lattices.

Everything here works over arbitrary-precision Python ints and
``fractions.Fraction``; there is no floating point anywhere.  Vectors are
tuples of ints (or Fractions), matrices are tuples of row tuples.  The
kernel basis of a weight quadruple is written down from modular inverses.
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
    """Canonical basis (3x4, row HNF) of {m in Z^4 : sum(a_i * m_i) = 0}.

    The pivots are 1, g = gcd(a2, a3) and q = a3/g in columns 0, 1, 2 (a
    kernel vector with m0 = 0 has g | a1*m1, and gcd(a1, g) = 1 as the
    weights are well-posed).  Each row's entry above a pivot is its least
    non-negative residue modulo that pivot, and its last entry makes the
    weighted sum 0: r3 = (0, 0, q, -a2/g), r2 = (0, g, s, .) with
    (a2/g)*s = -a1 mod q, and r1 = (1, y1, y2, .) with a1*y1 = -a0 mod g and
    (a2/g)*y2 = -(a0 + a1*y1)/g mod q.  pow(x, -1, 1) = 0 is the residue mod 1.
    """
    check_well_posed(weights)
    a0, a1, a2, a3 = weights
    g = gcd(a2, a3)
    q, b2 = a3 // g, a2 // g
    inv_b2 = pow(b2, -1, q)
    y1 = -a0 * pow(a1, -1, g) % g
    y2 = (-a0 - a1 * y1) // g * inv_b2 % q
    s = -a1 * inv_b2 % q
    return (
        (1, y1, y2, -(a0 + a1 * y1 + a2 * y2) // a3),
        (0, g, s, -(a1 * g + a2 * s) // a3),
        (0, 0, q, -b2),
    )


def primitive(v: Sequence[int]) -> IntVec:
    """Divide an integer vector by the gcd of its entries (positive gcd)."""
    g = gcd(*v)
    if g == 0:
        raise ValueError("zero vector has no primitive form")
    return tuple(x // g for x in v)

"""Exact integer and rational linear algebra for rank-3 exponent lattices.

Everything here works over arbitrary-precision Python ints and
``fractions.Fraction``; there is no floating point anywhere.  Vectors are
tuples of ints (or Fractions), matrices are tuples of row tuples.  The
kernel basis of a weight quadruple is written down from modular inverses.
The two base classes of every domain error live here, as every module
imports this one.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import gcd
from typing import Sequence

IntVec = tuple[int, ...]
IntMat = tuple[IntVec, ...]


class K3CorrError(ValueError):
    """Base of every domain error: the input fails a condition."""


class InputError(K3CorrError):
    """Base of the domain errors for malformed or unusable input."""


class IllPosedWeights(InputError):
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
    (ax, ay, az), (bx, by, bz), (cx, cy, cz) = m
    return ax * (by * cz - bz * cy) + ay * (bz * cx - bx * cz) + az * (bx * cy - by * cx)


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


class RankDeficientSource(K3CorrError):
    """Raised when no three source points are linearly independent."""


class InconsistentPairs(K3CorrError):
    """Raised when no single linear map fits every pair; `bad` lists them."""

    def __init__(self, message: str, bad: list[int]):
        super().__init__(message)
        self.bad = bad


class NotUnimodular(K3CorrError):
    """Raised when the fitted map is not in GL(3, Z)."""


def independent_triple(points: Sequence[Sequence]) -> tuple[int, int, int]:
    """Indices of the first three linearly independent points."""
    for i, j, k in itertools.combinations(range(len(points)), 3):
        (ax, ay, az), (bx, by, bz), (cx, cy, cz) = points[i], points[j], points[k]
        if ax * (by * cz - bz * cy) + ay * (bz * cx - bx * cz) + az * (bx * cy - by * cx):
            return i, j, k
    raise RankDeficientSource("fewer than 3 independent source points")


def fit_lattice_map(src: Sequence[Sequence], tgt: Sequence[Sequence]) -> IntMat:
    """The U in GL(3, Z) with U.s = t for every pair (s, t) of src and tgt.

    Solves det(S) U = T adj(S) by Cramer's rule on the first independent
    triple a, b, c of src (the columns of S) and its targets (the columns of
    T), written out in integers: the rows of adj(S) are b x c, c x a and
    a x b, det(S) = <a, b x c>, and row i of T adj(S) is the sum of the
    targets' i-th entries times those rows.  Then checks every pair,
    integrality and the determinant; anything else is an error, never a
    best fit.
    """
    i, j, k = independent_triple(src)
    (ax, ay, az), (bx, by, bz), (cx, cy, cz) = src[i], src[j], src[k]
    p0, p1, p2 = by * cz - bz * cy, bz * cx - bx * cz, bx * cy - by * cx
    q0, q1, q2 = cy * az - cz * ay, cz * ax - cx * az, cx * ay - cy * ax
    r0, r1, r2 = ay * bz - az * by, az * bx - ax * bz, ax * by - ay * bx
    d = ax * p0 + ay * p1 + az * p2
    scaled = [
        (u * p0 + v * q0 + w * r0, u * p1 + v * q1 + w * r1, u * p2 + v * q2 + w * r2)
        for u, v, w in zip(tgt[i], tgt[j], tgt[k])
    ]
    (a0, a1, a2), (b0, b1, b2), (c0, c1, c2) = scaled
    bad = [
        n
        for n, ((x, y, z), (tx, ty, tz)) in enumerate(zip(src, tgt, strict=True))
        if a0 * x + a1 * y + a2 * z != d * tx
        or b0 * x + b1 * y + b2 * z != d * ty
        or c0 * x + c1 * y + c2 * z != d * tz
    ]
    if bad:
        raise InconsistentPairs(f"no linear map fits pairs {bad}", bad)
    if any(x % d for row in scaled for x in row):
        raise NotUnimodular("map is not integral")
    u = tuple(tuple(x // d for x in row) for row in scaled)
    if not is_unimodular(u):
        raise NotUnimodular(f"determinant is {det(u)}")
    return u


def check_well_posed(weights: Sequence[int]) -> None:
    if len(weights) != 4 or any(w <= 0 for w in weights):
        raise IllPosedWeights(f"need four positive weights, got {tuple(weights)}")
    a0, a1, a2, a3 = weights
    all_but = gcd(a1, a2, a3), gcd(a0, a2, a3), gcd(a0, a1, a3), gcd(a0, a1, a2)
    for skip, g in enumerate(all_but):
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

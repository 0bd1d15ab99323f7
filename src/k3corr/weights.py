"""Weight systems, anticanonical monomials and their Newton polytopes.

A weight system is its sorted weights (a0 <= a1 <= a2 <= a3) and their
input order.  These fix the degree d = sum(a_i) and the canonical basis of
the rank-3 lattice of degree-zero exponent vectors, a row HNF that
`intlinalg.kernel_basis` writes in closed form.  An anticanonical monomial
maps to the coordinates of e - (1, 1, 1, 1) in that basis.  The basis's
left 3x3 block is upper triangular with pivots 1, g = gcd(a2, a3) and
a3/g, so back-substitution gives the coordinates of a lattice vector, and
the weight tetrahedron's points are enumerated in coordinates directly, once
per weight system.  The Newton polytope hulls them with its four corner
monomials first and the rest in a set's order (the order sets the cost).
"""

from __future__ import annotations

import re
from functools import cached_property, lru_cache
from math import gcd
from typing import NamedTuple, Sequence

from . import intlinalg
from .intlinalg import InputError, IntMat, IntVec, K3CorrError, mat_vec, transpose
from .polytope import Polytope3, hull

VARIABLES = "WXYZ"

_TOKEN = re.compile(r"([WXYZ])(?:\^(?:\{(\d+)\}|(\d+)))?")


class MalformedMonomial(InputError):
    """Raised for text that is not a monomial in W, X, Y, Z."""


class WrongDegree(K3CorrError):
    """Raised when a monomial does not have the anticanonical degree."""

    def __init__(self, monomial: "Monomial", got: int, want: int):
        super().__init__(f"{monomial} has degree {got}, expected {want}")
        self.got = got
        self.want = want


class _MonomialFields(NamedTuple):
    e: tuple[int, int, int, int]


class Monomial(_MonomialFields):
    """Exponent vector of a monomial in the homogeneous coordinates W,X,Y,Z."""

    __slots__ = ()

    def __new__(cls, e):
        if len(e) != 4 or any(x < 0 for x in e):
            raise MalformedMonomial(f"bad exponent vector {e}")
        return super().__new__(cls, e)

    def __str__(self):
        if not any(self.e):
            return "1"
        return "".join(
            v if k == 1 else f"{v}^{k}"
            for v, k in zip(VARIABLES, self.e)
            if k
        )

    def __repr__(self):
        return f"Monomial({self})"


def parse_monomial(text: str) -> Monomial:
    """Parse paper-style notation like ``W^3X^7`` or ``WXYZ``.

    An omitted variable has exponent 0, a bare variable exponent 1.
    Repeated variables, zero exponents and stray characters are rejected.
    """
    s = text.strip()
    if not s:
        raise MalformedMonomial("empty monomial")
    pos = 0
    exps = {}
    while pos < len(s):
        m = _TOKEN.match(s, pos)
        if not m:
            raise MalformedMonomial(f"cannot parse {text!r} at {s[pos:]!r}")
        var, exp = m.group(1), m.group(2) or m.group(3)
        if var in exps:
            raise MalformedMonomial(f"variable {var} repeated in {text!r}")
        try:
            k = 1 if exp is None else int(exp)
        except ValueError as exc:  # past the int-string digit limit
            raise MalformedMonomial(f"exponent of {var} is too long") from exc
        if k <= 0:
            raise MalformedMonomial(f"exponent of {var} must be positive in {text!r}")
        exps[var] = k
        pos = m.end()
    return Monomial(tuple(exps.get(v, 0) for v in VARIABLES))


class _WeightFields(NamedTuple):
    a: tuple[int, int, int, int]
    perm: tuple[int, int, int, int]


class WeightSystem(_WeightFields):
    """Well-posed quadruple of positive weights, ascending; d and basis follow.

    `perm` records where each sorted weight came from in the input order, so
    monomials written in the caller's W,X,Y,Z convention stay meaningful.
    Equality and hashing see (a, perm) only; d, basis and input_weights are
    cached in the instance dict (cached_property writes it, not __setattr__).
    """

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r} of a WeightSystem")

    @classmethod
    def from_weights(cls, weights: Sequence[int]) -> "WeightSystem":
        intlinalg.check_well_posed(weights)
        order = sorted(range(4), key=lambda i: weights[i])
        return cls(a=tuple(weights[i] for i in order), perm=tuple(order))

    @cached_property
    def d(self) -> int:
        return sum(self.a)

    @cached_property
    def basis(self) -> IntMat:
        return intlinalg.kernel_basis(self.a)

    def __str__(self):
        return ",".join(str(w) for w in self.input_weights)

    @cached_property
    def input_weights(self) -> tuple[int, int, int, int]:
        return tuple(self.a[self.perm.index(i)] for i in range(4))

    def weighted_degree(self, m: Monomial) -> int:
        w0, w1, w2, w3 = self.input_weights
        e0, e1, e2, e3 = m.e
        return w0 * e0 + w1 * e1 + w2 * e2 + w3 * e3

    def exponent_point(self, e: Sequence[int]) -> IntVec:
        """Lattice coordinates of e - (1,1,1,1) for a sorted exponent vector e
        of degree d: x . basis = e - (1,1,1,1) fixes x by its first three
        entries, solved by back-substitution through the triangular block."""
        (_, y1, y2, _), (_, g, s, _), (_, _, q, _) = self.basis
        x0 = e[0] - 1
        x1, rem1 = divmod(e[1] - 1 - y1 * x0, g)
        x2, rem2 = divmod(e[2] - 1 - y2 * x0 - s * x1, q)
        if rem1 or rem2:
            raise AssertionError(f"{tuple(e)} does not have degree {self.d}")
        return (x0, x1, x2)

    def monomial_point(self, m: Monomial) -> IntVec:
        """Lattice coordinates of the degree-zero vector e - (1,1,1,1)."""
        got = self.weighted_degree(m)
        if got != self.d:
            raise WrongDegree(m, got, self.d)
        return self.exponent_point(tuple(m.e[i] for i in self.perm))

    def point_monomial(self, coords: Sequence[int]) -> Monomial:
        """Inverse of monomial_point, for points with all entries >= -1."""
        e_sorted = tuple(x + 1 for x in mat_vec(transpose(self.basis), coords))
        if any(x < 0 for x in e_sorted):
            raise K3CorrError(f"{tuple(coords)} is outside the exponent cone")
        return Monomial(tuple(e_sorted[self.perm.index(i)] for i in range(4)))


@lru_cache(maxsize=1024)
def anticanonical_points(ws: WeightSystem) -> tuple[IntVec, ...]:
    """Lattice points of the weight tetrahedron, enumerated in coordinates.

    With basis rows (1, y1, y2, .), (0, g, s, .), (0, 0, q, .), the point x
    has e0 = 1 + x0, e1 = c1 + g*x1 (c1 = 1 + y1*x0), e2 = c2 + q*x2 (c2 =
    1 + y2*x0 + s*x1).  e0 >= 0 and a0*e0 <= d bound x0, e1 >= 0 and a1*e1
    <= r0 = d - a0*e0 bound x1, e2 >= 0 and a2*e2 <= r0 - a1*e1 (e3 >= 0)
    bound x2.  Each e_i grows with x_i, so the points come in (e0, e1, e2) order.
    """
    a0, a1, a2, _ = ws.a
    (_, y1, y2, _), (_, g, s, _), (_, _, q, _) = ws.basis
    points = []
    for x0 in range(-1, ws.d // a0):
        r0 = ws.d - a0 * (x0 + 1)
        c1 = 1 + y1 * x0
        for x1 in range(-(c1 // g), (r0 // a1 - c1) // g + 1):
            c2 = 1 + y2 * x0 + s * x1
            hi = ((r0 - a1 * (c1 + g * x1)) // a2 - c2) // q
            points.extend((x0, x1, x2) for x2 in range(-(c2 // q), hi + 1))
    return tuple(points)


def _corner(ws: WeightSystem, i: int) -> IntVec:
    """An anticanonical point with the largest exponent of sorted variable i.

    e_i runs down from d // a_i to the first remainder r = d - a_i e_i that
    the other weights p <= q <= s represent, trying z = 0, 1, .. r // s for
    r - s z = p x + q y.  With g = gcd(p, q) that has a solution exactly when
    g divides it and its least x >= 0 (x is fixed mod q/g) leaves q y >= 0.
    By e_i = 1 the search has returned, as r = p + q + s there.
    """
    a, d = ws.a, ws.d
    p, q, s = a[:i] + a[i + 1 :]
    g = gcd(p, q)
    inv = pow(p // g, -1, q // g)
    for ei in range(d // a[i], 0, -1):
        r = d - a[i] * ei
        for z in range(r // s + 1):
            m = r - s * z
            if m % g == 0:
                x = m // g * inv % (q // g)
                if p * x <= m:
                    e = [x, (m - p * x) // q, z]
                    e.insert(i, ei)
                    return ws.exponent_point(e)


@lru_cache(maxsize=1024)
def newton_polytope(ws: WeightSystem) -> Polytope3:
    """Convex hull of all lattice points of the weight tetrahedron.

    `hull` inserts points in list order, which sets its cost.  The four
    corners come first: corner i has the largest exponent of variable i
    (x_i^(d/a_i) when a_i divides d), so most later points fall beneath
    their tetrahedron and cost one visibility scan.  The rest follow in a
    set's order: a lexicographic sweep would put almost every point outside
    the hull built so far, a random-like order lets most fall inside early
    (O(n log n) expected time, Clarkson-Shor 1989).  A tuple of ints hashes
    the same under any PYTHONHASHSEED, so the order is fixed for one Python
    version.

    The order never reaches the result: the corners are cloud points, `hull`
    keeps the first copy of a repeated point, and its builder numbers the
    vertices lexicographically and sorts the facets and edges.  A degenerate
    cloud raises the same DegeneratePointSet message in any order, naming
    the cloud a point, a line or a plane.
    """
    corners = [_corner(ws, i) for i in range(4)]
    return hull([*corners, *set(anticanonical_points(ws))])


def weights_from_text(text: str) -> WeightSystem:
    """Parse the CLI weight syntax ``a0,a1,a2,a3``."""
    try:
        parts = [int(tok) for tok in text.split(",")]
    except ValueError as exc:
        raise InputError(f"bad weight list {text!r}") from exc
    return WeightSystem.from_weights(parts)

"""Weight systems, anticanonical monomials and their Newton polytopes.

A weight system is its sorted weights (a0 <= a1 <= a2 <= a3) and their
input order.  These fix the degree d = sum(a_i) and the canonical basis of
the rank-3 lattice of degree-zero exponent vectors, a row HNF that
`intlinalg.kernel_basis` writes in closed form.  An anticanonical monomial
maps to the coordinates of e - (1, 1, 1, 1) in that basis.  The basis's
left 3x3 block is upper triangular with pivots 1, g = gcd(a2, a3) and
a3/g, so back-substitution gives the coordinates of a lattice vector.  The
Newton polytope meshes only the monomials that can be its vertices, listed
directly with their coordinates: a monomial that is the midpoint of two
others along a degree-zero step between two variables is never listed.
That loop visits lattice points only, e1 stepped through its class mod g
and e2 through its class mod a3/g, and checks that these are the classes
the degree picks: e1's once per e0, e2's once per (e0, e1), and that e3
is integral per e2.  The number of anticanonical monomials comes from a
recurrence, listing none.  The weight tetrahedron's points are enumerated
in coordinates only when the candidates are degenerate, so that the error
message is the whole cloud's.
"""

from __future__ import annotations

import re
from functools import cached_property, lru_cache
from math import gcd
from typing import NamedTuple, Sequence

from . import intlinalg
from .intlinalg import InputError, IntMat, IntVec, K3CorrError, mat_vec, transpose
from .polytope import DegeneratePointSet, Polytope3, _from_mesh, _triangle_hull, hull

VARIABLES = "WXYZ"

_TOKEN = re.compile(r"([WXYZ])(?:\^(?:\{(\d+)\}|(\d+)))?")


class MalformedMonomial(InputError):
    """Raised for text that is not a monomial in W, X, Y, Z."""


class WrongDegree(K3CorrError):
    """Raised when a monomial does not have the anticanonical degree."""


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
            raise WrongDegree(f"{m} has degree {got}, expected {self.d}")
        return self.exponent_point(tuple(m.e[i] for i in self.perm))

    def point_monomial(self, coords: Sequence[int]) -> Monomial:
        """Inverse of monomial_point, for points with all entries >= -1."""
        e_sorted = tuple(x + 1 for x in mat_vec(transpose(self.basis), coords))
        if any(x < 0 for x in e_sorted):
            raise K3CorrError(f"{tuple(coords)} is outside the exponent cone")
        return Monomial(tuple(e_sorted[self.perm.index(i)] for i in range(4)))


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


@lru_cache(maxsize=1024)
def anticanonical_count(ws: WeightSystem) -> int:
    """Number of anticanonical monomials, listing none: the coefficient of
    t^d in the product of 1 / (1 - t^a_i), from c[n] += c[n - a_i].  Cached,
    as a table row's swaps ask for the same weight systems again."""
    c = [1] + [0] * ws.d
    for a in ws.a:
        for n in range(a, ws.d + 1):
            c[n] += c[n - a]
    return c[ws.d]


def _vertex_candidates(ws: WeightSystem) -> list[IntVec]:
    """The anticanonical points that fail none of `newton_polytope`'s six
    pair tests, in lexicographic order of their sorted exponents.

    Once e_i >= a_j/g, the test of pair (i, j) bounds e_j by a_i/g - 1, so
    e1 and e2 run only up to their bounds, and e3, fixed by the degree,
    takes its three tests after.  Only lattice points are visited, their
    coordinates (those of `WeightSystem.exponent_point`) stepped along: for
    each e0, e1 runs through its class mod g as x1 += 1, and for each (e0,
    e1), e2 through its class mod q as x2 += 1.  The degree picks the same
    classes.  g divides a2 and a3, so it divides r1 = r0 - a1 e1 (r0 = d -
    a0 e0): e1 = r0 / a1 mod g.  a3 divides r1 - a2 e2: e2 = (r1/g) /
    (a2/g) mod q.  Both inverses exist as the weights are well-posed.
    Three checks keep degree and lattice in step over the whole range and
    raise AssertionError otherwise: e1's class in the basis is the
    degree's, once per e0; so is e2's, once per (e0, e1); and e3 is
    integral, per e2.
    """
    a0, a1, a2, a3 = a = ws.a
    # pair (i, j) as (a_j/g, a_i/g): e_i >= a_j/g and e_j >= a_i/g fails it
    (p01, q01), (p02, q02), (p03, q03), (p12, q12), (p13, q13), (p23, q23) = (
        (a[j] // g, a[i] // g)
        for i, j in ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
        for g in (gcd(a[i], a[j]),)
    )
    (_, y1, y2, _), (_, g, s, _), (_, _, q, _) = ws.basis
    inv1, inv2 = pow(a1, -1, g), pow(a2 // g, -1, q)
    points = []
    for e0 in range(ws.d // a0 + 1):
        r0 = ws.d - a0 * e0
        x0 = e0 - 1
        t1 = -1 - y1 * x0
        c1 = -t1 % g
        if c1 != r0 * inv1 % g:
            raise AssertionError(f"e1's class mod {g} misses degree {ws.d}")
        hi1 = r0 // a1
        if e0 >= p01 and hi1 >= q01:
            hi1 = q01 - 1
        if c1 > hi1:
            continue
        t2 = -1 - y2 * x0
        x1 = (c1 + t1) // g - 1
        for e1 in range(c1, hi1 + 1, g):
            x1 += 1
            r1 = r0 - a1 * e1
            t = t2 - s * x1
            c2 = -t % q
            if c2 != r1 // g * inv2 % q:
                raise AssertionError(f"e2's class mod {q} misses degree {ws.d}")
            hi2 = r1 // a2
            if e0 >= p02 and hi2 >= q02:
                hi2 = q02 - 1
            if e1 >= p12 and hi2 >= q12:
                hi2 = q12 - 1
            if c2 > hi2:
                continue
            x2 = (c2 + t) // q - 1
            for e2 in range(c2, hi2 + 1, q):
                x2 += 1
                e3, rem = divmod(r1 - a2 * e2, a3)
                if rem:
                    raise AssertionError(f"{(e0, e1, e2)} leaves no integral e3")
                if not (
                    e3 >= q03 and e0 >= p03
                    or e3 >= q13 and e1 >= p13
                    or e3 >= q23 and e2 >= p23
                ):
                    points.append((x0, x1, x2))
    return points


@lru_cache(maxsize=1024)
def newton_polytope(ws: WeightSystem) -> Polytope3:
    """Convex hull of all lattice points of the weight tetrahedron, built
    from the points that can be its vertices.

    For sorted weights a_i, a_j with g = gcd(a_i, a_j), the vector v =
    (a_j/g) e_i - (a_i/g) e_j has degree 0.  If a monomial's exponents have
    e_i >= a_j/g and e_j >= a_i/g, then e + v and e - v are anticanonical
    too, so e is their midpoint and no vertex: it fails the test of pair
    (i, j).  The monomials that fail none of the six pair tests
    (`_vertex_candidates`) are cloud points holding every vertex, so their
    hull is the cloud's.  They are distinct integer triples, so they go to
    the mesh and the builder as they are, with no pass through `hull`.  A
    degenerate candidate set therefore means a degenerate cloud; the full
    cloud is hulled then, so the DegeneratePointSet message names the cloud
    a point, a line or a plane as the cloud's own hull would.
    """
    candidates = _vertex_candidates(ws)
    try:
        return _from_mesh(candidates, 1, _triangle_hull(candidates))
    except DegeneratePointSet:
        return hull(anticanonical_points(ws))


def weights_from_text(text: str) -> WeightSystem:
    """Parse the CLI weight syntax ``a0,a1,a2,a3``."""
    try:
        parts = [int(tok) for tok in text.split(",")]
    except ValueError as exc:
        raise InputError(f"bad weight list {text!r}") from exc
    return WeightSystem.from_weights(parts)

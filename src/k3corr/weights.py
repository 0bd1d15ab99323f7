"""Weight systems, anticanonical monomials and their Newton polytopes.

A weight system is its sorted weights (a0 <= a1 <= a2 <= a3) and their
input order.  These fix the degree d = sum(a_i) and the canonical basis of
the rank-3 lattice of degree-zero exponent vectors, a row HNF that
`intlinalg.kernel_basis` writes in closed form.  An anticanonical monomial
maps to the coordinates of e - (1, 1, 1, 1) in that basis.  The basis's
left 3x3 block B is upper triangular with pivots 1, g = gcd(a2, a3) and
a3/g, so det B = a3, and one fixed integer map, adj(B) / a3 applied to the
first three entries, gives the coordinates of every lattice vector.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterator, Sequence

from . import intlinalg
from .intlinalg import IntMat, IntVec
from .polytope import Polytope3, hull

VARIABLES = "WXYZ"

_TOKEN = re.compile(r"([WXYZ])(?:\^\{?(\d+)\}?)?")


class MalformedMonomial(ValueError):
    """Raised for text that is not a monomial in W, X, Y, Z."""


class WrongDegree(ValueError):
    """Raised when a monomial does not have the anticanonical degree."""

    def __init__(self, monomial: "Monomial", got: int, want: int):
        super().__init__(f"{monomial} has degree {got}, expected {want}")
        self.got = got
        self.want = want


@dataclass(frozen=True)
class Monomial:
    """Exponent vector of a monomial in the homogeneous coordinates W,X,Y,Z."""

    e: tuple[int, int, int, int]

    def __post_init__(self):
        if len(self.e) != 4 or any(x < 0 for x in self.e):
            raise MalformedMonomial(f"bad exponent vector {self.e}")

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
        var, exp = m.group(1), m.group(2)
        if var in exps:
            raise MalformedMonomial(f"variable {var} repeated in {text!r}")
        k = 1 if exp is None else int(exp)
        if k <= 0:
            raise MalformedMonomial(f"exponent of {var} must be positive in {text!r}")
        exps[var] = k
        pos = m.end()
    return Monomial(tuple(exps.get(v, 0) for v in VARIABLES))


@dataclass(frozen=True)
class WeightSystem:
    """Well-posed quadruple of positive weights, ascending; d and basis follow.

    `perm` records where each sorted weight came from in the input order, so
    monomials written in the caller's W,X,Y,Z convention stay meaningful.
    """

    a: tuple[int, int, int, int]
    perm: tuple[int, int, int, int]

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

    @property
    def input_weights(self) -> tuple[int, int, int, int]:
        return tuple(self.a[self.perm.index(i)] for i in range(4))

    def weighted_degree(self, m: Monomial) -> int:
        return sum(w * k for w, k in zip(self.input_weights, m.e))

    def _sorted_exponents(self, m: Monomial) -> tuple[int, int, int, int]:
        return tuple(m.e[i] for i in self.perm)

    @cached_property
    def _coords_map(self) -> IntMat:
        """The columns of adj(B), for B the left 3x3 block of the basis."""
        return intlinalg.transpose(
            intlinalg.adjugate(tuple(row[:3] for row in self.basis))
        )

    def exponent_point(self, e: Sequence[int]) -> IntVec:
        """Lattice coordinates of e - (1,1,1,1) for a sorted exponent vector e
        of degree d: x . basis = e - (1,1,1,1) fixes x by its first three
        entries, x = (e0 - 1, e1 - 1, e2 - 1) . adj(B) / det(B)."""
        m0, m1, m2 = e[0] - 1, e[1] - 1, e[2] - 1
        a3 = self.a[3]
        coords = []
        for c0, c1, c2 in self._coords_map:
            q, rem = divmod(m0 * c0 + m1 * c1 + m2 * c2, a3)
            if rem:
                raise AssertionError(f"{tuple(e)} does not have degree {self.d}")
            coords.append(q)
        return tuple(coords)

    def monomial_point(self, m: Monomial) -> IntVec:
        """Lattice coordinates of the degree-zero vector e - (1,1,1,1)."""
        got = self.weighted_degree(m)
        if got != self.d:
            raise WrongDegree(m, got, self.d)
        return self.exponent_point(self._sorted_exponents(m))

    def point_monomial(self, coords: Sequence[int]) -> Monomial:
        """Inverse of monomial_point, for points with all entries >= -1."""
        shifted = intlinalg.from_coords(self.basis, coords)
        e_sorted = tuple(x + 1 for x in shifted)
        if any(x < 0 for x in e_sorted):
            raise ValueError(f"{tuple(coords)} is outside the exponent cone")
        return Monomial(tuple(e_sorted[self.perm.index(i)] for i in range(4)))

    def anticanonical_exponents(self) -> Iterator[tuple[int, int, int, int]]:
        """All e >= 0 with sum(a_i e_i) = d, in sorted-weight coordinates."""
        a, d = self.a, self.d
        for e0 in range(d // a[0] + 1):
            r0 = d - a[0] * e0
            for e1 in range(r0 // a[1] + 1):
                r1 = r0 - a[1] * e1
                for e2 in range(r1 // a[2] + 1):
                    r2 = r1 - a[2] * e2
                    q, rem = divmod(r2, a[3])
                    if rem == 0:
                        yield (e0, e1, e2, q)


def anticanonical_points(ws: WeightSystem) -> tuple[IntVec, ...]:
    """Lattice points of the weight tetrahedron, via exponent enumeration."""
    return tuple(ws.exponent_point(e) for e in ws.anticanonical_exponents())


@lru_cache(maxsize=None)
def newton_polytope(ws: WeightSystem) -> Polytope3:
    """Convex hull of all lattice points of the weight tetrahedron."""
    return hull(anticanonical_points(ws))


def weights_from_text(text: str) -> WeightSystem:
    """Parse the CLI weight syntax ``a0,a1,a2,a3``."""
    try:
        parts = [int(tok) for tok in text.split(",")]
    except ValueError as exc:
        raise ValueError(f"bad weight list {text!r}") from exc
    return WeightSystem.from_weights(parts)

"""Lattice isomorphisms between weight systems and row verification.

The monomials in one column of a table row pin down a linear identification
of the degree-zero exponent lattices: solve on three independent columns,
then insist every remaining column is matched exactly.  On top of that sit
the common polytope of a row (the hull of one weight's column points, whose
containment in every Newton polytope the exact fits already prove), the
full verification report, the bold-column exchange checks, and the
vertex-deletion search for reflexive subpolytopes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

from .dataset import RowRecord
from .intlinalg import InconsistentPairs, IntMat, NotUnimodular, RankDeficientSource
from .intlinalg import fit_lattice_map, identity, is_unimodular, mat_mul
from .picard import picard_rank
from .polytope import (
    OriginNotInterior,
    Polytope3,
    hull,
    is_reflexive,
    unimodular_equivalent,
)
from .weights import newton_polytope


class NotReflexiveDelta(ValueError):
    """Raised when the common polytope of a row is not reflexive."""


def _column_points(row: RowRecord, weight_idx: int):
    ws = row.weights[weight_idx]
    return [ws.monomial_point(m) for m in row.column_monomials(weight_idx)]


def derive_iso(row: RowRecord, from_idx: int, to_idx: int) -> IntMat:
    """The unique linear map sending each source column point to its target.

    Solves on the first three linearly independent columns and verifies the
    rest; anything else is an error, never a best fit.  The matrix maps
    source lattice coordinates to target lattice coordinates.  Monomial
    coordinate changes act on the real logarithm space by the same matrix,
    so it is also the linear map between the amoebas.
    """
    try:
        return fit_lattice_map(
            _column_points(row, from_idx), _column_points(row, to_idx)
        )
    except InconsistentPairs as exc:
        j = exc.bad[0]
        raise InconsistentPairs(
            f"row {row.key}: no linear map fits columns {exc.bad} "
            f"({row.column_monomials(from_idx)[j]} vs "
            f"{row.column_monomials(to_idx)[j]})",
            exc.bad,
        ) from exc
    except (RankDeficientSource, NotUnimodular) as exc:
        raise type(exc)(f"row {row.key}: {exc}") from exc


@lru_cache(maxsize=None)
def common_delta(row: RowRecord) -> Polytope3:
    """Hull of the column points in the first weight's coordinates, checked
    to be reflexive.

    Its image under derive_iso(row, 0, k) lies in the Newton polytope of
    weight k without a further test: each vertex is a column point of
    weight 0; the fitted map sends each of those exactly onto the matching
    column point of weight k; monomial_point has checked that monomial's
    degree and Monomial rejects negative exponents, so the image is an
    anticanonical point of weight k; and the Newton polytope is the hull of
    all of those.
    """
    delta = hull(_column_points(row, 0))
    if not is_reflexive(delta):
        raise NotReflexiveDelta(f"row {row.key}: common polytope is not reflexive")
    return delta


# -- verification reports -----------------------------------------------------


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class VerificationReport:
    key: str
    checks: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def lines(self) -> list[str]:
        out = []
        for c in self.checks:
            mark = "ok" if c.passed else "FAIL"
            detail = f"  ({c.detail})" if c.detail else ""
            out.append(f"[{mark:>4}] {self.key}: {c.name}{detail}")
        return out


class _Checks:
    def __init__(self, key: str):
        self.key = key
        self.results: list[CheckResult] = []

    def record(self, name: str, passed: bool, detail: str = ""):
        self.results.append(CheckResult(name, bool(passed), detail))

    def run(self, name: str, fn):
        """Run fn; a ValueError, as every expected failure is, fails the check."""
        try:
            value = fn()
        except ValueError as exc:
            self.results.append(CheckResult(name, False, str(exc)))
            return None
        self.results.append(CheckResult(name, True, ""))
        return value

    def report(self) -> VerificationReport:
        return VerificationReport(key=self.key, checks=tuple(self.results))


def verify_row(row: RowRecord) -> VerificationReport:
    """Run every check of the row contract; failures become report entries."""
    ck = _Checks(row.key)

    for k, ws in enumerate(row.weights):
        ck.record(
            f"degree[{row.ids[k]}]=sum(weights)",
            row.degrees[k] == ws.d,
            f"printed {row.degrees[k]}, weights give {ws.d}",
        )
    degree_bad = [
        (row.ids[k], j, str(m), ws.weighted_degree(m))
        for j, col in enumerate(row.columns)
        for k, (m, ws) in enumerate(zip(col, row.weights))
        if ws.weighted_degree(m) != row.degrees[k]
    ]
    ck.record(
        "monomial-degrees",
        not degree_bad,
        "" if not degree_bad else f"bad: {degree_bad[:3]}",
    )
    if degree_bad:
        return ck.report()

    isos = {}
    for k in range(1, row.n_weights):
        pair = f"{row.ids[0]}->{row.ids[k]}"
        iso = ck.run(f"iso[{pair}]", lambda k=k: derive_iso(row, 0, k))
        if iso is None:
            continue
        isos[k] = iso
        ck.record(f"iso[{pair}] unimodular", is_unimodular(iso))
        back = ck.run(f"iso[{row.ids[k]}->{row.ids[0]}]", lambda k=k: derive_iso(row, k, 0))
        if back is not None:
            ck.record(
                f"iso[{pair}] inverse pair", mat_mul(back, iso) == identity(3)
            )
    # path independence: j -> k directly equals composite through weight 0
    for j, k in itertools.combinations(range(1, row.n_weights), 2):
        if j in isos and k in isos:
            direct = ck.run(
                f"iso[{row.ids[j]}->{row.ids[k]}]",
                lambda j=j, k=k: derive_iso(row, j, k),
            )
            if direct is not None:
                ck.record(
                    f"iso[{row.ids[j]}->{row.ids[k]}] path-independent",
                    mat_mul(direct, isos[j]) == isos[k],
                )

    delta = ck.run("common-delta reflexive+contained", lambda: common_delta(row))
    if delta is not None:
        rk = ck.run("rank(delta)", lambda: picard_rank(delta).rho)
        if rk is not None:
            ck.record(
                f"rank(delta)={row.rank}", rk == row.rank, f"computed {rk}"
            )
        for k, ws in enumerate(row.weights):
            rkn = ck.run(
                f"rank(newton[{row.ids[k]}])",
                lambda ws=ws: picard_rank(newton_polytope(ws)).rho,
            )
            if rkn is not None:
                ck.record(
                    f"rank(newton[{row.ids[k]}])={row.rank}",
                    rkn == row.rank,
                    f"computed {rkn}",
                )
    return ck.report()


def _swap_columns(row: RowRecord, weight_idx: int, perm: dict[int, int]) -> RowRecord:
    """Permute the bold monomials of one weight: column j takes the monomial
    previously in column perm[j]."""
    columns = [list(col) for col in row.columns]
    originals = [col[weight_idx] for col in row.columns]
    for j, src in perm.items():
        columns[j][weight_idx] = originals[src]
    return row.with_columns(columns)


def _swaps(row: RowRecord):
    """Each non-identity permutation of the bold columns, applied to each
    weight in turn, as (label, weight index, swapped row)."""
    bold = list(row.bold)
    for images in itertools.permutations(bold):
        perm = dict(zip(bold, images))
        if all(j == s for j, s in perm.items()):
            continue
        label = ",".join(f"{s}->{j}" for j, s in sorted(perm.items()))
        for k in range(row.n_weights):
            yield label, k, _swap_columns(row, k, perm)


def verify_swaps(row: RowRecord) -> VerificationReport:
    """Check every exchange of bold monomials within a single weight's row.

    Each swapped row of _swaps must still verify; a row without bold
    columns has none, and its report is empty.
    """
    ck = _Checks(row.key)
    for label, k, swapped in _swaps(row):
        sub = verify_row(swapped)
        ck.record(
            f"swap[{label}] on {row.ids[k]}",
            sub.passed,
            "" if sub.passed else "; ".join(
                f"{c.name}: {c.detail}" for c in sub.checks if not c.passed
            ),
        )
    return ck.report()


# -- reflexive subpolytope search ----------------------------------------------


@dataclass(frozen=True)
class SubReflexiveSearch:
    found: tuple[Polytope3, ...]
    exhausted: bool  # True when limits cut the walk short
    explored: int = 0


def _children(p: Polytope3, points):
    """Each vertex deletion of p, in vertex order, as (child, rest): the hull
    of p's lattice points without that vertex, and those points.

    A vertex is extreme, so the child's lattice points are exactly the rest.
    Children that are degenerate or lose the interior origin are skipped.
    """
    for v in p.vertices:
        rest = [q for q in points if q != v]
        try:
            child = hull(rest)
        except ValueError:
            continue
        if child.origin_interior:
            yield child, rest


def search_sub_reflexive(
    p: Polytope3, max_results: int = 64, max_depth: int = 3
) -> SubReflexiveSearch:
    """Reflexive subpolytopes reachable by deleting vertices one at a time.

    Breadth-first, level by level, over "drop one vertex, re-hull the
    remaining lattice points"; states that lose the origin from their
    interior are pruned (no descendant can regain it, so a root without it
    raises OriginNotInterior).  States are deduplicated up to GL(3, Z): a
    child is tested for equivalence only against the states seen with the
    same invariant key, and the first one seen stays.  Each result keeps the
    origin interior.  The walk is exhausted when the cap turns a result away,
    which ends it at once, or when a state of the last level has a child.
    """
    if not p.origin_interior:
        raise OriginNotInterior("the root lacks the origin in its interior")
    seen: dict[tuple, list[Polytope3]] = {p.gl3z_key: [p]}
    found: list[Polytope3] = []
    level = [(p, p.lattice_points)]
    explored = 0
    for _ in range(max_depth):
        if not level:
            break
        explored += len(level)
        next_level = []
        for state, points in level:
            for child, rest in _children(state, points):
                bucket = seen.setdefault(child.gl3z_key, [])
                if any(unimodular_equivalent(child, known) for known in bucket):
                    continue
                bucket.append(child)
                if is_reflexive(child):
                    if len(found) >= max_results:
                        return SubReflexiveSearch(tuple(found), True, explored)
                    found.append(child)
                next_level.append((child, rest))
        level = next_level
    exhausted = any(next(_children(*s), None) for s in level)
    return SubReflexiveSearch(
        found=tuple(found), exhausted=exhausted, explored=explored
    )

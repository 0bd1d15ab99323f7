"""Lattice isomorphisms between weight systems and row verification.

The monomials in one column of a table row pin down a linear identification
of the degree-zero exponent lattices: solve on three independent columns,
then insist every remaining column is matched exactly.  On top of that sit
the common polytope of a row (the hull of one weight's column points, whose
containment in every Newton polytope the exact fits already prove), the
full verification report, the bold-column exchange checks, and the
vertex-deletion search for reflexive subpolytopes.  A row's swaps share the
cached column points of each weight and the cached hull of weight 0's points.
A family whose anticanonical-point count equals l(common polytope), and
whose fit from weight 0 succeeded, has the common polytope's image as its
Newton polytope, so its rank is read off the common polytope with no hull.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import NamedTuple

from .dataset import RowRecord
from .intlinalg import InconsistentPairs, IntMat, K3CorrError, NotUnimodular
from .intlinalg import RankDeficientSource, fit_lattice_map, identity, is_unimodular
from .intlinalg import det, mat_mul
from .picard import picard_rank
from .polytope import (
    DegeneratePointSet,
    OriginNotInterior,
    Polytope3,
    _from_mesh,
    _triangle_hull,
    hull,
    is_reflexive,
    unimodular_equivalent,
)
from .weights import WeightSystem, anticanonical_count, newton_polytope


def _column_points(row: RowRecord, weight_idx: int) -> tuple:
    return _monomial_points(row.weights[weight_idx], row.column_monomials(weight_idx))


@lru_cache(maxsize=1024)
def _monomial_points(ws: WeightSystem, monomials: tuple) -> tuple:
    """The points of one weight's column, shared by every row that has it."""
    return tuple(ws.monomial_point(m) for m in monomials)


@lru_cache(maxsize=1024)
def _point_set_hull(points: frozenset) -> Polytope3:
    """The hull of a point set, shared by the rows that permute it."""
    return hull(points)


def derive_iso(row: RowRecord, from_idx: int, to_idx: int) -> IntMat:
    """The unique linear map sending each source column point to its target.

    Solves on the first three linearly independent columns and verifies the
    rest; anything else is an error, never a best fit (a misfit names the
    columns outside the largest set that one map fits).  The matrix maps
    source lattice coordinates to target lattice coordinates.  Monomial
    coordinate changes act on the real logarithm space by the same matrix,
    so it is also the linear map between the amoebas.
    """
    src, tgt = _column_points(row, from_idx), _column_points(row, to_idx)
    try:
        return fit_lattice_map(src, tgt)
    except InconsistentPairs as exc:
        bad = _misfit_columns(src, tgt)
        j = bad[0]
        raise InconsistentPairs(
            f"row {row.key}: no linear map fits columns {bad} "
            f"({row.column_monomials(from_idx)[j]} vs "
            f"{row.column_monomials(to_idx)[j]})",
            bad,
        ) from exc
    except (RankDeficientSource, NotUnimodular) as exc:
        raise type(exc)(f"row {row.key}: {exc}") from exc


def _misfit_columns(src, tgt) -> list[int]:
    """The columns outside the largest set that one map fits, when none fits
    all: each independent triple leads the pairs in turn, so fit_lattice_map
    solves on it and lists its misfits.  Ties go to the last triple."""
    misfits = []
    for trip in itertools.combinations(range(len(src)), 3):
        s, t = [src[i] for i in trip], [tgt[i] for i in trip]
        if det(s):
            try:
                fit_lattice_map(s + list(src), t + list(tgt))
            except InconsistentPairs as exc:
                misfits.append([j - 3 for j in exc.bad])
    return min(reversed(misfits), key=len)


@lru_cache(maxsize=1024)
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
    delta = _point_set_hull(frozenset(_column_points(row, 0)))
    if not is_reflexive(delta):
        raise K3CorrError(f"row {row.key}: common polytope is not reflexive")
    return delta


# -- verification reports -----------------------------------------------------


class CheckResult(NamedTuple):
    name: str
    passed: bool
    detail: str = ""


class VerificationReport(NamedTuple):
    key: str
    checks: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def _run(checks: list[CheckResult], name: str, fn):
    """Run fn as check `name`: a K3CorrError fails it, anything else is a bug."""
    try:
        value = fn()
    except K3CorrError as exc:
        checks.append(CheckResult(name, False, str(exc)))
        return None
    checks.append(CheckResult(name, True))
    return value


def verify_row(row: RowRecord) -> VerificationReport:
    """Run every check of the row contract; failures become report entries.

    The rank of weight k's Newton polytope N_k is rho(delta), with no hull,
    when weight k has a fit U_k (k = 0 with U_0 the identity, or
    derive_iso(row, 0, k) succeeded) and exactly l(delta) anticanonical
    points.  U_k(delta) lies in N_k (see common_delta), U_k is in GL(3, Z),
    and the lattice points of N_k are exactly weight k's anticanonical
    points, so U_k(delta ∩ Z^3), which has l(delta) points, is all of
    N_k ∩ Z^3.  Both are lattice polytopes, hence N_k = U_k(delta), and a
    lattice map keeps rho.  delta is reflexive, so the origin is its one
    interior point and l(delta) is its boundary count plus 1.  Otherwise
    N_k is hulled.
    """
    checks = [
        CheckResult(
            f"degree[{i}]=sum(weights)", d == ws.d, f"printed {d}, weights give {ws.d}"
        )
        for i, d, ws in zip(row.ids, row.degrees, row.weights)
    ]
    degree_bad = [
        (row.ids[k], j, str(m), ws.weighted_degree(m))
        for j, col in enumerate(row.columns)
        for k, (m, ws) in enumerate(zip(col, row.weights))
        if ws.weighted_degree(m) != row.degrees[k]
    ]
    bad = f"bad: {degree_bad[:3]}" if degree_bad else ""
    checks.append(CheckResult("monomial-degrees", not degree_bad, bad))
    if degree_bad:
        return VerificationReport(row.key, tuple(checks))

    def fit(j, k):
        name = f"iso[{row.ids[j]}->{row.ids[k]}]"
        return name, _run(checks, name, lambda: derive_iso(row, j, k))

    def rank(label, rho_of):
        rho = _run(checks, f"rank({label})", rho_of)
        if rho is not None:
            name = f"rank({label})={row.rank}"
            checks.append(CheckResult(name, rho == row.rank, f"computed {rho}"))
        return rho

    isos = {}
    for k in range(1, row.n_weights):
        name, iso = fit(0, k)
        if iso is not None:
            isos[k] = iso
            checks.append(CheckResult(f"{name} unimodular", is_unimodular(iso)))
            _, back = fit(k, 0)
            if back is not None:
                same = mat_mul(back, iso) == identity(3)
                checks.append(CheckResult(f"{name} inverse pair", same))
    # path independence: j -> k directly equals composite through weight 0
    for j, k in itertools.combinations(isos, 2):
        name, direct = fit(j, k)
        if direct is not None:
            same = mat_mul(direct, isos[j]) == isos[k]
            checks.append(CheckResult(f"{name} path-independent", same))

    delta = _run(checks, "common-delta reflexive+contained", lambda: common_delta(row))
    if delta is not None:
        rho = rank("delta", lambda: picard_rank(delta).rho)
        points = delta.face_counts.boundary + 1
        for k, (i, ws) in enumerate(zip(row.ids, row.weights)):
            fitted = rho is not None and (k == 0 or k in isos)
            if fitted and anticanonical_count(ws) == points:
                rank(f"newton[{i}]", lambda: rho)
            else:
                rank(f"newton[{i}]", lambda: picard_rank(newton_polytope(ws)).rho)
    return VerificationReport(row.key, tuple(checks))


def _swap_columns(row: RowRecord, k: int, perm: dict[int, int]) -> RowRecord:
    """Permute the bold monomials of weight k: column j takes the monomial
    previously in column perm[j]."""
    return row.with_columns(
        col[:k] + (row.columns[perm.get(j, j)][k],) + col[k + 1 :]
        for j, col in enumerate(row.columns)
    )


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
    checks = []
    for label, k, swapped in _swaps(row):
        failed = [c for c in verify_row(swapped).checks if not c.passed]
        detail = "; ".join(f"{c.name}: {c.detail}" for c in failed)
        checks.append(CheckResult(f"swap[{label}] on {row.ids[k]}", not failed, detail))
    return VerificationReport(row.key, tuple(checks))


# -- reflexive subpolytope search ----------------------------------------------


class SubReflexiveSearch(NamedTuple):
    found: tuple[Polytope3, ...]
    exhausted: bool  # True when limits cut the walk short
    explored: int


def _children(p: Polytope3, points, tried):
    """Each vertex deletion of p, in vertex order, as (child, rest): the hull
    of p's lattice points `points` without that vertex, and those points.

    A vertex is extreme, so the child's lattice points are exactly the rest,
    which lists p's other vertices first and then the points of p that are
    not vertices.  Each of those vertices is extreme in p, which contains
    conv(rest), and lies in rest, so it is a vertex of the child; the mesh
    inserts them first, and most other points then lie beneath the hull
    when they are inserted.  A rest whose point set is in `tried` is
    skipped, and the others are added to it.

    The origin is interior to p, so every rest holds it.  If some n = a x b,
    with a and b among the deleted v's edge neighbours, has
    <n, v> < 0 <= <n, q> for all q in rest, a plane through the origin bounds
    the child, so the origin is not interior: the child is skipped with no
    mesh.  Otherwise the built child decides: a degenerate rest, or a child
    without the origin in its interior, is skipped.
    """
    inner = [q for q in points if q not in p.vertices]
    for k, v in enumerate(p.vertices):
        rest = [*p.vertices[:k], *p.vertices[k + 1:], *inner]
        key = frozenset(rest)
        if key in tried:
            continue
        tried.add(key)
        ws = [p.vertices[i + j - k] for i, j in p.edges if k in (i, j)]
        vx, vy, vz = v
        for (ax, ay, az), (bx, by, bz) in itertools.combinations(ws, 2):
            nx, ny, nz = ay * bz - az * by, az * bx - ax * bz, ax * by - ay * bx
            side = nx * vx + ny * vy + nz * vz
            if side > 0:
                nx, ny, nz = -nx, -ny, -nz
            if side and all(nx * x + ny * y + nz * z >= 0 for x, y, z in rest):
                break
        else:
            try:
                child = _from_mesh(rest, 1, _triangle_hull(rest))
            except DegeneratePointSet:
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

    _children rejects most children without the origin by a plane through
    it, before any mesh; the built child decides the others.  A point set
    tried at any level is skipped: its child was rejected then or matches a
    kept state now.  The depth probe shares the walk's set and still finds the
    same children.  A child has one lattice point fewer than its parent, so
    a point set of one level never repeats at another; and `any` stops at
    the probe's first child, so every set the probe added before was
    rejected, and a repeat of it would be rejected again.
    """
    if not p.origin_interior:
        raise OriginNotInterior("the root lacks the origin in its interior")
    seen: dict[tuple, list[Polytope3]] = {p.gl3z_key: [p]}
    found: list[Polytope3] = []
    level = [(p, p.lattice_points)]
    tried: set[frozenset] = set()
    explored = 0
    for _ in range(max_depth):
        if not level:
            break
        explored += len(level)
        next_level = []
        for state, points in level:
            for child, rest in _children(state, points, tried):
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
    exhausted = any(next(_children(*s, tried), None) for s in level)
    return SubReflexiveSearch(
        found=tuple(found), exhausted=exhausted, explored=explored
    )

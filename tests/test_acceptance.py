"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria execute.  Timings are wall-clock and asserted against the stated
budgets.
"""

import random
import time

from k3corr.correspondence import (
    common_delta,
    derive_iso,
    search_sub_reflexive,
    verify_swaps,
)
from k3corr.intlinalg import identity, is_unimodular, mat_vec
from k3corr.picard import picard_rank
from k3corr.polytope import (
    hull,
    is_reflexive,
    polar_dual,
    transform,
    unimodular_equivalent,
)
from k3corr.weights import WeightSystem, newton_polytope
from test_polytope import contains

EXPECTED_RANKS = {
    "13-72": 8,
    "50-82": 9,
    "9-71": 10,
    "14-28-45-51": 10,
    "38-77": 11,
    "20-59": 12,
    "26-34": 14,
    "26-34-76": 14,
    "27-49": 14,
    "16-54": 16,
    "43-48": 16,
    "43-48-88": 16,
    "68-83-92": 17,
    "30-86": 18,
    "46-65-80": 18,
    "56-73": 19,
}


def report(n, label, ok, extra=""):
    tail = f"  {extra}" if extra else ""
    print(f"{'PASS' if ok else 'FAIL'} criterion {n}: {label}{tail}")
    assert ok, f"criterion {n} failed: {label} {extra}"


def test_criterion_01_degree_audit(rows):
    t0 = time.monotonic()
    bad = []
    for row in rows:
        for k, ws in enumerate(row.weights):
            if row.degrees[k] != ws.d:
                bad.append((row.key, k, "printed degree"))
            for m in row.column_monomials(k):
                if ws.weighted_degree(m) != row.degrees[k]:
                    bad.append((row.key, row.ids[k], str(m)))
    elapsed = time.monotonic() - t0
    report(
        1,
        "every table monomial has its row's weighted degree",
        not bad and elapsed < 1.0,
        f"{elapsed:.3f}s",
    )


def test_criterion_02_isomorphism_audit(rows):
    t0 = time.monotonic()
    ok = True
    for row in rows:
        for i in range(row.n_weights):
            for j in range(row.n_weights):
                if i == j:
                    continue
                u = derive_iso(row, i, j)
                ok = ok and is_unimodular(u)
                for col in row.columns:
                    src = row.weights[i].monomial_point(col[i])
                    tgt = row.weights[j].monomial_point(col[j])
                    ok = ok and tuple(mat_vec(u, src)) == tgt
    elapsed = time.monotonic() - t0
    report(
        2,
        "derive_iso succeeds, unimodular and exact on all columns, all pairs",
        ok and elapsed < 1.0,
        f"{elapsed:.3f}s",
    )


def test_criterion_03_reflexivity_audit(rows):
    ok = True
    for row in rows:
        delta = common_delta(row)  # raises if not reflexive
        ok = ok and is_reflexive(delta)
        for k, ws in enumerate(row.weights):
            image = transform(delta, derive_iso(row, 0, k)) if k else delta
            ok = ok and contains(newton_polytope(ws), image)
    report(3, "common delta reflexive and inside every Newton polytope", ok)


def test_criterion_04_picard_ranks(rows):
    t0 = time.monotonic()
    got = {row.key: picard_rank(common_delta(row)).rho for row in rows}
    elapsed = time.monotonic() - t0
    mismatches = {
        k: (got[k], EXPECTED_RANKS[k]) for k in EXPECTED_RANKS if got[k] != EXPECTED_RANKS[k]
    }
    report(
        4,
        "picard_rank(common delta) matches the printed rank for all 16 row-sets",
        not mismatches and set(got) == set(EXPECTED_RANKS) and elapsed < 10.0,
        f"{elapsed:.3f}s" + (f" mismatches={mismatches}" if mismatches else ""),
    )


def test_criterion_05_full_family_ranks(rows):
    bad = []
    for row in rows:
        for k, ws in enumerate(row.weights):
            rho = picard_rank(newton_polytope(ws)).rho
            if rho != row.rank:
                bad.append((row.ids[k], rho, row.rank))
    report(
        5,
        "picard_rank(newton polytope) matches the printed rank for every weight",
        not bad,
        f"bad={bad}" if bad else "",
    )


def test_criterion_06_quartic_sanity():
    p = newton_polytope(WeightSystem.from_weights([1, 1, 1, 1]))
    bk = picard_rank(p)
    dual = polar_dual(p)
    hand_dual = hull([(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)])
    report(
        6,
        "quartic: rho=1 with l(dual)=5 and zero correction, dual as hand-computed",
        bk.rho == 1
        and bk.dual_points == 5
        and bk.correction == 0
        and dual == hand_dual
        and len(hand_dual.lattice_points) == 5,
        f"rho={bk.rho} l(dual)={bk.dual_points} corr={bk.correction}",
    )


def test_criterion_07_table2_swaps(rows):
    bold_rows = [row for row in rows if row.bold]
    ok = len(bold_rows) == 4
    detail = []
    for row in bold_rows:
        rep = verify_swaps(row)
        ok = ok and rep.passed and len(rep.checks) > 0
        detail.append(f"{row.key}:{len(rep.checks)}ok")
    report(7, "every bold exchange verifies in all four symmetric row-sets",
           ok, " ".join(detail))


def test_criterion_08_figure2(rows_by_key):
    pair = common_delta(rows_by_key["26-34"])
    triple = common_delta(rows_by_key["26-34-76"])
    n26 = newton_polytope(WeightSystem.from_weights([2, 4, 5, 9]))
    n34 = newton_polytope(WeightSystem.from_weights([2, 6, 7, 15]))
    ok = (
        contains(pair, triple)
        and pair.vertices != triple.vertices
        and is_reflexive(pair)
        and is_reflexive(triple)
        and picard_rank(pair).rho == 14
        and picard_rank(triple).rho == 14
        and unimodular_equivalent(n26, n34) is not None
    )
    report(8, "triple delta strictly inside pair delta, ranks 14, N(26) ~ N(34)", ok)


def test_criterion_09_l0_positivity(rows_by_key):
    row = rows_by_key["16-54"]
    delta = common_delta(row)
    own_l0 = picard_rank(delta).correction
    res = search_sub_reflexive(delta)  # default limits
    same_rank_zero_l0 = [
        q
        for q in res.found
        if picard_rank(q).rho == row.rank and picard_rank(q).correction == 0
    ]
    report(
        9,
        "l0 of delta(16-54) positive; no rank-16 reflexive subpolytope with "
        "l0=0 in the deletion closure (scope-bounded evidence)",
        own_l0 > 0 and not same_rank_zero_l0,
        f"l0={own_l0}, subpolytopes found={len(res.found)} "
        f"(l0 values {[picard_rank(q).correction for q in res.found]}, "
        f"ranks {[picard_rank(q).rho for q in res.found]})",
    )


def test_criterion_10_property_suites(rows):
    t0 = time.monotonic()
    cases = [common_delta(row) for row in rows]
    cases += [newton_polytope(row.weights[0]) for row in rows]
    ok = True
    # duality involution and Euler on every table polytope
    for p in cases:
        ok = ok and polar_dual(polar_dual(p)) == p
        ok = ok and p.n_vertices - p.n_edges + p.n_facets == 2
        ok = ok and all(
            all(
                sum(n[i] * v[i] for i in range(3)) >= -c
                for (n, c) in p.facets
            )
            for v in p.vertices
        )
    # enumeration vs independent box scan on every table polytope
    for p in cases:
        los = [min(v[i] for v in p.vertices) for i in range(3)]
        his = [max(v[i] for v in p.vertices) for i in range(3)]
        brute = [
            (x, y, z)
            for x in range(los[0], his[0] + 1)
            for y in range(los[1], his[1] + 1)
            for z in range(los[2], his[2] + 1)
            if all(n[0] * x + n[1] * y + n[2] * z >= -c for n, c in p.facets)
        ]
        ok = ok and list(p.lattice_points) == brute
    # rho invariant under 100 random unimodular transforms
    rnd = random.Random(1234509876)
    base = cases[0]
    want = picard_rank(base).rho
    for _ in range(100):
        u = [list(r) for r in identity(3)]
        for _ in range(3):
            i, j = rnd.sample(range(3), 2)
            c = rnd.choice([-2, -1, 1, 2])
            for k in range(3):
                u[i][k] += c * u[j][k]
        q = transform(base, tuple(tuple(r) for r in u))
        ok = ok and picard_rank(q).rho == want
    elapsed = time.monotonic() - t0
    report(
        10,
        "duality involution, Euler, hull soundness, point counts, "
        "GL(3,Z)-invariance of rho (100 transforms)",
        ok and elapsed < 60.0,
        f"{elapsed:.1f}s",
    )

"""Inputs and expected outputs of the three workloads, without k3corr.

Everything here is plain stdlib so that the parent process, the tests and
the cold passes agree on the inputs without importing the package under
measurement.  Inputs are a pure function of (workload, seed, pass index).

- ``table``: the 16 shipped rows in a seeded order.  Expected output: every
  check passes and the kv rendering of each row equals the golden lines,
  captured from ``k3corr verify-table --format kv``.
- ``sweep``: every well-posed weight quadruple with degree at most
  ``SWEEP_MAX_DEGREE`` in a seeded order.  Expected output: the Newton
  polytope is reflexive exactly when the weights pass the arithmetic
  quasi-smoothness test, and reflexive ones satisfy the mirror identity.
- ``search``: the common polytope of each row under a seeded signed
  permutation matrix.  Expected output: the golden per-root search result,
  which a lattice automorphism cannot change.
"""

from __future__ import annotations

import itertools
import json
import random
from math import gcd
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "golden"
SWEEP_MAX_DEGREE = 20
SEARCH_MAX_DEPTH = 2
WORKLOADS = ("table", "sweep", "search")


def rng_for(workload: str, seed: int, pass_index: int) -> random.Random:
    """The generator of one pass; string seeds are hashed deterministically."""
    return random.Random(f"{workload}:{seed}:{pass_index}")


# -- table ---------------------------------------------------------------


def golden_table_lines() -> dict[str, list[str]]:
    """The golden kv lines grouped by row key, in file order."""
    rows: dict[str, list[str]] = {}
    for line in (GOLDEN / "table.kv").read_text().splitlines():
        rows.setdefault(line.split(".", 2)[1], []).append(line)
    return rows


def kv_name(name: str) -> str:
    """A check name as ``verify-table --format kv`` writes it."""
    return (
        name.replace(" ", "_")
        .replace("=", "_eq_")
        .replace("->", "_to_")
        .replace(",", "+")
    )


def kv_lines(key: str, suffix: str, checks) -> list[str]:
    """kv lines of one report given its (name, passed) checks."""
    return [
        f"row.{key}{suffix}.{kv_name(name)}={'pass' if passed else 'fail'}"
        for name, passed in checks
    ]


# -- sweep ---------------------------------------------------------------


def well_posed(a) -> bool:
    """Every three of the four weights are coprime."""
    return all(
        gcd(*(w for i, w in enumerate(a) if i != skip)) == 1 for skip in range(4)
    )


def quasi_smooth(a) -> bool:
    """For each i, a_i divides d or d - a_j for some j != i (d = sum(a))."""
    d = sum(a)
    return all(
        d % ai == 0 or any((d - aj) % ai == 0 for j, aj in enumerate(a) if j != i)
        for i, ai in enumerate(a)
    )


def sweep_candidates(max_degree: int = SWEEP_MAX_DEGREE) -> list[tuple[int, ...]]:
    """Ascending well-posed quadruples with sum at most max_degree."""
    return [
        a
        for a in itertools.combinations_with_replacement(range(1, max_degree), 4)
        if sum(a) <= max_degree and well_posed(a)
    ]


def check_sweep(a, verdict) -> str | None:
    """verdict is (reflexive, rho(N), l0(N), rho(N*), l0(N*))."""
    reflexive, rho, l0, rho_dual, l0_dual = verdict
    if reflexive != quasi_smooth(a):
        return f"{a}: reflexive={reflexive}, quasi-smooth={quasi_smooth(a)}"
    if reflexive and (l0 != l0_dual or rho + rho_dual != 20 + l0):
        return f"{a}: mirror identity fails: {rho}+{rho_dual} vs 20+{l0} (l0*={l0_dual})"
    return None


# -- search --------------------------------------------------------------


def golden_search() -> dict[str, dict]:
    return json.loads((GOLDEN / "search.json").read_text())


def search_summary(result) -> dict:
    """found/explored/truncated of a search result, as golden/search.json has them.

    ``exhausted`` is k3corr's flag for a walk that its limits cut short.
    """
    return {
        "found": len(result.found),
        "explored": result.explored,
        "truncated": result.exhausted,
    }


def signed_permutation(rng: random.Random) -> tuple[tuple[int, int, int], ...]:
    """A uniformly drawn 3x3 signed permutation matrix.

    These keep the bounding-box volume of a polytope, so the search cost
    varies little between seeds, while vertex order and coordinates change.
    """
    cols = rng.sample(range(3), 3)
    signs = [rng.choice((-1, 1)) for _ in range(3)]
    return tuple(
        tuple(signs[i] if j == cols[i] else 0 for j in range(3)) for i in range(3)
    )


# -- inputs and checks ---------------------------------------------------


def make_inputs(workload: str, seed: int, pass_index: int) -> list:
    """The items of one pass: row keys, weight quadruples or (key, matrix)."""
    rng = rng_for(workload, seed, pass_index)
    if workload == "table":
        items = list(golden_table_lines())
        rng.shuffle(items)
        return items
    if workload == "sweep":
        items = sweep_candidates()
        rng.shuffle(items)
        return items
    if workload == "search":
        return [(key, signed_permutation(rng)) for key in golden_search()]
    raise ValueError(f"unknown workload {workload!r}")


def item_label(workload: str, item) -> str:
    if workload == "sweep":
        return ",".join(map(str, item))
    return item if workload == "table" else item[0]


class Checker:
    """Compares the output of one item with what it must be."""

    def __init__(self, workload: str):
        self.workload = workload
        if workload == "table":
            self.expected = golden_table_lines()
        elif workload == "search":
            self.expected = golden_search()

    def check(self, item, output) -> str | None:
        """None when the output is right, else a one-line reason."""
        if self.workload == "table":
            passed, lines = output
            if not passed:
                return f"row {item}: a check failed"
            if lines != self.expected[item]:
                return f"row {item}: kv lines differ from the golden output"
            return None
        if self.workload == "sweep":
            return check_sweep(item, output)
        key = item[0]
        if output != self.expected[key]:
            return f"root {key}: got {output}, expected {self.expected[key]}"
        return None

#!/usr/bin/env python3
"""Reproduce the two vertex-removal phenomena of the correspondence table.

First: the full Newton polytopes of families 26 and 34 are equivalent, and
removing one vertex of N(2,4,5,9) yields exactly the smaller common polytope
that also serves family 76.  Second: scan the deletion closure of the
{16, 54} polytope for reflexive subpolytopes, listing rank and l0 of each;
none of the pair's rank carries l0 = 0.
"""

import sys

from k3corr.correspondence import common_delta, search_sub_reflexive
from k3corr.dataset import load_rows
from k3corr.picard import picard_rank
from k3corr.polytope import unimodular_equivalent
from k3corr.weights import WeightSystem, newton_polytope


def main() -> int:
    rows = {row.key: row for row in load_rows()}

    n26 = newton_polytope(WeightSystem.from_weights([2, 4, 5, 9]))
    n34 = newton_polytope(WeightSystem.from_weights([2, 6, 7, 15]))
    print("N(2,4,5,9) vertices: ", list(n26.vertices))
    print("N(2,6,7,15) vertices:", list(n34.vertices))
    u = unimodular_equivalent(n26, n34)
    print(f"equivalent as lattice polytopes: {u is not None}  (map {u})")

    triple = common_delta(rows["26-34-76"])
    pair = common_delta(rows["26-34"])
    print(f"\npair polytope == N(2,4,5,9) shape: {unimodular_equivalent(pair, n26) is not None}")
    inside = all(pair.contains_point(v) for v in triple.vertices)
    print(f"triple polytope strictly inside pair: "
          f"{inside and pair.vertices != triple.vertices}")
    res = search_sub_reflexive(n26, max_depth=2)
    hits = [q for q in res.found if unimodular_equivalent(q, triple)]
    print(f"vertex-removal search on N(2,4,5,9): {len(res.found)} reflexive "
          f"subpolytopes, {len(hits)} matching the triple's polytope")

    print("\ndeletion closure of the {16,54} polytope:")
    delta = common_delta(rows["16-54"])
    root = picard_rank(delta)
    print(f"  root: rho={root.rho} l0={root.correction}")
    scan = search_sub_reflexive(delta, max_depth=4)
    for q in scan.found:
        bk = picard_rank(q)
        print(f"  sub:  rho={bk.rho} l0={bk.correction}  vertices={list(q.vertices)}")
    offenders = [
        q for q in scan.found
        if (picard_rank(q).rho, picard_rank(q).correction) == (rows["16-54"].rank, 0)
    ]
    print(f"rank-16 subpolytopes with l0=0: {len(offenders)} "
          f"(exhausted={scan.exhausted})")
    return 0 if not offenders else 1


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Print the full correspondence summary: one line per row-set.

Columns: row key, lattice label, printed rank, computed rank of the common
polytope, its toric/correction split, the computed rank of every family's
full Newton polytope, and (as an observation only) the rank of the polar
dual's family.  On every table row the dual rank satisfies
rho + rho_dual = 20 + l0; the naive mirror sum 20 holds exactly when the
correction term vanishes.
"""

import sys

from k3corr.correspondence import common_delta
from k3corr.dataset import load_rows
from k3corr.picard import picard_rank
from k3corr.weights import newton_polytope


def main() -> int:
    rows = load_rows(sys.argv[1] if len(sys.argv) > 1 else None)
    header = (
        f"{'row':12s} {'lattice':12s} {'rank':>4s} {'rho':>4s} "
        f"{'toric':>5s} {'l0':>3s} {'dual':>4s}  newton ranks"
    )
    print(header)
    print("-" * len(header))
    ok = True
    for row in rows:
        delta = common_delta(row)
        bk = picard_rank(delta)
        newton_ranks = [picard_rank(newton_polytope(ws)).rho for ws in row.weights]
        ok = ok and bk.rho == row.rank and all(r == row.rank for r in newton_ranks)
        print(
            f"{row.key:12s} {row.lattice_label:12s} {row.rank:4d} {bk.rho:4d} "
            f"{bk.toric_part:5d} {bk.correction:3d} {bk.dual_rho:4d}  "
            + " ".join(f"{i}:{r}" for i, r in zip(row.ids, newton_ranks))
        )
    print("-" * len(header))
    print("all ranks match the table" if ok else "RANK MISMATCH, see above")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

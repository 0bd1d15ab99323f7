"""One cold pass of a workload, run in a fresh interpreter by run.py.

Every lru_cache and cached_property of k3corr starts empty here, as it does
for each CLI invocation.  The pass times its set-up (``import k3corr`` and
``load_rows()``) apart from the pass itself, times each item around its
k3corr calls only, then checks every output and prints one JSON line:

    {"setup_s": .., "setup_calib_s": .., "pass_s": .., "calib_s": ..,
     "rss_mb": .., "items": [[label, ms, error, calib_s], ..]}

``pass_s`` is the sum of the item times and error is null for a correct
item.  The ``calib_s`` fields are times of a fixed calibration loop run
around set-up, around each item, and on average over the pass; run.py
scales the times by them.  With ``--spans PATH`` the pass is
traced (see tracing.py) and the spans are written to PATH at the end.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import tracing
import workloads


def _table_item(k3corr, rows, key):
    row = rows[key]
    reports = [(k3corr.verify_row(row), "")]
    if row.bold:
        reports.append((k3corr.verify_swaps(row), ".swaps"))
    return reports


def _table_output(key, reports):
    lines = []
    for report, suffix in reports:
        lines += workloads.kv_lines(
            key, suffix, [(c.name, c.passed) for c in report.checks]
        )
    return all(r.passed for r, _ in reports), lines


def _sweep_item(k3corr, rows, a):
    ws = k3corr.WeightSystem.from_weights(a)
    try:
        newton = k3corr.newton_polytope(ws)
        reflexive = k3corr.is_reflexive(newton)
    except (k3corr.polytope.DegeneratePointSet, k3corr.polytope.OriginNotInterior):
        return (False, None, None, None, None)
    if not reflexive:
        return (False, None, None, None, None)
    mine = k3corr.picard_rank(newton)
    dual = k3corr.picard_rank(k3corr.polar_dual(newton))
    return (True, mine.rho, mine.correction, dual.rho, dual.correction)


def _search_item(k3corr, rows, item):
    key, u = item
    root = k3corr.transform(k3corr.common_delta(rows[key]), u)
    return k3corr.search_sub_reflexive(root, max_depth=workloads.SEARCH_MAX_DEPTH)


#: seconds of pass between two calibration slices
CALIB_EVERY_S = 0.1


def _calibration_work() -> int:
    """A fixed pure-Python box scan against 12 fixed half-spaces."""
    facets = [((i % 5 - 2, i % 7 - 3, 1 - i % 3), i % 4 + 2) for i in range(12)]
    kept = 0
    for x in range(-5, 6):
        for y in range(-5, 6):
            for z in range(-5, 6):
                kept += all(a * x + b * y + c * z >= -d for (a, b, c), d in facets)
    return kept


def calibration_slice() -> float:
    """Seconds _calibration_work takes now: how fast the host runs.

    The garbage collector is off meanwhile, so no collection of k3corr's
    heap lands in the slice; its cost stays with the items.
    """
    gc.disable()
    try:
        t = time.perf_counter()
        _calibration_work()
        return time.perf_counter() - t
    finally:
        gc.enable()


def calibrate(slices: int = 3) -> float:
    return statistics.fmean(calibration_slice() for _ in range(slices))


RUNNERS = {"table": _table_item, "sweep": _sweep_item, "search": _search_item}
#: plain form of each item's result, as workloads.Checker expects it
OUTPUTS = {
    "table": _table_output,
    "sweep": lambda item, out: out,
    "search": lambda item, result: workloads.search_summary(result),
}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", required=True, help="directory holding k3corr")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pass-index", type=int, default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans", help="trace the pass and write spans here")
    args = ap.parse_args(argv)

    src = Path(args.src).resolve()
    sys.path.insert(0, str(src))
    calib_before = calibrate()
    t0 = time.perf_counter()
    import k3corr

    tracer = None
    if args.spans:
        tracer = tracing.Tracer()
        tracer.install(k3corr)
    rows = k3corr.load_rows()
    setup_s = time.perf_counter() - t0
    if src not in Path(k3corr.__file__).resolve().parents:
        print(f"error: imported k3corr from {k3corr.__file__}", file=sys.stderr)
        return 2
    setup_calib_s = (calib_before + calibrate()) / 2
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "setup_calib_s": setup_calib_s}))
        return 0

    by_key = {row.key: row for row in rows}
    run = RUNNERS[args.workload]
    inputs = workloads.make_inputs(args.workload, args.seed, args.pass_index)
    outputs = []
    # calibration slices between items sample the host's speed all through
    # the pass, at least every CALIB_EVERY_S; an item is scaled by the mean
    # of the last slice before it and the first slice after it
    slices = [calibration_slice()]
    next_slice = time.perf_counter() + CALIB_EVERY_S
    for item in inputs:
        before = len(slices) - 1
        t = time.perf_counter()
        try:
            out, err = run(k3corr, by_key, item), None
        except Exception as exc:  # an unexpected error fails the item
            out, err = None, f"{type(exc).__name__}: {exc}"
            traceback.print_exc()
        outputs.append([item, out, err, time.perf_counter() - t, before])
        if time.perf_counter() >= next_slice:
            slices.append(calibration_slice())
            next_slice = time.perf_counter() + CALIB_EVERY_S
    slices.append(calibration_slice())
    for rec in outputs:  # the slice after an item is the first one taken later
        before = rec[4]
        rec[4] = (slices[before] + slices[before + 1]) / 2
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        tracer.write(args.spans)

    checker = workloads.Checker(args.workload)
    plain = OUTPUTS[args.workload]
    items = []
    for item, out, err, secs, calib_s in outputs:
        if err is None:
            try:
                err = checker.check(item, plain(item, out))
            except Exception as exc:  # a malformed result fails the item
                err = f"{type(exc).__name__}: {exc}"
                traceback.print_exc()
        label = workloads.item_label(args.workload, item)
        items.append([label, secs * 1e3, err, calib_s])
    print(
        json.dumps(
            {
                "setup_s": setup_s,
                "setup_calib_s": setup_calib_s,
                "pass_s": sum(rec[3] for rec in outputs),
                "calib_s": statistics.fmean(slices),
                "rss_mb": rss_mb,
                "items": items,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

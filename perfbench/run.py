"""k3corr benchmark: cold passes of one workload, end-to-end or traced.

    python3 perfbench/run.py --workload table|sweep|search --seed N \\
        --seconds S --trace 0|1

Run from anywhere inside a checkout that holds ``src/k3corr``.  Each timed
pass is a fresh interpreter (cold_pass.py), so every cache starts empty.
All of them run on one core, and their times are scaled by a calibration
loop timed alongside (see end_to_end).  Passes repeat until ``--seconds``
have gone by.  With ``--trace 0`` the
last stdout line reports the end-to-end metrics of BENCHMARK.json; with
``--trace 1`` untraced and traced passes alternate and it reports the
per-layer metrics.  A fuller record (per-pass numbers, the Python version,
the core count, the source revision) goes to ``.perfbench_out/``.
See METRICS.md for what each metric means and why each workload exists.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from math import ceil
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
#: cores available to the run before it pins itself to one
NPROC = len(os.sched_getaffinity(0))
#: set-up-only interpreters per run, on top of the set-up of every pass,
#: SETUP_PER_PASS of them after each of the first passes
SETUP_SAMPLES = 15
SETUP_PER_PASS = 2
#: untraced runs make at least this many passes, so the tail has its samples
MIN_PASSES = 7
#: a run must end within 180 s; no pass may start a wait beyond this
HARD_LIMIT_S = 170
#: median calibration time over fifteen runs on a 2-core x86-64 VM with
#: Python 3.11; timings are scaled to a host that runs the loop this fast
CALIB_REF_S = 0.0022
#: the tail is the highest of these percentiles with TAIL_BEYOND items beyond
LADDER = (50, 90, 99, 99.9)
TAIL_BEYOND = 10


def tail_rung(items_per_pass: int) -> float:
    """The tail percentile of a workload.

    It is the highest rung of LADDER that leaves at least TAIL_BEYOND items
    beyond it in MIN_PASSES passes.  It depends on the workload alone, not
    on how many passes a run fits in, so it stays put when passes get faster.
    """
    n = items_per_pass * MIN_PASSES
    return max(p for p in LADDER if n * (100 - p) / 100 >= TAIL_BEYOND)


def percentile(values, p: float) -> float:
    """Nearest-rank percentile: the smallest value with p% of values at or below."""
    ordered = sorted(values)
    return ordered[max(0, ceil(p / 100 * len(ordered)) - 1)]


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "k3corr").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(path.relative_to(SRC).as_posix().encode() + b"\0")
            h.update(path.read_bytes())
    return h.hexdigest()


def git_revision() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
        capture_output=True,
        text=True,
        timeout=30,
    )
    return proc.stdout.strip() or None


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "nproc": NPROC,
        "pinned_cpu": min(os.sched_getaffinity(0)),
        "git_revision": git_revision(),
        "source_sha256": source_digest(),
    }


class PassFailed(RuntimeError):
    """A cold pass crashed, timed out or printed no result."""


def cold_pass(args: list[str], deadline: float) -> dict:
    """Run cold_pass.py in a fresh interpreter and return its JSON line."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "cold_pass.py"), "--src", str(SRC), *args],
            capture_output=True,
            text=True,
            env=env,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired as exc:
        raise PassFailed(f"pass {args} timed out") from exc
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise PassFailed(f"pass {args} exited {proc.returncode}")
    return json.loads(lines[-1])


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run set-up samples and passes; return the raw record of the run."""
    start = time.monotonic()
    hard_deadline = start + HARD_LIMIT_S
    common = ["--workload", workload, "--seed", str(seed)]
    setups = []  # [setup_s, calibration time around it]
    setup_only = 0
    OUT.mkdir(exist_ok=True)
    passes = []
    pass_deadline = time.monotonic() + seconds
    index = 0
    # in a traced run, even passes are untraced and odd passes traced
    while index < (2 if trace else MIN_PASSES) or time.monotonic() < pass_deadline:
        traced = trace and index % 2 == 1
        extra = ["--pass-index", str(index)]
        spans = OUT / f"spans-{workload}-seed{seed}.json"
        if traced:
            extra += ["--spans", str(spans)]
        try:
            rec = cold_pass(common + extra, hard_deadline)
        except PassFailed as exc:
            rec = {"error": str(exc)}
        rec.update(index=index, traced=traced)
        if traced and "error" not in rec:
            with open(spans, encoding="utf-8") as fh:
                rec["layers"] = tracing.layer_metrics(json.load(fh))
        passes.append(rec)
        if "setup_s" in rec:
            setups.append([rec["setup_s"], rec["setup_calib_s"]])
        # spread over the first passes, the set-up samples meet more of the
        # host's slow and fast spells than a block of them would
        for _ in range(min(SETUP_PER_PASS, SETUP_SAMPLES - setup_only)):
            if trace:
                break
            rec = cold_pass(common + ["--setup-only"], hard_deadline)
            setups.append([rec["setup_s"], rec["setup_calib_s"]])
            setup_only += 1
        index += 1
        if time.monotonic() >= hard_deadline:
            break
    return {"setups": setups, "passes": passes}


def scale(calib_s: float) -> float:
    """Factor that turns a time measured with this calibration time into a
    time on the reference host."""
    return CALIB_REF_S / calib_s


def unscaled(calib_s: float) -> float:
    return 1.0


def item_times(pass_rec: dict, factor=scale) -> list[float]:
    """Item times of a pass in ms, each scaled by the calibration around it."""
    return [ms * factor(c) for _, ms, _, c in pass_rec["items"]]


def end_to_end(
    record: dict, items_per_pass: int, failed_frac: float
) -> tuple[dict, dict]:
    """End-to-end metrics of an untraced run, and notes about them.

    Each time is scaled by CALIB_REF_S over the calibration time measured
    along with it, which cancels the drift of a shared host's speed; the
    metrics are medians of the scaled times.  The medians of the unscaled
    times are kept in the notes as ``wall``.
    """
    ok = [p for p in record["passes"] if "error" not in p]
    rung = tail_rung(items_per_pass)

    def summary(f) -> dict:
        per_pass = [item_times(p, f) for p in ok]
        item_ms = [ms for items in per_pass for ms in items]
        return {
            "setup_s": statistics.median(s * f(c) for s, c in record["setups"]),
            "pass_s": statistics.median(sum(items) / 1e3 for items in per_pass),
            "item_p50_ms": statistics.median(item_ms),
            "item_tail_ms": percentile(item_ms, rung),
        }

    metrics = summary(scale)
    metrics["peak_rss_mb"] = statistics.median(p["rss_mb"] for p in ok)
    metrics["ok_frac"] = 1.0 - failed_frac
    notes = {
        "passes": len(record["passes"]),
        "setup_samples": len(record["setups"]),
        "item_samples": len(ok) * items_per_pass,
        "item_tail_percentile": rung,
        "failed_frac": failed_frac,
        "calib_s": statistics.median(p["calib_s"] for p in ok),
        "wall": summary(unscaled),
    }
    return metrics, notes


def per_layer(record: dict) -> tuple[dict, dict]:
    """Per-layer metrics of a traced run (medians over traced passes)."""
    ok = [p for p in record["passes"] if "error" not in p]
    traced = [p for p in ok if p["traced"]]
    plain = [p for p in ok if not p["traced"]]
    if not traced or not plain:
        return {}, {}
    names = sorted(set().union(*(p["layers"] for p in traced)))
    metrics = {
        k: statistics.median(p["layers"].get(k, 0) for p in traced) for k in names
    }
    metrics["trace.overhead_frac"] = (
        statistics.median(sum(item_times(p)) for p in traced)
        / statistics.median(sum(item_times(p)) for p in plain)
        - 1.0
    )
    return metrics, {"dominant_layer": tracing.dominant_layer(metrics)}


def counts(record: dict, items_per_pass: int) -> tuple[int, int]:
    """Items attempted and failed; a crashed pass fails all its items."""
    attempted = failed = 0
    for p in record["passes"]:
        if "error" in p:
            attempted += items_per_pass
            failed += items_per_pass
        else:
            attempted += len(p["items"])
            failed += sum(1 for item in p["items"] if item[2] is not None)
    return attempted, failed


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "k3corr" / "__init__.py").is_file():
        print(f"error: no k3corr package under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    # every interpreter of the run shares one core, whose speed the
    # calibration loop then tracks
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    # the build: byte-compile once so no pass pays for it
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", str(SRC)], check=True, timeout=120
    )
    record = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    items_per_pass = len(workloads.make_inputs(args.workload, args.seed, 0))
    attempted, failed = counts(record, items_per_pass)
    if not any("error" not in p for p in record["passes"]):
        print("error: every pass failed", file=sys.stderr)
        return 1
    if args.trace:
        metrics, notes = per_layer(record)
    else:
        metrics, notes = end_to_end(record, items_per_pass, failed / attempted)
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 1

    failures = []
    for p in record["passes"]:
        failures += [p["error"]] if "error" in p else [i[2] for i in p["items"] if i[2]]
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
        "notes": notes,
        "failures": failures,
        "metrics": metrics,
        "record": record,
    }
    OUT.mkdir(exist_ok=True)
    out = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(result, indent=1))
    for err in failures[:20]:
        print(f"# FAILED: {err}")
    print(f"# {json.dumps({**result['environment'], **notes})}")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

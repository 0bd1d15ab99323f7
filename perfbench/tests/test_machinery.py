"""Tests of the benchmark's own machinery.

    python3 -m pytest -q perfbench/tests
"""

import functools
import json
import random
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _span(name, start, end, parent, attrs=None):
    return [name, start, end, parent, attrs]


def test_self_times_subtract_the_union_of_children():
    spans = [
        _span("root", 0, 100, -1),
        _span("a", 10, 40, 0),
        _span("a.child", 15, 25, 1),
        _span("b", 50, 70, 0),
        _span("c", 60, 80, 0),  # overlaps b: covered once
        _span("d", 90, 120, 0),  # runs past its parent: clipped
    ]
    assert tracing.self_times(spans) == [30, 20, 10, 20, 20, 30]


def test_layer_metrics_from_a_synthetic_dump():
    dump = {
        "spans": [
            _span("polytope.hull", 0, 3_000, -1, {"points_in": 10, "vertices_out": 4}),
            _span("polytope.lattice_points", 3_000, 4_000, -1,
                  {"points_out": 5, "box_points": 20}),
            _span("polytope.unimodular_equivalent", 4_000, 9_000, -1, {"hits": 1}),
            _span("polytope.unimodular_equivalent", 9_000, 10_000, -1, {"hits": 0}),
        ],
        "counts": [
            ["intlinalg.det", "polytope.hull", 7],
            ["polytope.contains_point", "polytope.hull", 2],
            ["polytope.contains_point", "polytope.lattice_points", 20],
            ["polytope.contains_point", "correspondence.common_delta", 1],
        ],
        "misses": {"picard.picard_rank": 3},
    }
    m = tracing.layer_metrics(dump)
    assert m["polytope.hull.calls"] == 1
    assert m["polytope.hull.self_s"] == pytest.approx(3e-6)
    assert m["polytope.hull.vertex_ratio"] == pytest.approx(0.4)
    assert m["polytope.lattice_points.kept_ratio"] == pytest.approx(0.25)
    assert m["polytope.unimodular_equivalent.calls"] == 2
    assert m["polytope.unimodular_equivalent.hit_ratio"] == pytest.approx(0.5)
    assert m["polytope.contains_point.calls"] == 23
    assert m["polytope.contains_point.calls_in_hull"] == 2
    assert m["polytope.contains_point.calls_in_lattice_points"] == 20
    assert m["intlinalg.det.calls"] == 7
    assert m["intlinalg.mat_mul.calls"] == 0
    assert m["picard.picard_rank.misses"] == 3
    assert m["correspondence.search_sub_reflexive.found"] == 0
    assert tracing.dominant_layer(m) == "polytope.unimodular_equivalent"


def _noop(*args):
    return None


def _fake_package(lattice_points):
    """A stand-in for k3corr with every traced name, to test install."""
    mods = {m: types.SimpleNamespace() for m in tracing.MODULES}
    for qual in tracing.SPANNED + tracing.COUNTED:
        mod, attr = qual.split(".")
        cached = qual in tracing.CACHED
        setattr(mods[mod], attr, functools.lru_cache(_noop) if cached else _noop)
    mods["polytope"].Polytope3 = type(
        "Polytope3",
        (),
        {
            "lattice_points": lattice_points,
            "face_counts": functools.cached_property(lambda self: (0, 0, 0)),
            "contains_point": lambda self, p: True,
        },
    )
    return types.SimpleNamespace(**mods)


def test_install_fails_on_a_missing_or_changed_layer():
    tracing.Tracer().install(
        _fake_package(functools.cached_property(lambda self: ()))
    )
    with pytest.raises(TypeError, match="lattice_points"):
        tracing.Tracer().install(_fake_package(property(lambda self: ())))
    package = _fake_package(functools.cached_property(lambda self: ()))
    del package.polytope.hull
    with pytest.raises(AttributeError):
        tracing.Tracer().install(package)


def test_quasi_smooth_oracle_counts():
    for bound, n_candidates, n_qs in ((16, None, 32), (20, 235, 45), (24, None, 60)):
        cands = workloads.sweep_candidates(bound)
        if n_candidates is not None:
            assert len(cands) == n_candidates
        assert sum(map(workloads.quasi_smooth, cands)) == n_qs
    assert workloads.quasi_smooth((1, 1, 1, 1))
    assert workloads.quasi_smooth((1, 6, 14, 21))
    assert not workloads.quasi_smooth((1, 2, 3, 7))
    assert not workloads.well_posed((2, 2, 2, 3))


def test_quasi_smooth_oracle_matches_reflexivity_at_small_degree():
    sys.path.insert(0, str(ROOT / "src"))
    import k3corr
    from k3corr.polytope import DegeneratePointSet, OriginNotInterior

    for a in workloads.sweep_candidates(12):
        try:
            reflexive = k3corr.is_reflexive(
                k3corr.newton_polytope(k3corr.WeightSystem.from_weights(a))
            )
        except (DegeneratePointSet, OriginNotInterior):
            reflexive = False
        assert reflexive == workloads.quasi_smooth(a), a


def _det3(m):
    (a, b, c), (d, e, f), (g, h, i) = m
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def test_signed_permutations_are_unimodular_and_cover_the_group():
    rng = random.Random(7)
    seen = set()
    for _ in range(2000):
        u = workloads.signed_permutation(rng)
        assert _det3(u) in (-1, 1)
        assert all(sorted(map(abs, row)) == [0, 0, 1] for row in u)
        assert sorted(map(abs, (x for row in u for x in row))).count(1) == 3
        seen.add(u)
    assert len(seen) == 48


def test_inputs_depend_only_on_the_seed():
    for w in workloads.WORKLOADS:
        assert workloads.make_inputs(w, 3, 1) == workloads.make_inputs(w, 3, 1)
    assert workloads.make_inputs("table", 3, 0) != workloads.make_inputs("table", 4, 0)
    assert len(workloads.make_inputs("table", 0, 0)) == 16
    golden = workloads.golden_search()
    assert sum(v["found"] for v in golden.values()) == 32
    assert sum(v["explored"] for v in golden.values()) == 46
    assert sum(map(len, workloads.golden_table_lines().values())) == 297


def test_tail_rung_leaves_ten_items_beyond_in_the_fewest_passes():
    assert run.tail_rung(16) == 90  # table and search
    assert run.tail_rung(235) == 99  # sweep
    for per_pass in (16, 100, 235, 5000):
        rung = run.tail_rung(per_pass)
        values = list(range(per_pass * run.MIN_PASSES))
        random.Random(per_pass).shuffle(values)
        tail = run.percentile(values, rung)
        assert sum(1 for v in values if v > tail) >= run.TAIL_BEYOND
        higher = [p for p in run.LADDER if p > rung]
        if higher:
            beyond = sum(1 for v in values if v > run.percentile(values, higher[0]))
            assert beyond < run.TAIL_BEYOND


def test_nearest_rank_percentile():
    assert run.percentile(range(1, 101), 90) == 90
    assert run.percentile(range(1, 101), 99) == 99
    assert run.percentile([3, 1, 2], 50) == 2
    assert run.percentile([7], 99.9) == 7


def test_end_to_end_scales_each_time_by_its_calibration():
    ref = run.CALIB_REF_S
    # the host ran at half speed (calibration 2 * ref) in the second pass
    passes = [
        {"rss_mb": 20.0, "items": [["a", 10.0, None, ref]] * 16},
        {"rss_mb": 22.0, "items": [["a", 20.0, None, 2 * ref]] * 16},
        {"error": "pass timed out"},
    ]
    for p in passes[:2]:
        p["pass_s"] = sum(i[1] for i in p["items"]) / 1e3
        p["calib_s"] = p["items"][0][3]
    record = {"setups": [[0.1, ref], [0.3, 2 * ref], [0.2, ref]], "passes": passes}
    attempted, failed = run.counts(record, 16)
    assert (attempted, failed) == (48, 16)
    m, notes = run.end_to_end(record, 16, failed / attempted)
    assert m["pass_s"] == pytest.approx(0.16)
    assert m["item_p50_ms"] == pytest.approx(10.0)
    assert m["item_tail_ms"] == pytest.approx(10.0)
    assert m["setup_s"] == pytest.approx(0.15)
    assert m["peak_rss_mb"] == 21.0
    assert m["ok_frac"] == pytest.approx(2 / 3)
    assert notes["wall"]["pass_s"] == pytest.approx(0.24)
    assert notes["wall"]["setup_s"] == pytest.approx(0.2)


def test_traced_table_pass_counts(tmp_path):
    spans = tmp_path / "spans.json"
    proc = subprocess.run(
        [sys.executable, str(BENCH / "cold_pass.py"), "--src", str(ROOT / "src"),
         "--workload", "table", "--seed", "5", "--spans", str(spans)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert [item for item in result["items"] if item[2]] == []
    m = tracing.layer_metrics(json.loads(spans.read_text()))
    assert m["polytope.unimodular_equivalent.calls"] == 0
    assert m["dataset.load_rows.calls"] == 1
    assert m["correspondence.verify_row.calls"] > 16
    assert m["correspondence.verify_swaps.calls"] == 4
    assert m["polytope.contains_point.calls_in_lattice_points"] > 0
    assert m["polytope.contains_point.calls_in_hull"] > 0
    assert m["polytope.lattice_points.calls"] > 0
    assert 0 < m["polytope.lattice_points.kept_ratio"] < 1
    assert m["weights.newton_polytope.misses"] <= m["weights.newton_polytope.calls"]


def test_run_refuses_a_tree_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "table", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""

"""CLI surface: subcommands, exit codes, formats, round-trips."""

import json
from pathlib import Path

import pytest

from k3corr.cli import main
from k3corr.dataset import load_rows


TABLE_JSON = Path(__file__).parents[1] / "src/k3corr/data/table.json"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_verify_table_single_row(capsys):
    code, out, _ = run(capsys, "verify-table", "--row", "14")
    assert code == 0
    assert "row 14-28-45-51: PASS" in out


def test_verify_table_row_key_selector(capsys):
    code, out, _ = run(capsys, "verify-table", "--row", "26-34-76")
    assert code == 0
    assert "26-34" not in out.replace("26-34-76", "")


def test_verify_table_id_selector_matches_both_rows(capsys):
    code, out, _ = run(capsys, "verify-table", "--row", "26")
    assert code == 0
    assert "row 26-34: PASS" in out
    assert "row 26-34-76: PASS" in out


def test_verify_table_unknown_row_lists_keys(capsys):
    code, out, err = run(capsys, "verify-table", "--row", "999")
    assert code == 2
    assert "13-72" in err and "56-73" in err


def test_verify_table_all_rows(capsys):
    code, out, _ = run(capsys, "verify-table")
    assert code == 0
    for row in load_rows():
        assert f"row {row.key}: PASS" in out
    assert "all rows pass" in out


def test_verify_table_kv_deterministic(capsys):
    code1, out1, _ = run(capsys, "verify-table", "--format", "kv")
    code2, out2, _ = run(capsys, "verify-table", "--format", "kv")
    assert code1 == code2 == 0
    assert out1 == out2
    assert all("=pass" in ln or "=fail" in ln for ln in out1.strip().splitlines())


def test_verify_table_kv_deterministic_across_processes():
    import subprocess
    import sys

    def run_once(seed):
        return subprocess.run(
            [sys.executable, "-m", "k3corr.cli", "verify-table", "--row", "16",
             "--format", "kv"],
            capture_output=True,
            env={"PYTHONHASHSEED": seed, "PATH": "/usr/bin:/bin"},
            cwd="src",
        )
    a, b = run_once("1"), run_once("2")
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout


def test_verify_table_kv_matches_benchmark_golden(capsys):
    golden = Path(__file__).parents[1] / "perfbench" / "golden" / "table.kv"
    code, out, _ = run(capsys, "verify-table", "--format", "kv")
    assert code == 0
    assert out.encode() == golden.read_bytes()


def test_verify_table_kv_matches_golden_under_optimize():
    """No invariant may rest on ``assert``: ``python -O`` strips it."""
    import os
    import subprocess
    import sys

    root = Path(__file__).parents[1]
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "k3corr.cli", "verify-table", "--format", "kv"],
        capture_output=True,
        env={**os.environ, "PYTHONPATH": str(root / "src")},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (root / "perfbench" / "golden" / "table.kv").read_bytes()


def test_verify_table_kv_matches_golden_without_site_packages():
    """The package runs on the standard library alone: ``python -S`` drops
    site-packages, ``-I`` ignores PYTHONPATH, and only ``src`` goes on the
    path."""
    import subprocess
    import sys

    root = Path(__file__).parents[1]
    code = (
        f"import sys; sys.path.insert(0, {str(root / 'src')!r}); "
        "from k3corr.cli import main; "
        "sys.exit(main(['verify-table', '--format', 'kv']))"
    )
    proc = subprocess.run(
        [sys.executable, "-I", "-S", "-c", code], capture_output=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (root / "perfbench" / "golden" / "table.kv").read_bytes()


def test_verify_table_corrupted_dataset(tmp_path, capsys):
    rows = json.loads(TABLE_JSON.read_text(encoding="utf-8"))
    rows[0]["columns"][0][0] = "Z^3"  # wrong degree for (1,3,8,12)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(rows))
    code, out, _ = run(capsys, "verify-table", "--data", str(bad))
    assert code == 1
    assert "FAIL" in out


@pytest.mark.parametrize(
    "dropped, reason",
    [
        (2, "row 13-72: common polytope is not reflexive"),
        (0, "reflexivity needs the origin strictly inside"),
    ],
)
def test_verify_table_common_delta_failures(tmp_path, capsys, dropped, reason):
    """Row 13-72 without one column still derives its isomorphism, but the
    hull of the remaining column points fails the common-delta check."""
    rows = json.loads(TABLE_JSON.read_text(encoding="utf-8"))
    row = next(r for r in rows if r["ids"] == [13, 72])
    del row["columns"][dropped]
    bad = tmp_path / "dropped.json"
    bad.write_text(json.dumps(rows))
    code, out, err = run(
        capsys, "verify-table", "--row", "13-72", "--data", str(bad)
    )
    assert code == 1
    fails = [line for line in out.splitlines() if line.startswith("[FAIL]")]
    assert fails == [f"[FAIL] 13-72: common-delta reflexive+contained  ({reason})"]
    assert "internal error" not in out + err
    assert err == ""


def test_verify_table_inconsistent_iso_fails_once(tmp_path, capsys):
    """Row 13-72 with two of family 72's monomials swapped: the isomorphism
    fails, on one line, and the row and the run fail with exit code 1."""
    rows = json.loads(TABLE_JSON.read_text(encoding="utf-8"))
    row = next(r for r in rows if r["ids"] == [13, 72])
    cols = row["columns"]
    cols[0][1], cols[1][1] = cols[1][1], cols[0][1]
    bad = tmp_path / "swapped.json"
    bad.write_text(json.dumps([row]))
    code, out, err = run(capsys, "verify-table", "--data", str(bad))
    assert code == 1
    fails = [line for line in out.splitlines() if line.startswith("[FAIL]")]
    assert len(fails) == 1 and fails[0].startswith("[FAIL] 13-72: iso[13->72]  (")
    assert "[  ok] 13-72: common-delta reflexive+contained" in out
    assert out.endswith("row 13-72: FAIL\nFAILURES detected\n")
    assert err == ""


def test_verify_table_malformed_dataset(tmp_path, capsys):
    bad = tmp_path / "broken.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, "verify-table", "--data", str(bad))
    assert code == 2
    assert "JSON" in err


def test_verify_table_bad_monomial_dataset(tmp_path, capsys):
    rows = json.loads(TABLE_JSON.read_text(encoding="utf-8"))
    rows[0]["columns"][0][0] = "Q^3"
    bad = tmp_path / "bad2.json"
    bad.write_text(json.dumps(rows))
    code, _, err = run(capsys, "verify-table", "--data", str(bad))
    assert code == 2


DATA_COMMANDS = pytest.mark.parametrize(
    "argv", [["verify-table"], ["amoeba", "--row", "14", "--from", "14", "--to", "28"]]
)


def assert_dataset_error(tmp_path, capsys, argv, text, message):
    bad = tmp_path / "rows.json"
    bad.write_text(text)
    code, out, err = run(capsys, *argv, "--data", str(bad))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err


@pytest.mark.parametrize("text", ["[[1, 2, 3]]", "[5]"])
@DATA_COMMANDS
def test_dataset_rows_that_are_not_objects(tmp_path, capsys, argv, text):
    assert_dataset_error(tmp_path, capsys, argv, text, "not a JSON object")


def row_json(weights, columns, **fields):
    n = len(weights)
    return json.dumps([{
        "ids": list(range(1, n + 1)),
        "weights": weights,
        "degrees": [sum(w) for w in weights],
        "columns": columns,
        "lattice": "U",
        "rank": 2,
        **fields,
    }])


#: a valid column set for two quartic weights
QUARTIC_COLUMNS = [["W^4", "W^4"], ["X^4", "X^4"], ["Y^4", "Y^4"]]


@pytest.mark.parametrize(
    "text, message",
    [
        pytest.param(
            row_json([[1, 1, 1, 1]] * 2, [[1, 2]]),
            "column entries must be monomial strings",
            id="int-column-entry",
        ),
        pytest.param(
            row_json([], [[], [], [], []]), "at least two weights", id="no-weights"
        ),
        pytest.param(
            row_json([[1, 1, 1, 1]], [["W^4"], ["X^4"], ["Y^4"], ["Z^4"]]),
            "at least two weights",
            id="one-weight",
        ),
        pytest.param(
            row_json(
                [[1, 1, 1, 1]] * 2,
                [["W^4", "W^4"], ["X^4", "X^4"], ["Y^4", "Y^4"]],
                bold=[0, 0, 2],
            ),
            "bold index repeated",
            id="repeated-bold",
        ),
        pytest.param(
            row_json([[1, 1, 1, 1]] * 2, QUARTIC_COLUMNS, bold=[0]),
            "a single bold index",
            id="single-bold",
        ),
        pytest.param(
            row_json([[1, 1, 1, 1]] * 2, QUARTIC_COLUMNS, ids=[1.9, 2]),
            "not a JSON integer",
            id="float-id",
        ),
        pytest.param(
            row_json([[1.0, 1, 1, 1], [1, 1, 1, 1]], QUARTIC_COLUMNS),
            "not a JSON integer",
            id="float-weight",
        ),
        pytest.param(
            row_json([[1, 1, 1, 1]] * 2, QUARTIC_COLUMNS, degrees=[4, 4.0]),
            "not a JSON integer",
            id="float-degree",
        ),
        pytest.param(
            row_json([[1, 1, 1, 1]] * 2, QUARTIC_COLUMNS, rank=8.9),
            "not a JSON integer",
            id="float-rank",
        ),
        pytest.param(
            row_json([[1, 1, 1, 1]] * 2, QUARTIC_COLUMNS, bold=[True]),
            "not a JSON integer",
            id="bool-bold",
        ),
    ],
)
@DATA_COMMANDS
def test_dataset_rows_with_bad_fields(tmp_path, capsys, argv, text, message):
    assert_dataset_error(tmp_path, capsys, argv, text, message)


def test_verify_table_parallel_flag_is_gone(capsys):
    # rows verify serially; the removed process pool was slower
    code, out, err = run(capsys, "verify-table", "--row", "13", "--parallel")
    assert code == 2
    assert out == ""
    assert "unrecognized arguments: --parallel" in err


def test_newton_dual_points_round_trip(tmp_path, capsys):
    code, out, _ = run(capsys, "newton", "1,1,1,1")
    assert code == 0
    f = tmp_path / "quartic.txt"
    f.write_text(out)

    code, out2, _ = run(capsys, "points", str(f))
    assert code == 0
    assert len([ln for ln in out2.splitlines() if not ln.startswith("#")]) == 35

    code, out3, _ = run(capsys, "dual", str(f))
    assert code == 0
    dual_pts = {ln for ln in out3.splitlines() if not ln.startswith("#")}
    assert dual_pts == {"1 0 0", "0 1 0", "0 0 1", "-1 -1 -1"}


def test_dual_cube_gives_octahedron(tmp_path, capsys):
    f = tmp_path / "cube.txt"
    f.write_text(
        "\n".join(
            f"{x} {y} {z}" for x in (-1, 1) for y in (-1, 1) for z in (-1, 1)
        )
    )
    code, out, _ = run(capsys, "dual", str(f))
    assert code == 0
    pts = {ln for ln in out.splitlines() if not ln.startswith("#")}
    assert pts == {"-1 0 0", "0 -1 0", "0 0 -1", "0 0 1", "0 1 0", "1 0 0"}


def test_reflexive_command(tmp_path, capsys):
    f = tmp_path / "p.txt"
    f.write_text("1 0 0\n-1 0 0\n0 1 0\n0 -1 0\n0 0 2\n0 0 -2\n")
    code, out, _ = run(capsys, "reflexive", str(f))
    assert code == 0
    assert "reflexive=false" in out

    g = tmp_path / "q.txt"
    g.write_text("# cube\n" + "\n".join(
        f"{x} {y} {z}" for x in (-1, 1) for y in (-1, 1) for z in (-1, 1)
    ))
    code, out, _ = run(capsys, "reflexive", str(g))
    assert code == 0
    assert "reflexive=true" in out


def test_picard_weights(capsys):
    code, out, _ = run(capsys, "picard", "1,1,1,1")
    assert code == 0
    assert out.splitlines()[0] == "rho=1 toric=1 correction=0"

    code, out, _ = run(capsys, "picard", "1,6,14,21")
    assert code == 0
    assert out.splitlines()[0].startswith("rho=10 ")


def test_picard_file_and_kv(tmp_path, capsys):
    f = tmp_path / "cube.txt"
    f.write_text("\n".join(
        f"{x} {y} {z}" for x in (-1, 1) for y in (-1, 1) for z in (-1, 1)
    ))
    code, out, _ = run(capsys, "picard", str(f), "--format", "kv")
    assert code == 0
    assert out == "rho=3 toric=3 correction=0\n"


def test_picard_reads_a_file_whose_name_has_a_comma(tmp_path, capsys):
    octahedron = "1 0 0\n-1 0 0\n0 1 0\n0 -1 0\n0 0 1\n0 0 -1\n"
    plain, comma = tmp_path / "octahedron.txt", tmp_path / "octa,hedron.txt"
    plain.write_text(octahedron)
    comma.write_text(octahedron)
    want = run(capsys, "picard", str(plain))
    assert want[0] == 0 and want[1].startswith("rho=")
    assert run(capsys, "picard", str(comma)) == want


def test_picard_non_reflexive_fails(tmp_path, capsys):
    f = tmp_path / "p.txt"
    f.write_text("1 0 0\n-1 0 0\n0 1 0\n0 -1 0\n0 0 2\n0 0 -2\n")
    code, _, err = run(capsys, "picard", str(f))
    assert code == 1


def test_search_sub_command(capsys):
    code, out, _ = run(capsys, "search-sub", "2,4,5,9", "--max-depth", "2")
    assert code == 0
    assert "reflexive subpolytopes" in out
    assert "rho=14" in out


def test_search_sub_root_without_interior_origin(capsys):
    # no vertex deletion can put the origin back inside N(3,5,7,11)
    code, out, err = run(capsys, "search-sub", "3,5,7,11")
    assert code == 1
    assert out == ""
    assert err.startswith("error: 3,5,7,11: ") and len(err.splitlines()) == 1
    assert "origin" in err


def test_internal_error_is_not_a_failed_check(capsys, monkeypatch):
    from k3corr import correspondence

    def broken(p):
        raise AssertionError("polar dual of a reflexive polytope is not reflexive")

    monkeypatch.setattr(correspondence, "picard_rank", broken)
    code, out, err = run(capsys, "verify-table", "--row", "13-72")
    assert code == 3
    assert "FAIL" not in out
    assert err == (
        "internal error: AssertionError: "
        "polar dual of a reflexive polytope is not reflexive\n"
    )


def test_amoeba_missing_dataset(tmp_path, capsys):
    code, out, err = run(
        capsys, "amoeba", "--row", "14", "--from", "14", "--to", "28",
        "--data", str(tmp_path / "missing.json"),
    )
    assert code == 2
    assert out == "" and err.startswith("error: ")


def test_amoeba_command(capsys):
    code, out, _ = run(capsys, "amoeba", "--row", "14", "--from", "14", "--to", "28")
    assert code == 0
    body = [ln for ln in out.splitlines() if not ln.startswith("#")]
    assert body == ["0 -1 -1", "1 7 0", "0 0 1"]


def test_amoeba_ambiguous_row(capsys):
    code, _, err = run(capsys, "amoeba", "--row", "26", "--from", "26", "--to", "34")
    assert code == 2
    assert "26-34-76" in err


def test_amoeba_full_key(capsys):
    code, out, _ = run(
        capsys, "amoeba", "--row", "26-34-76", "--from", "26", "--to", "76"
    )
    assert code == 0


def test_usage_error_exit_code(capsys):
    assert main(["no-such-command"]) == 2
    capsys.readouterr()


def test_bad_weights_exit_code(capsys):
    code, _, err = run(capsys, "newton", "2,4,6,9")
    assert code == 2
    assert "well-posed" in err


@pytest.mark.parametrize("command", ["newton", "picard", "search-sub"])
def test_degenerate_newton_polytope_exit_code(capsys, command):
    # the anticanonical monomials of (7,11,13,17) span only a plane
    code, out, err = run(capsys, command, "7,11,13,17")
    assert code == 2
    assert out == ""
    assert err.startswith("error: 7,11,13,17: ") and len(err.splitlines()) == 1


@pytest.mark.parametrize(
    "flag, value", [("--max-depth", "-1"), ("--max-depth", "0"), ("--max-results", "0")]
)
def test_search_sub_rejects_limits_below_one(capsys, flag, value):
    code, out, err = run(capsys, "search-sub", "1,1,1,1", flag, value)
    assert code == 2
    assert out == ""
    assert "must be at least 1" in err


def test_points_file_missing(capsys):
    code = main(["points", "/nonexistent/file.txt"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == (
        "error: cannot read /nonexistent/file.txt: [Errno 2] "
        "No such file or directory: '/nonexistent/file.txt'\n"
    )

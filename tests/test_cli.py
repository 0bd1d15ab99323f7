"""CLI surface: subcommands, exit codes, formats, round-trips."""

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from k3corr.cli import main
from k3corr.dataset import load_rows
from k3corr.polytope import parse_points_text
from test_polytope import well_posed_systems


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
    for selector in ("999", ""):
        code, out, err = run(capsys, "verify-table", "--row", selector)
        assert (code, out) == (2, "")
        assert err.startswith(f"no row matches {selector!r}; available rows:\n")
        assert "  13-72  (rank 8)" in err and "56-73" in err


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


GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize(
    "argv, golden, want_code",
    [
        pytest.param([], "verify_table.txt", 0, id="table-text"),
        pytest.param(
            ["--data", "broken_table.json"], "broken_table.txt", 1, id="broken-text"
        ),
        pytest.param(
            ["--data", "broken_table.json", "--format", "kv"], "broken_table.kv", 1,
            id="broken-kv",
        ),
    ],
)
def test_verify_table_matches_golden(capsys, argv, golden, want_code):
    """Every check line, detail and verdict, byte for byte.  The broken table
    is the shipped one with seven rows edited so that each kind of check
    fails somewhere: a printed rank (13-72, and 16-54 under its swaps), a
    printed degree (50-82), an inconsistent column (9-71, and 14->28 of
    14-28-45-51, which leaves one path pair), too few columns for a common
    polytope (38-77) and bold columns that cannot be exchanged (20-59)."""
    argv = [str(GOLDEN / a) if a.endswith(".json") else a for a in argv]
    code, out, err = run(capsys, "verify-table", *argv)
    assert (code, err) == (want_code, "")
    assert out.encode() == (GOLDEN / golden).read_bytes()


#: the searches of golden/search_sub.txt, in order, as (weights, depth)
SEARCH_SUB_GOLDEN = (
    ("2,4,5,9", "3"), ("3,4,5,6", "3"), ("1,3,8,12", "2"), ("2,3,10,15", "2"),
    ("1,1,1,1", "5"), ("3,4,7,14", "2"),
)


def test_search_sub_matches_golden(capsys):
    """Each search's header, ranks and vertices, byte for byte."""
    out = ""
    for weights, depth in SEARCH_SUB_GOLDEN:
        code, text, err = run(capsys, "search-sub", weights, "--max-depth", depth)
        assert (code, err) == (0, "")
        out += text
    assert out.encode() == (GOLDEN / "search_sub.txt").read_bytes()


#: the commands of golden/picard_dual.txt, in order: four Newton polytopes
#: with corrections 0, 4, 4 and 2, one of them in kv, and a dual with
#: coordinates of +-1/2
PICARD_DUAL_GOLDEN = (
    ("picard", "1,6,14,21"), ("picard", "2,4,5,9"), ("picard", "3,5,6,7"),
    ("picard", "1,3,8,12"), ("picard", "2,4,5,9", "--format", "kv"),
    ("dual", str(GOLDEN / "stretched_octahedron.txt")),
)


def test_picard_and_dual_match_golden(capsys):
    """Each rank, split, dual count, dual rank and contributing edge pair,
    and each dual vertex, byte for byte."""
    out = ""
    for argv in PICARD_DUAL_GOLDEN:
        code, text, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        out += text
    assert out.encode() == (GOLDEN / "picard_dual.txt").read_bytes()


#: the weights of golden/newton.txt, in order; 1,1,1,200 lists 20,920 points
NEWTON_GOLDEN = ("1,1,1,200", "2,4,5,9", "1,6,14,21", "3,5,16,24")


def test_newton_matches_golden(capsys):
    """Each Newton polytope's vertices, byte for byte, whatever order the
    cloud is hulled in."""
    out = ""
    for weights in NEWTON_GOLDEN:
        code, text, err = run(capsys, "newton", weights)
        assert (code, err) == (0, "")
        out += text
    assert out.encode() == (GOLDEN / "newton.txt").read_bytes()


def test_newton_on_1_1_1_1000_matches_golden(capsys):
    """504,520 anticanonical monomials, 6 vertex candidates: the vertices,
    byte for byte, in milliseconds."""
    code, text, err = run(capsys, "newton", "1,1,1,1000")
    assert (code, err) == (0, "")
    assert text.encode() == (GOLDEN / "newton_1000.txt").read_bytes()


def test_main_builds_one_parser_for_every_call(capsys):
    """Two commands run through `main` in one process each print their own
    answer, parsed by the one parser the process builds."""
    from k3corr.cli import build_parser

    newton = (GOLDEN / "newton.txt").read_text().split("# ")[2]
    picard = (GOLDEN / "picard_dual.txt").read_text().splitlines(keepends=True)
    assert run(capsys, "newton", "2,4,5,9") == (0, "# " + newton, "")
    assert run(capsys, "picard", "1,6,14,21") == (0, "".join(picard[:3]), "")
    assert build_parser() is build_parser()


def test_newton_with_both_lattice_steps_large_matches_golden(capsys):
    """3,7,1000,100000 has g = 1000 and q = 100: the candidate loop visits
    one e1 in a thousand and one e2 in a hundred, and finds the same 8
    vertices as a loop that tests every exponent."""
    code, text, err = run(capsys, "newton", "3,7,1000,100000")
    assert (code, err) == (0, "")
    assert text.encode() == (GOLDEN / "newton_3_7_1000_100000.txt").read_bytes()


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


def test_cold_start_loads_no_heavy_stdlib_modules():
    """Importing the package and its CLI and loading the shipped table pull
    in neither dataclasses (with inspect, ast, dis and tokenize) nor
    importlib.resources (with zipfile and tempfile)."""
    import subprocess
    import sys

    heavy = ["dataclasses", "inspect", "importlib.resources", "zipfile", "tempfile"]
    src = str(Path(__file__).parents[1] / "src")
    code = (
        f"import sys; sys.path.insert(0, {src!r}); "
        "import k3corr, k3corr.cli; k3corr.load_rows(); "
        f"print([m for m in {heavy!r} if m in sys.modules])"
    )
    proc = subprocess.run(
        [sys.executable, "-I", "-S", "-c", code],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


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
    """Row 13-72's first entry is Z^2; with one brace it is no monomial."""
    rows = json.loads(TABLE_JSON.read_text(encoding="utf-8"))
    for monomial in ("Q^3", "Z^{2", "Z^2}"):
        rows[0]["columns"][0][0] = monomial
        bad = tmp_path / "bad2.json"
        bad.write_text(json.dumps(rows))
        code, _, err = run(capsys, "verify-table", "--data", str(bad))
        assert code == 2
        assert err.startswith("error: ") and repr(monomial) in err


DATA_COMMANDS = pytest.mark.parametrize(
    "argv", [["verify-table"], ["amoeba", "--row", "14", "--from", "14", "--to", "28"]]
)


def assert_dataset_error(tmp_path, capsys, argv, text, message):
    bad = tmp_path / "rows.json"
    bad.write_bytes(text if isinstance(text, bytes) else text.encode())
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
        pytest.param(
            row_json([[1, 1, 1, 1]] * 2, QUARTIC_COLUMNS, lattice=None),
            "not a JSON string",
            id="null-lattice",
        ),
        pytest.param(
            row_json([[1, 1, 1, 1]] * 2, QUARTIC_COLUMNS, lattice=5),
            "not a JSON string",
            id="int-lattice",
        ),
        pytest.param(
            row_json([[1, 3, 8, 12], [1, 2, 5, 7]], "WXYZ", ids=[13, 72]),
            "bad row record [13, 72]: columns must be a JSON list",
            id="string-columns",
        ),
        pytest.param(
            row_json(
                [[1, 3, 8, 12], [1, 2, 5, 7]],
                ["ZW", "WW", "XX", "XY", "YY", "XZ"],
                ids=[13, 72],
            ),
            "bad row record [13, 72]: columns must be a JSON list",
            id="string-column",
        ),
    ],
)
@DATA_COMMANDS
def test_dataset_rows_with_bad_fields(tmp_path, capsys, argv, text, message):
    assert_dataset_error(tmp_path, capsys, argv, text, message)


@pytest.mark.parametrize(
    "text, message",
    [
        pytest.param(b'[{"lattice": "\xff"}]', "can't decode byte 0xff", id="not-utf8"),
        pytest.param("[" * 100_000, "dataset is not valid JSON", id="nested-too-deep"),
        pytest.param("[" + "7" * 5000 + "]", "4300 digits", id="long-integer"),
        pytest.param(
            row_json([[1, 1, 1, 1]] * 2, [["W^" + "4" * 5000, "W^4"]] * 3),
            "exponent of W is too long",
            id="long-exponent",
        ),
    ],
)
@DATA_COMMANDS
def test_dataset_files_past_a_decoder_limit(tmp_path, capsys, argv, text, message):
    """Undecodable bytes and the JSON and int-string limits are input errors."""
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


def test_search_sub_header_counts_explored_states(capsys):
    from k3corr.correspondence import search_sub_reflexive
    from k3corr.weights import WeightSystem, newton_polytope

    code, out, _ = run(capsys, "search-sub", "2,4,5,9", "--max-depth", "2")
    res = search_sub_reflexive(
        newton_polytope(WeightSystem.from_weights([2, 4, 5, 9])), max_depth=2
    )
    assert code == 0
    assert out.splitlines()[0] == (
        "# 2 reflexive subpolytopes of newton(2,4,5,9) within depth 2, "
        f"{res.explored} states explored (limits exhausted)"
    )
    assert res.explored == 2


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


CUBE = "\n".join(f"{x} {y} {z}" for x in (-1, 1) for y in (-1, 1) for z in (-1, 1))


@pytest.mark.parametrize(
    "module, name, argv",
    [
        pytest.param(
            "correspondence",
            "picard_rank",
            ["verify-table", "--row", "13-72"],
            id="verify_row-check",
        ),
        pytest.param("cli", "is_reflexive", ["reflexive", "CUBE"], id="reflexive"),
        pytest.param("cli", "hull", ["points", "CUBE"], id="points"),
        pytest.param("cli", "newton_polytope", ["newton", "1,1,1,1"], id="newton"),
        pytest.param(
            "correspondence",
            "fit_lattice_map",
            ["amoeba", "--row", "14", "--from", "14", "--to", "28"],
            id="amoeba",
        ),
        pytest.param("cli", "polar_dual", ["dual", "CUBE"], id="dual"),
    ],
)
def test_bare_value_error_is_an_internal_error(
    tmp_path, capsys, monkeypatch, module, name, argv
):
    """Only a K3CorrError is a failed condition: a bare ValueError from any
    command is a toolkit bug, exit 3, never a FAIL line or an answer."""
    import importlib

    def bug(*args, **kwargs):
        raise ValueError("injected bug")

    monkeypatch.setattr(importlib.import_module(f"k3corr.{module}"), name, bug)
    cube = tmp_path / "cube.txt"
    cube.write_text(CUBE)
    argv = [str(cube) if arg == "CUBE" else arg for arg in argv]
    code, out, err = run(capsys, *argv)
    assert code == 3
    assert err == "internal error: ValueError: injected bug\n"
    assert "FAIL" not in out and "reflexive=" not in out


@pytest.mark.parametrize("command", ["points", "picard", "reflexive", "dual"])
def test_point_file_that_is_not_utf8(tmp_path, capsys, command):
    f = tmp_path / "latin1.txt"
    f.write_bytes("# caf\xe9\n".encode("latin-1") + CUBE.encode())
    code, out, err = run(capsys, command, str(f))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {f}: ") and err.count("\n") == 1
    assert "can't decode byte 0xe9" in err


def test_exponent_notation_in_a_point_file_exits_at_once(tmp_path):
    """1e100000000 would be a 100-million-digit integer; its line is refused
    before its coordinates are parsed, on every Python version."""
    import os
    import subprocess
    import sys

    f = tmp_path / "huge.txt"
    f.write_text("1 0 0\n0 1 0\n0 0 1e100000000\n-1 -1 -1\n")
    proc = subprocess.run(
        [sys.executable, "-m", "k3corr.cli", "reflexive", str(f)],
        capture_output=True,
        env={**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")},
        timeout=10,
    )
    assert proc.returncode == 2
    assert proc.stdout == b""
    assert proc.stderr == (
        f"error: {f}: line 3: exponent notation in '0 0 1e100000000'\n".encode()
    )


@pytest.mark.parametrize("token", ["1_0", "1_0/3", "0.5_0", "١٢"])
def test_point_file_coordinates_outside_the_ascii_forms(tmp_path, capsys, token):
    """Digit-group underscores and non-ASCII digits are bad coordinates on
    every Python version, though ``Fraction`` reads some of them on some."""
    f = tmp_path / "odd.txt"
    f.write_text(f"1 0 0\n0 1 0\n0 0 {token}\n-1 -1 -1\n", encoding="utf-8")
    code, out, err = run(capsys, "points", str(f))
    assert (code, out) == (2, "")
    assert err == f"error: {f}: line 3: bad coordinate in '0 0 {token}'\n"


def test_points_of_a_sheared_simplex_match_golden(capsys):
    """The lattice points of a GL(3, Z) image of the quartic simplex, whose
    shadow is a thin slanted strip of its bounding box, byte for byte."""
    code, out, err = run(capsys, "points", str(GOLDEN / "sheared_simplex.txt"))
    assert (code, err) == (0, "")
    assert out.encode() == (GOLDEN / "sheared_simplex_points.txt").read_bytes()


def test_every_exception_class_is_a_domain_error():
    """Every exception class k3corr defines is a K3CorrError, and still a
    ValueError; the InputErrors (exit 2) are exactly the input ones."""
    import importlib
    import inspect
    import pkgutil

    import k3corr
    from k3corr.intlinalg import InputError, K3CorrError
    from k3corr.polytope import DegeneratePointSet, OriginNotInterior

    defined = {
        obj
        for info in pkgutil.iter_modules(k3corr.__path__)
        for _, obj in inspect.getmembers(
            importlib.import_module(f"k3corr.{info.name}"), inspect.isclass
        )
        if issubclass(obj, BaseException) and obj.__module__.startswith("k3corr.")
    }
    assert DegeneratePointSet in defined and OriginNotInterior in defined
    assert all(issubclass(cls, K3CorrError) for cls in defined)
    assert all(issubclass(cls, ValueError) for cls in defined)
    assert {cls.__name__ for cls in defined if issubclass(cls, InputError)} == {
        "InputError",
        "IllPosedWeights",
        "MalformedMonomial",
        "DatasetError",
        "DegeneratePointSet",
    }


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
    # the anticanonical monomials span a plane (4 monomials), a line (3)
    # and a point (WXYZ alone)
    for weights, message in (
        ("7,11,13,17", "points are coplanar"),
        ("6,7,7,9", "points are collinear"),
        ("1000003,1000033,1000037,1000039", "fewer than 2 distinct points"),
    ):
        code, out, err = run(capsys, command, weights)
        assert (code, out) == (2, "")
        assert err == f"error: {weights}: {message}\n"


@pytest.mark.parametrize("command", ["points", "dual", "reflexive", "picard"])
def test_point_file_of_comments_only_exits_2(tmp_path, capsys, command):
    """A point file with no points fails the mesh seed like any other
    degenerate set, with the same one-line message."""
    f = tmp_path / "empty.txt"
    f.write_text("# no points\n\n# none here either\n")
    code, out, err = run(capsys, command, str(f))
    assert (code, out) == (2, "")
    assert err == f"error: {f}: fewer than 2 distinct points\n"


@pytest.mark.parametrize(
    "flag, value", [("--max-depth", "-1"), ("--max-depth", "0"), ("--max-results", "0")]
)
def test_search_sub_rejects_limits_below_one(capsys, flag, value):
    code, out, err = run(capsys, "search-sub", "1,1,1,1", flag, value)
    assert code == 2
    assert out == ""
    assert "must be at least 1" in err


def exit_0_1_or_2(argv):
    """Run main in-process; it must exit 0, 1 or 2 with no internal error.
    Returns the exit code and stdout."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2), err.getvalue()
    assert "internal error:" not in err.getvalue()
    return code, out.getvalue()


#: a weight field: a small integer, or a near miss of the weight syntax
#: (long digit strings are left out: they are not capped yet)
weight_fields = st.one_of(
    st.integers(-2, 60).map(str),
    st.sampled_from(["", " 7", "+3", "1_0", "x", "\u0663", "0x10", "007"]),
)
#: weight lists of 3 to 5 fields, and well-posed ones (d <= 20, in any
#: order) so that the commands also run to an answer
weight_lists = st.one_of(
    st.sampled_from([ws.a for ws in well_posed_systems(20)])
    .flatmap(st.permutations)
    .map(lambda a: ",".join(map(str, a))),
    st.lists(weight_fields, min_size=3, max_size=5).map(",".join),
)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(weight_lists)
def test_any_weight_list_exits_0_1_or_2(weights):
    """A weight list is input: whatever it holds, a command ends in an
    answer, a failed check or an input error, never an internal error."""
    for argv in (
        ["newton", weights],
        ["picard", weights],
        ["search-sub", weights, "--max-depth", "1"],
    ):
        code, out = exit_0_1_or_2(argv)
        if argv[0] == "newton" and code == 0:
            assert len(parse_points_text(out)) >= 4


def coordinates(lo, hi):
    """Point-file coordinates in [lo, hi] (lo <= 0 < 3 <= hi) with
    denominators up to 4, written as integers, fractions and decimals."""
    quarters = st.integers(4 * lo, 4 * hi)
    return st.one_of(
        st.integers(lo, hi).map(str),
        st.tuples(quarters, st.integers(1, 4)).map(
            lambda t: f"{t[0] * t[1] // 4}/{t[1]}"
        ),
        quarters.map(lambda n: str(n / 4)),
        st.sampled_from(["+3", ".5", "3.", "007", "2/04", "-0/3"]),
    )


def point_lines(lo, hi):
    return st.lists(coordinates(lo, hi), min_size=3, max_size=3).map(" ".join)


#: lines that leave a file's cloud as it is: blank, comments, a commented point
harmless_lines = st.one_of(
    st.sampled_from(["", "   ", "#", "# a comment", "# 1 2 3"]),
    point_lines(-6, 6).map(lambda line: line + "  # note"),
)
#: near misses of the coordinate grammar
near_misses = st.sampled_from(
    ["1/0", "1e2", "1E2", "1_0", "\u0661", "0x1", "1/-2", "--1", "1.5/2", "1//2",
     "\u00bd", "inf", "nan"]
)
#: lines that make a file exit 2: a near miss among two coordinates, or
#: wrong arity
bad_lines = st.one_of(
    st.tuples(coordinates(-6, 6), coordinates(-6, 6), near_misses)
    .flatmap(st.permutations)
    .map(" ".join),
    st.lists(coordinates(-6, 6), min_size=1, max_size=5)
    .filter(lambda tokens: len(tokens) != 3)
    .map(" ".join),
)


def axis_points(k):
    """The six points +-e_i/k: the origin is interior to their hull, and
    the polar dual of any cloud holding them lies in [-k, k]^3."""
    return [
        " ".join(f"{sign}1/{k}" if i == j else "0" for j in range(3))
        for i in range(3)
        for sign in ("", "-")
    ]


#: clouds: around the six axis points (the dual stays small, so `points`
#: on it is quick), in the closed positive octant (the origin is never
#: interior), and degenerate: points (x, y, c), or (x, x, c) on a line
clouds = st.one_of(
    st.tuples(st.integers(1, 4), st.lists(point_lines(-6, 6), max_size=6))
    .map(lambda t: axis_points(t[0]) + t[1]),
    st.lists(point_lines(0, 6), min_size=4, max_size=8, unique=True),
    st.tuples(
        st.lists(st.tuples(coordinates(-6, 6), coordinates(-6, 6)), min_size=4, max_size=6),
        coordinates(-6, 6),
        st.booleans(),
    ).map(lambda t: [f"{x} {y if t[2] else x} {t[1]}" for x, y in t[0]]),
)


def with_a_bad_line(drawn):
    lines, bad, at = drawn
    return "\n".join(lines), "\n".join([*lines[:at], bad, *lines[at:]])


#: a cloud among harmless lines in any order, and the same lines with one
#: bad line put in
point_files = st.tuples(
    st.tuples(clouds, st.lists(harmless_lines, max_size=3))
    .flatmap(lambda t: st.permutations(t[0] + t[1])),
    bad_lines,
    st.integers(0, 20),
).map(with_a_bad_line)


@settings(max_examples=30, derandomize=True, deadline=None)
@given(files=point_files)
def test_any_point_file_exits_0_1_or_2(tmp_path_factory, files):
    """A point file is input: every command that reads one ends in an
    answer, a failed check or an input error, a polar dual it prints is a
    point file that `points` and `reflexive` read, and one bad line is
    an input error."""
    text, broken = files
    cloud = tmp_path_factory.getbasetemp() / "cloud.txt"
    cloud.write_text(broken, encoding="utf-8")
    assert exit_0_1_or_2(["points", str(cloud)])[0] == 2
    cloud.write_text(text, encoding="utf-8")
    for command in ("points", "reflexive", "dual", "picard"):
        code, out = exit_0_1_or_2([command, str(cloud)])
        if command == "dual" and code == 0:
            dual = tmp_path_factory.getbasetemp() / "dual.txt"
            dual.write_text(out, encoding="utf-8")
            assert exit_0_1_or_2(["points", str(dual)])[0] == 0
            assert exit_0_1_or_2(["reflexive", str(dual)])[0] == 0


SHIPPED_ROWS = json.loads(TABLE_JSON.read_text())
#: values of the wrong range, type or length for a row field or an element
#: of one (small weights only: the weights' size is not capped yet)
wrong_values = st.one_of(
    st.integers(-1, 30),
    st.sampled_from(["W^4", "X^2Z", "Y^3", "WXYZ", "Z^2Q", "", "U"]),
    st.sampled_from([None, True, 2.5, [], [3], [1, 1, 1, 1], [[1, 1, 1, 1]], {"a": 1}]),
)


@st.composite
def broken_rows(draw):
    """A shipped row with one field, or one element of it, replaced by a
    wrong value, or one list field cut short or grown by a repeat."""
    row = json.loads(json.dumps(draw(st.sampled_from(SHIPPED_ROWS))))
    field = draw(st.sampled_from(sorted({*row, "bold"})))
    holder, key, value = row, field, row.get(field)
    while isinstance(value, list) and value and draw(st.booleans()):
        holder, key = value, draw(st.integers(0, len(value) - 1))
        value = holder[key]
    how = draw(st.sampled_from(["replace", "shorten", "repeat"]))
    if how == "shorten" and isinstance(value, list) and value:
        del value[-1]
    elif how == "repeat" and isinstance(value, list) and value:
        value.append(value[0])
    else:
        holder[key] = draw(wrong_values)
    return row


@settings(max_examples=80, derandomize=True, deadline=None)
@given(row=broken_rows())
def test_any_dataset_row_exits_0_1_or_2(tmp_path_factory, row):
    """A dataset file is input: a shipped row with one field or element
    broken verifies, fails a check or is refused, never an internal error."""
    data = tmp_path_factory.getbasetemp() / "rows.json"
    data.write_text(json.dumps([row]), encoding="utf-8")
    exit_0_1_or_2(["verify-table", "--data", str(data), "--format", "kv"])


def test_points_file_missing(capsys):
    code = main(["points", "/nonexistent/file.txt"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == (
        "error: cannot read /nonexistent/file.txt: [Errno 2] "
        "No such file or directory: '/nonexistent/file.txt'\n"
    )

import hashlib
import json
import random
import sys
import tracemalloc
from pathlib import Path

import pytest

from conftest import int_digit_limit, random_int_matrix
from latdeg import (
    FormatError,
    HomogeneousLattice,
    ZMatrix,
    errors,
    format_matrix,
    hermite_basis,
    parse_graph,
    parse_matrix,
    parse_toric_spec,
)
from latdeg.cli import emit_cas_script, main

EXAMPLE1 = """4 5
1001 -500 -501 0 0
0 3500 -3500 0 0
0 0 3200 -200 -3000
5000 -1000 -1000 -1001 -1999
"""
EXAMPLE2 = "3 3\n18 -18 0\n45 0 -45\n0 10 -10\n"
EXAMPLE3 = "1 3\n-1 2 -1\n"
ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "data"
# [exit code, first 16 hex digits of the stdout SHA-256] of each benchmark command line
CLI_PINS = json.loads((ROOT / "bench" / "pins.json").read_text())["cli_data"]


@pytest.fixture
def write(tmp_path):
    def _write(name, text):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    return _write


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_round_trip_print_parse():
    rng = random.Random(123)
    for _ in range(25):
        a = random_int_matrix(rng, rng.randint(0, 4), rng.randint(0, 4), 10**9)
        assert parse_matrix(format_matrix(a)) == a


def test_degree_command(write, capsys):
    code, out, _ = run(capsys, "degree", write("example2.mat", EXAMPLE2))
    assert code == 0
    assert out.strip() == "degree 90"


def test_degree_command_rank_mismatch(write, capsys):
    code, out, err = run(capsys, "degree", write("example3.mat", EXAMPLE3))
    assert code == 1
    assert out == ""
    assert "RankMismatch" in err
    assert "expected rank 2, got rank 1" in err


def test_snf_command_json(write, capsys):
    code, out, _ = run(capsys, "snf", write("example1.mat", EXAMPLE1), "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["invariant_factors"] == ["1", "1", "100", "91203112000"]
    assert payload["rank"] == 4


def test_hnf_command_output_is_reparseable(write, capsys):
    code, out, _ = run(capsys, "hnf", write("m.mat", EXAMPLE2))
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "rank 2"
    h = parse_matrix("\n".join(lines[1:]))
    assert h.rows == 3 and h.cols == 3


def test_hnf_command_pads_the_basis_to_the_hermite_form(write, capsys):
    rng = random.Random(77)
    for _ in range(20):
        a = random_int_matrix(rng, rng.randint(0, 4), rng.randint(0, 4), 3)
        basis = hermite_basis(a)
        h = basis.to_rows() + [[0] * a.cols] * (a.rows - basis.rows)
        code, out, _ = run(capsys, "hnf", write("m.mat", format_matrix(a)))
        assert code == 0
        assert out == f"rank {basis.rows}\n" + format_matrix(ZMatrix.from_rows(h, cols=a.cols))
        code, out, _ = run(capsys, "hnf", write("m.mat", format_matrix(a)), "--json")
        assert json.loads(out) == {
            "rank": basis.rows,
            "h": [[str(x) for x in row] for row in h],
        }


@pytest.mark.parametrize(
    "command, text, expected",
    [
        ("snf", "0 2000\n", "rank 0\ninvariant factors \n"),
        ("snf", "2000 0\n", "rank 0\ninvariant factors \n"),
        ("hnf", "0 2000\n", "rank 0\n0 2000\n"),
        ("hnf", "2000 0\n", "rank 0\n2000 0\n"),
    ],
)
def test_snf_hnf_of_empty_matrix_build_no_transform(write, capsys, command, text, expected):
    # an N x N transform for an empty input once cost over 100 MB at N = 2000
    path = write("empty.mat", text)
    tracemalloc.start()
    try:
        code, out, _ = run(capsys, command, path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert out == expected
    assert peak < 8 * 2**20


# a zero-column header needs no row lines, yet each command walked every row
@pytest.mark.parametrize("command, text", [
    *((command, "2000001 0\n")
      for command in ("snf", "hnf", "degree", "torsion", "hilbert", "verify", "emit")),
    pytest.param("snf", "1 2000001\n" + "0 " * 2000001 + "\n", id="snf-1 2000001"),
])
def test_matrix_past_the_cell_budget_is_refused(write, capsys, command, text):
    code, out, err = run(capsys, command, write("big.mat", text))
    assert code == 1
    assert out == ""
    assert err == "error: BudgetExceeded: matrix cell count 2000001 exceeds budget 2000000\n"



# at a patched budget of 12 cells, 12 are read and 13 refused; a zero-column
# header counts each row as one cell
@pytest.mark.parametrize("text, expected", [
    ("3 4\n" + "1 -2 3 -4\n" * 3, "rank 1\ninvariant factors 1\n"),
    ("1 13\n" + "1 " * 13 + "\n", None),
    ("12 0\n", "rank 0\ninvariant factors \n"),
    ("13 0\n", None),
], ids=["3x4", "1x13", "12x0", "13x0"])
def test_cell_budget_boundary(write, capsys, monkeypatch, text, expected):
    monkeypatch.setattr(errors, "DEFAULT_BUDGET", 12)
    refused = "error: BudgetExceeded: matrix cell count 13 exceeds budget 12\n"
    assert run(capsys, "snf", write("m.mat", text)) == (
        (1, "", refused) if expected is None else (0, expected, ""))

def test_torsion_command(write, capsys):
    code, out, _ = run(capsys, "torsion", write("m.mat", EXAMPLE2))
    assert code == 0
    assert "torsion order 90" in out
    assert "cyclic factors 90" in out
    assert "free rank 1" in out

    code, out, _ = run(capsys, "torsion", write("m.mat", EXAMPLE2), "--json")
    payload = json.loads(out)
    assert payload == {
        "ambient_dim": 3,
        "rank": 2,
        "invariant_factors": ["1", "90"],
        "torsion_order": "90",
        "degree": "90",
        "regularity_upper_bound": 54,
    }


def test_torsion_json_degree_null_off_rank(write, capsys):
    code, out, _ = run(capsys, "torsion", write("m.mat", EXAMPLE3), "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["degree"] is None
    assert payload["regularity_upper_bound"] is None
    assert payload["torsion_order"] == "1"


def test_hilbert_command(write, capsys):
    code, out, _ = run(
        capsys, "hilbert", write("m.mat", EXAMPLE3), "--max-degree", "6"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[:7] == ["0 1", "1 3", "2 5", "3 7", "4 9", "5 11", "6 13"]
    assert "degree estimate 2" in lines[7]

    code, out, _ = run(
        capsys, "hilbert", write("m.mat", EXAMPLE3), "--max-degree", "6", "--json"
    )
    payload = json.loads(out)
    assert payload["values"] == ["1", "3", "5", "7", "9", "11", "13"]
    assert payload["degree_estimate"] == "2"
    assert payload["krull_dim_estimate"] == 2
    assert payload["stabilization_degree"] is None


def test_hilbert_budget_error(write, capsys, monkeypatch):
    monkeypatch.setattr(errors, "DEFAULT_BUDGET", 100)
    code, _, err = run(capsys, "hilbert", write("m.mat", EXAMPLE2), "--max-degree", "500")
    assert code == 1
    assert "BudgetExceeded" in err


def test_hilbert_budget_bounds_cosets_at_corank_one(capsys):
    # 2,208,151 monomials of degree 2100, but only 90 cosets: 270 residue steps
    code, out, _ = run(capsys, "hilbert", str(DATA / "example2.mat"), "--max-degree", "2100")
    assert code == 0
    lines = out.splitlines()
    assert lines[17] == "17 90"
    assert lines[2100] == "2100 90"
    assert lines[-1] == "degree estimate 90 (difference order 0); values constant from degree 17"


def test_verify_command(write, capsys):
    code, out, _ = run(capsys, "verify", write("m.mat", EXAMPLE2), "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["snf_degree"] == "90"
    assert payload["oracle_degree"] == "90"
    assert payload["agree"] is True
    assert payload["observed_stabilization"] <= payload["regularity_bound"]


def test_toric_command(write, capsys):
    code, out, _ = run(capsys, "toric", write("t.exp", "3 1 2\n1\n2\n"))
    assert code == 0
    assert "lattice degree 2" in out
    assert "point count 2" in out
    assert "agree true" in out

    code, out, _ = run(capsys, "toric", write("t.exp", "3 1 2\n1\n2\n"), "--json")
    payload = json.loads(out)
    assert payload["lattice_degree"] == "2"
    assert payload["point_count"] == "2"
    assert payload["agree"] is True
    assert payload["ci"]["q_minus_1_prime"] is True


def test_sandpile_command(write, capsys):
    text = "4\n1 2\n1 3\n1 4\n2 3\n2 4\n3 4\n"
    code, out, _ = run(capsys, "sandpile", write("g.graph", text))
    assert code == 0
    assert "degree 16" in out
    assert "spanning trees 16" in out
    assert "agree true" in out

    code, out, _ = run(capsys, "sandpile", write("g.graph", text), "--json")
    payload = json.loads(out)
    assert payload == {
        "degree": "16",
        "spanning_trees": "16",
        "reduced_laplacian_det": "16",
        "agree": True,
    }


def test_sandpile_on_a_path_past_the_old_edge_cap(write, capsys):
    # 29 edges but one edge subset of size 29: within the budget on the work
    text = "30\n" + "".join(f"{i} {i + 1}\n" for i in range(1, 30))
    code, out, _ = run(capsys, "sandpile", write("path.graph", text), "--json")
    assert code == 0
    assert json.loads(out) == {
        "degree": "1",
        "spanning_trees": "1",
        "reduced_laplacian_det": "1",
        "agree": True,
    }


def test_emit_macaulay2(write, capsys):
    code, out, _ = run(capsys, "emit", write("m.mat", EXAMPLE2))
    assert code == 0
    assert "S=QQ[t1,t2,t3]" in out
    assert "Q=ideal(t1^18-t2^18,t1^45-t3^45,t2^10-t3^10)" in out
    assert "saturate(Q,t1*t2*t3)" in out
    assert "degree saturate(Q,t1*t2*t3)" in out


def test_emit_maple(write, capsys):
    code, out, _ = run(capsys, "emit", write("m.mat", EXAMPLE1), "--format", "maple")
    assert code == 0
    assert "with(LinearAlgebra):" in out
    assert "SmithForm(A);" in out
    assert "A:=<1001,-500,-501,0,0; 0,3500,-3500,0,0;" in out


def test_emit_binomial_decomposition():
    # positive and negative parts have disjoint supports
    lat = HomogeneousLattice.from_rows([[1, -1]])
    assert "Q=ideal(t1-t2)" in emit_cas_script(lat, "macaulay2")
    lat = HomogeneousLattice.from_rows([[2, -1, -1]])
    assert "Q=ideal(t1^2-t2*t3)" in emit_cas_script(lat, "macaulay2")
    with pytest.raises(ValueError):
        emit_cas_script(lat, "gap")


def test_lattice_summary_big_ints_are_strings(write, capsys):
    code, out, _ = run(capsys, "degree", write("m.mat", EXAMPLE1), "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["degree"] == "9120311200000"
    assert payload["invariant_factors"][-1] == "91203112000"
    assert isinstance(payload["ambient_dim"], int)


BIG = 10**4000
NINES = 10**4300 - 1  # 4,300 digits, Python's default limit; twice it has 4,301
TORIC_Q, TORIC_N = 1000003, 800  # (q-1)^n has 4,801 digits; (q-1)^2 passes the budget
TORIC = f"{TORIC_Q} {TORIC_N} 3\n" + "".join(
    " ".join(str(i * (j % 5)) for j in range(TORIC_N)) + "\n" for i in range(1, 4)
)
# (argv before the file, file text, exit code, stdout, stderr), built with no digit limit
BIG_INT_CASES = {
    "degree": lambda: (["degree"], f"2 3\n{BIG} {-BIG} 0\n0 {BIG} {-BIG}\n", 0,
                       f"degree {BIG * BIG}\n", ""),
    "degree-json": lambda: (
        ["degree", "--json"], f"2 3\n{BIG} {-BIG} 0\n0 {BIG} {-BIG}\n", 0,
        json.dumps({"ambient_dim": 3, "rank": 2, "invariant_factors": [str(BIG)] * 2,
                    "torsion_order": str(BIG * BIG), "degree": str(BIG * BIG),
                    "regularity_upper_bound": 2 * BIG - 1}, indent=2) + "\n", ""),
    "not-homogeneous": lambda: (
        ["degree"], f"1 2\n{NINES} {NINES}\n", 1, "",
        f"error: NotHomogeneous: generator row 0 has coordinate sum {2 * NINES}, expected 0\n"),
    "toric-budget": lambda: (
        ["toric"], TORIC, 1, "",
        f"error: BudgetExceeded: parameter grid size at least {(TORIC_Q - 1) ** 2} "
        "exceeds budget 2000000\n"),
    "long-entry": lambda: (["snf"], f"1 1\n{NINES + 1}\n", 0,
                           f"rank 1\ninvariant factors {NINES + 1}\n", ""),
}


@pytest.mark.parametrize("name", sorted(BIG_INT_CASES))
def test_integers_past_the_str_digit_limit(name, write, capsys):
    with int_digit_limit(0):
        argv, text, code, out, err = BIG_INT_CASES[name]()
        path = write("big.txt", text)
    with int_digit_limit(4300):
        assert run(capsys, argv[0], path, *argv[1:]) == (code, out, err)
        assert getattr(sys, "get_int_max_str_digits", lambda: 4300)() == 4300


def test_main_restores_the_callers_digit_limit(write, capsys):
    with int_digit_limit(5000):
        assert run(capsys, "degree", write("m.mat", EXAMPLE2)) == (0, "degree 90\n", "")
        assert getattr(sys, "get_int_max_str_digits", lambda: 5000)() == 5000


def test_not_homogeneous_is_domain_error(write, capsys):
    code, _, err = run(capsys, "degree", write("bad.mat", "1 2\n1 1\n"))
    assert code == 1
    assert "NotHomogeneous" in err
    assert "row 0" in err


def test_parse_error_exits_2(write, capsys):
    code, _, err = run(capsys, "degree", write("bad.mat", "2 2\n1 2\n"))
    assert code == 2
    assert "error:" in err


def test_missing_file_exits_2(capsys):
    code, _, err = run(capsys, "degree", "/nonexistent/path.mat")
    assert code == 2
    assert "error:" in err


def test_usage_error_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate", "x"])
    assert exc.value.code == 2


def test_bad_flag_values_exit_2(write, capsys):
    path = write("m.mat", EXAMPLE2)
    # the budget is fixed: no command takes one
    with pytest.raises(SystemExit) as exc:
        main(["verify", path, "--budget", "5"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --budget 5" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main(["hilbert", path, "--max-degree", "-3"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "command", ["degree", "verify", "hilbert", "emit", "emit --format maple"]
)
def test_zero_ambient_dimension_is_domain_error(write, capsys, command):
    name, *flags = command.split()
    code, out, err = run(capsys, name, write("empty.mat", "0 0\n"), *flags)
    assert code == 1
    assert out == ""
    assert "DomainError: ambient dimension is 0" in err
    assert "rank -1" not in err


def test_toric_negative_exponent_exits_2(write, capsys):
    code, out, err = run(capsys, "toric", write("neg.exp", "3 1 2\n1\n-2\n"))
    assert code == 2
    assert out == ""
    assert err == "error: exponents must be nonnegative\n"


@pytest.mark.parametrize("header, counts", [("5 2 -1", "2 -1"), ("5 -1 2", "-1 2")])
def test_toric_negative_count_exits_2(write, capsys, header, counts):
    code, out, err = run(capsys, "toric", write("neg.exp", f"{header}\n1 2\n"))
    assert code == 2
    assert out == ""
    assert err == f"error: counts n and s must be nonnegative, got {counts}\n"


# name -> (subcommand, file text, error message) for each way a file can break its
# format; a line number counts every line of the file, comments and blank lines too.
# The negative toric counts and exponents are pinned by the two tests above.
FORMAT_ERRORS = {
    "matrix-empty": ("degree", "", "empty matrix file"),
    "matrix-header-width": ("degree", "2\n1 -1\n", "matrix file line 1: field count 1, expected 2"),
    "matrix-header-non-integer": ("degree", "2 x\n", "matrix file line 1: 'x' is not an integer"),
    "matrix-negative-dimensions": ("degree", "-1 2\n", "dimensions must be nonnegative, got -1 2"),
    "matrix-row-count": ("degree", "2 2\n1 -1\n", "expected 2 row lines, got 1"),
    "matrix-zero-columns-row-count": ("degree", "2 0\n1 -1\n", "expected 0 row lines, got 1"),
    "matrix-row-width": (
        "degree", "# m s\n1 2\n\n1 -1 0\n", "matrix file line 4: field count 3, expected 2"
    ),
    "matrix-non-integer": (
        "degree", "1 2\n1.0 -1\n", "matrix file line 2: '1.0' is not an integer"
    ),
    "exponent-empty": ("toric", "# only a comment\n", "empty exponent file"),
    "exponent-header-width": (
        "toric", "5 1\n1\n", "exponent file line 1: field count 2, expected 3"
    ),
    "exponent-header-non-integer": (
        "toric", "5 1 s\n", "exponent file line 1: 's' is not an integer"
    ),
    "exponent-row-count": ("toric", "5 1 2\n1\n", "expected 2 exponent rows, got 1"),
    "exponent-row-width": (
        "toric", "5 1 2\n1\n# next\n2 3\n", "exponent file line 4: field count 2, expected 1"
    ),
    "exponent-non-integer": (
        "toric", "5 1 1\n0x1\n", "exponent file line 2: '0x1' is not an integer"
    ),
    "exponent-no-rows": ("toric", "5 1 0\n", "need at least one exponent vector"),
    "graph-empty": ("sandpile", "\n  \n", "empty graph file"),
    "graph-header-width": ("sandpile", "3 3\n", "graph file line 1: field count 2, expected 1"),
    "graph-header-non-integer": (
        "sandpile", "three\n", "graph file line 1: 'three' is not an integer"
    ),
    "graph-negative-count": ("sandpile", "-2\n", "graph needs at least one vertex"),
    "graph-edge-width": ("sandpile", "3\n1 2 3\n", "graph file line 2: field count 3, expected 2"),
    "graph-non-integer": ("sandpile", "3\n1 2\n2 b\n", "graph file line 3: 'b' is not an integer"),
    "graph-edge-range": (
        "sandpile", "3\n1 4\n", "edge (1, 4) out of range for 3 vertices (1-indexed)"
    ),
    "graph-self-loop": ("sandpile", "3\n1 1\n", "graph file line 2: self-loop at vertex 1"),
    "graph-duplicate-edge": (
        "sandpile", "3\n1 2\n2 1\n", "graph file line 3: duplicate edge (2, 1)"
    ),
}


@pytest.mark.parametrize("name", sorted(FORMAT_ERRORS))
def test_format_errors_name_their_condition(name, write, capsys):
    command, text, message = FORMAT_ERRORS[name]
    assert run(capsys, command, write("bad.txt", text)) == (2, "", f"error: {message}\n")


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no digit limit")
@pytest.mark.parametrize(
    "parse, text, where",
    [
        (parse_matrix, "1 2\n" + "1" * 5000 + " -" + "1" * 5000, "matrix file line 2"),
        (parse_toric_spec, "5 1 1\n+" + "1_0" * 2200 + "\n", "exponent file line 2"),
        (parse_graph, "# s\n" + "9" * 4301 + "\n", "graph file line 2"),
    ],
    ids=["matrix", "exponent", "graph"],
)
def test_parsers_name_the_digit_limit(parse, text, where):
    with int_digit_limit(4300), pytest.raises(FormatError) as exc:
        parse(text)
    limit = "an integer has more digits than Python's limit of 4300 (sys.set_int_max_str_digits)"
    assert str(exc.value) == f"{where}: {limit}"


@pytest.mark.parametrize(
    "command, name", [("degree", "bad.mat"), ("toric", "bad.exp"), ("sandpile", "bad.graph")]
)
def test_non_utf8_input_exits_2(tmp_path, capsys, command, name):
    path = tmp_path / name
    path.write_bytes(b"\xff\xfe3 3\n")
    code, out, err = run(capsys, command, str(path))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {path}: not UTF-8 text")
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["degree", "data/example2.mat"],
    ["toric", "data/torus_q5.exp"],
    ["sandpile", "data/complete4.graph"],
], ids=["matrix", "exponent", "graph"])
def test_byte_order_mark_is_ignored(tmp_path, capsys, argv):
    command, name = argv
    path = tmp_path / Path(name).name
    path.write_bytes(b"\xef\xbb\xbf" + (ROOT / name).read_bytes())
    assert run(capsys, command, str(path)) == run(capsys, command, str(ROOT / name))


def test_byte_order_mark_keeps_decoding_offsets(tmp_path, capsys):
    path = tmp_path / "bad.mat"
    path.write_bytes(b"\xef\xbb\xbf3 3\n\xff\n")
    code, out, err = run(capsys, "degree", str(path))
    assert (code, out) == (2, "")
    assert err == f"error: {path}: not UTF-8 text (invalid start byte at byte 7)\n"


@pytest.mark.parametrize("key", sorted(CLI_PINS))
def test_output_matches_the_benchmark_pin(key, capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    code = main(key.split(" "))
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()[:16]
    assert [code, digest] == CLI_PINS[key]

"""Property tests of the CLI contract on arbitrary and near-valid input files.

Every subcommand is fed arbitrary bytes and text that is almost in its
file format (a header plus integer tokens).  Whatever the input, ``main``
must return exit status 0, 1 or 2 and raise nothing; the one exception
allowed is argparse's ``SystemExit(2)``.  A successful ``--json`` run
(``emit`` aside, which prints its script) must print valid JSON whose
integers all sit under the renderer's numeric keys.  Header values and
row counts are drawn from small ranges, and the oracle commands run
under a small budget patched into ``errors.DEFAULT_BUDGET``, so that
every example runs in milliseconds.  That budget bounds the matrix
reader too, but no drawn header asks for more than 42 cells, so it
refuses nothing there.  Every command's extra arguments must parse, or
each of its examples would end in argparse's usage error and test
nothing.
"""

import contextlib
import io
import json
import os
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from latdeg import errors
from latdeg.cli import _NUMERIC_KEYS, build_parser, main

FUZZ = settings(
    max_examples=40,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)

# subcommand -> (file format, extra arguments, errors.DEFAULT_BUDGET to patch in or None)
COMMANDS = {
    "snf": ("matrix", [], None),
    "hnf": ("matrix", [], None),
    "degree": ("matrix", [], None),
    "torsion": ("matrix", [], None),
    "hilbert": ("matrix", ["--max-degree", "6"], 300),
    "verify": ("matrix", [], 2000),
    "emit": ("matrix", [], None),
    "toric": ("exponent", [], 300),
    "sandpile": ("graph", [], None),
}

entry = st.one_of(st.integers(-3, 3), st.integers(-9, 9), st.integers(-(10**30), 10**30))
junk = st.sampled_from(["x", "1.5", "-", "#", "0x10", "1e3", "٣", "-1", "99999"])


def dimension(draw, lo, hi):
    """Mostly a size in [lo, hi]; now and then an out-of-range one."""
    return draw(st.integers(lo, hi)) if draw(st.integers(0, 7)) else draw(st.integers(-2, hi + 2))


def perturb(draw, lines):
    """Leave the file well-formed most of the time; else break one line."""
    kind = draw(st.integers(0, 7))
    if kind == 0 and len(lines) > 1:
        del lines[draw(st.integers(1, len(lines) - 1))]
    elif kind == 1:
        lines.append(draw(junk))
    elif kind == 2:
        k = draw(st.integers(0, len(lines) - 1))
        lines[k] = f"{lines[k]} {draw(junk)}"
    return "\n".join(lines) + "\n"


@st.composite
def matrix_text(draw):
    m, s = dimension(draw, 0, 4), dimension(draw, 0, 5)
    lines = [f"{m} {s}"]
    for _ in range(max(m, 0) if s > 0 else 0):
        row = draw(st.lists(entry, min_size=s - 1, max_size=s - 1))
        # a balanced last entry makes the row homogeneous, so the lattice
        # commands get past their homogeneity check
        row.append(-sum(row) if draw(st.integers(0, 5)) else draw(entry))
        lines.append(" ".join(map(str, row)))
    return perturb(draw, lines)


@st.composite
def exponent_text(draw):
    q = draw(st.sampled_from([-1, 0, 1, 2, 3, 4, 5, 7, 9, 11, 10**24]))
    n, s = dimension(draw, 1, 3), dimension(draw, 1, 4)
    lines = [f"{q} {n} {s}"]
    for _ in range(max(s, 0)):
        row = draw(st.lists(st.integers(-1, 12), min_size=max(n, 0), max_size=max(n, 0)))
        lines.append(" ".join(map(str, row)))
    return perturb(draw, lines)


@st.composite
def graph_text(draw):
    s = dimension(draw, 1, 6)
    lines = [str(s)]
    pairs = [(i, j) for i in range(1, s + 1) for j in range(i + 1, s + 1)]
    if pairs:
        edges = draw(st.sets(st.sampled_from(pairs), max_size=len(pairs)))
        lines += [f"{i} {j}" for i, j in sorted(edges)]
    return perturb(draw, lines)


NEAR_VALID = {"matrix": matrix_text(), "exponent": exponent_text(), "graph": graph_text()}


def run_cli(command: str, data: bytes, json_flag: bool) -> int:
    """Run ``main`` on ``data`` written to a file; the exit status or SystemExit(2)."""
    _format, extra, budget = COMMANDS[command]
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as patch:
        if budget is not None:
            patch.setattr(errors, "DEFAULT_BUDGET", budget)
        path = os.path.join(tmp, "input")
        with open(path, "wb") as fh:
            fh.write(data)
        argv = [command, path, *extra] + (["--json"] if json_flag else [])
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                assert exc.code == 2, exc.code
                code = 2
    assert code in (0, 1, 2), code
    if code:
        assert err.getvalue().startswith(("error: ", "usage: ")), err.getvalue()
    elif json_flag and command != "emit":
        assert_numbers_are_structural(None, json.loads(out.getvalue()))
    return code


def assert_numbers_are_structural(key, value):
    """Every int in a JSON payload sits under a numeric key; others are strings."""
    if isinstance(value, dict):
        for name, item in value.items():
            assert_numbers_are_structural(name, item)
    elif isinstance(value, list):
        for item in value:
            assert_numbers_are_structural(key, item)
    elif isinstance(value, int) and not isinstance(value, bool):
        assert key in _NUMERIC_KEYS, (key, value)


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_extra_arguments_parse(command):
    """argparse accepts each command's extra arguments, so the examples reach ``main``'s work."""
    _format, extra, _budget = COMMANDS[command]
    assert build_parser().parse_args([command, "input", *extra]).command == command


@pytest.mark.parametrize("command", sorted(COMMANDS))
@FUZZ
@given(data=st.binary(max_size=80), json_flag=st.booleans())
def test_arbitrary_bytes_keep_the_exit_contract(command, data, json_flag):
    run_cli(command, data, json_flag)


@pytest.mark.parametrize("command", sorted(COMMANDS))
@FUZZ
@given(data=st.data(), json_flag=st.booleans())
def test_near_valid_text_keeps_the_exit_contract(command, data, json_flag):
    text = data.draw(NEAR_VALID[COMMANDS[command][0]])
    run_cli(command, text.encode(), json_flag)

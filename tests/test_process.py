"""The CLI as a separate process: what it imports, and what it prints.

Each ``latdeg`` command runs in a fresh interpreter, so every module on
the import path of ``latdeg.cli`` is paid for by every invocation.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import latdeg.cli as cli
from latdeg.cli import main

ROOT = Path(__file__).resolve().parent.parent
ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def _python(*args):
    return subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=ENV, capture_output=True, text=True
    )


def _modules_after(statement):
    code = f"{statement}\nimport sys\nprint(' '.join(sys.modules))"
    proc = _python("-c", code)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


def test_cli_import_path_stays_light():
    bare = _modules_after("pass")
    added = _modules_after("import latdeg.cli") - bare
    assert "latdeg.cli" in added
    assert not added & {"dataclasses", "inspect", "json"}
    # The benchmark tracer wraps only latdeg modules already in sys.modules
    # when it installs, so ``import latdeg`` must put every layer there:
    # the oracle layers as lazy modules, which reading their ``__all__`` loads.
    layers = {f"latdeg.{name}" for name in ("intmat", "lattices", "hilbert", "applications",
                                            "errors")}
    assert layers <= _modules_after("import latdeg")


def test_package_reexports_each_layer_all():
    import latdeg
    from latdeg import applications, errors, hilbert, intmat, lattices

    layers = (intmat, lattices, hilbert, applications, errors)
    expected = ["__version__", *(name for layer in layers for name in layer.__all__)]
    assert len(set(expected)) == len(expected)
    assert sorted(latdeg.__all__) == sorted(expected)
    for layer in layers:
        for name in layer.__all__:
            assert getattr(latdeg, name) is getattr(layer, name), name
    namespace = {}
    exec("from latdeg import *", namespace)
    assert {name: namespace[name] for name in expected} == {
        name: getattr(latdeg, name) for name in expected
    }


def _layers_run(statement):
    """The lazy layers (``hilbert``, ``applications``) that ``statement`` ran, in a new process."""
    code = (f"{statement}\nimport sys, types\n"
            "print(*(name for name in ('hilbert', 'applications')\n"
            "        if type(sys.modules['latdeg.' + name]) is types.ModuleType))")
    proc = _python("-c", code)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


def _command(*argv):
    return ("import contextlib, io\nfrom latdeg.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert main({list(argv)!r}) == 0")


@pytest.mark.parametrize("statement, ran", [
    ("import latdeg", []),
    ("import latdeg.cli", []),
    # the import system asks the package for ``cli`` before importing it
    ("from latdeg import cli", []),
    # the budget lives in ``errors``, which ``import latdeg`` runs anyway
    ("import latdeg\nlatdeg.errors.DEFAULT_BUDGET", []),
    (_command("snf", "data/example1.mat"), []),
    (_command("degree", "data/example2.mat"), []),
    (_command("emit", "data/example2.mat"), []),
    (_command("hilbert", "data/example2.mat"), ["hilbert"]),
    (_command("verify", "data/example2.mat"), ["hilbert"]),
    (_command("toric", "data/torus_q5.exp"), ["applications"]),
    (_command("sandpile", "data/complete4.graph"), ["applications"]),
], ids=["import latdeg", "import latdeg.cli", "from latdeg import cli",
        "latdeg.errors.DEFAULT_BUDGET", "snf", "degree", "emit", "hilbert", "verify", "toric",
        "sandpile"])
def test_only_the_layers_a_caller_uses_run(statement, ran):
    assert _layers_run(statement) == ran


def test_package_reads_lazy_names_from_their_layer(monkeypatch):
    import latdeg
    from latdeg import hilbert

    def stub(*args, **kwargs):
        raise AssertionError("not called")

    monkeypatch.setattr(hilbert, "verify_degree", stub)
    assert latdeg.verify_degree is stub
    monkeypatch.undo()
    assert latdeg.verify_degree is hilbert.verify_degree
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        latdeg.no_such_name


def test_the_budget_has_one_name():
    import latdeg

    # a package copy would be a second binding that no refusal reads
    assert not hasattr(latdeg, "DEFAULT_BUDGET")
    assert "DEFAULT_BUDGET" not in latdeg.__all__
    assert latdeg.errors.DEFAULT_BUDGET == 2_000_000
    with pytest.raises(TypeError):
        latdeg.BudgetExceeded(3, 2)


def test_every_refusal_reads_the_one_budget_whatever_loaded_first(tmp_path):
    # load every layer that refuses, and only then set the budget
    matrix = tmp_path / "square.mat"
    matrix.write_text("4 4\n" + "1 -1 0 0\n" * 4)
    code = f"""\
import latdeg.cli
from latdeg import applications, errors, hilbert
hilbert.verify_degree, applications.spanning_tree_count
errors.DEFAULT_BUDGET = 10
text = lambda path: open(path, encoding="utf-8").read()
for call in [
    lambda: hilbert.verify_degree(
        latdeg.HomogeneousLattice(latdeg.parse_matrix(text("data/example2.mat")))),
    lambda: applications.check_vanishing_degree(
        applications.parse_toric_spec(text("data/torus_q5.exp"))),
    lambda: applications.check_sandpile_degree(
        applications.parse_graph(text("data/complete4.graph"))),
]:
    try:
        print(call())
    except errors.BudgetExceeded as exc:
        print(exc)
print(latdeg.cli.main(["snf", {str(matrix)!r}]))
"""
    proc = _python("-c", code)
    assert proc.stdout.splitlines() == [
        "coset search work 270 exceeds budget 10",
        "parameter grid size at least 16 exceeds budget 10",
        "edge subset count at least 15 exceeds budget 10",
        "1",
    ], proc.stderr
    assert proc.stderr == "error: BudgetExceeded: matrix cell count 16 exceeds budget 10\n"

def _usage_cases():
    cases = [[], ["--help"], ["--version"], ["frobnicate", "data/example2.mat"]]
    for name in cli._COMMANDS:
        cases += [[name, "--help"], [name], [name, "data/example2.mat", "--bogus"]]
    return cases + [["emit", "data/example2.mat", "--format", "tex"],
                    ["verify", "data/example2.mat", "--budget", "0"],
                    ["hilbert", "data/example2.mat", "--max-degree", "-1"]]


def _exit(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    return exc.value.code, captured.out, captured.err


@pytest.mark.parametrize("argv", _usage_cases(),
                         ids=lambda argv: " ".join(argv) or "no arguments")
def test_one_subparser_prints_what_all_of_them_print(argv, capsys, monkeypatch):
    built = []
    build = cli.build_parser

    def recording_build(names=tuple(cli._COMMANDS)):
        built.append(list(names))
        return build(names)

    monkeypatch.setattr(cli, "build_parser", recording_build)
    one = _exit(capsys, argv)
    assert built == [argv[:1] if argv and argv[0] in cli._COMMANDS else list(cli._COMMANDS)]
    monkeypatch.setattr(cli, "build_parser", lambda *names: build())
    assert _exit(capsys, argv) == one


CASES = [
    ["snf", "data/example1.mat"],
    ["hnf", "data/example2.mat"],
    ["degree", "data/example2.mat"],
    ["degree", "data/example3.mat"],
    ["torsion", "data/example1.mat"],
    ["hilbert", "data/example2.mat", "--max-degree", "30"],
    ["verify", "data/example2.mat", "--json"],
    ["toric", "data/torus_q5.exp"],
    ["sandpile", "data/complete4.graph"],
    ["emit", "data/example2.mat", "--format", "maple"],
]


# ``-S`` skips site-packages: the runtime needs the standard library only
RUNS = [([], argv) for argv in CASES] + [(["-S"], argv) for argv in CASES]


@pytest.mark.parametrize("flags, argv", RUNS, ids=[" ".join(f + a) for f, a in RUNS])
def test_process_output_equals_in_process_main(flags, argv, capsys, monkeypatch):
    proc = _python(*flags, "-m", "latdeg.cli", *argv)
    monkeypatch.chdir(ROOT)
    code = main(argv)
    assert (proc.returncode, proc.stdout) == (code, capsys.readouterr().out)


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv", [
    ["degree", "data/example2.mat"],  # fits the buffer: written at the final flush
    ["hilbert", "data/example2.mat", "--max-degree", "2000"],  # overflows it: written early
], ids=["small", "large"])
def test_closed_stdout_exits_1_quietly(argv, unbuffered):
    env = {key: value for key, value in ENV.items() if key != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "latdeg.cli", *argv], cwd=ROOT, env=env,
                              stdout=write_end, stderr=subprocess.PIPE, text=True)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (1, "")

"""The CLI as a separate process: what it imports, and what it prints.

Each ``latdeg`` command runs in a fresh interpreter, so every module on
the import path of ``latdeg.cli`` is paid for by every invocation.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

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
    # when it installs, so a submodule imported lazily would go unwrapped.
    # ``import latdeg`` must therefore keep loading every layer eagerly.
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

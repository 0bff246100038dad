"""Command-line front end.

Subcommands map onto the library one-to-one.  Each builds its report
once, and one renderer prints it as text or, under ``--json``, as JSON
in which unbounded integers are decimal strings; ``emit`` prints its
script either way.  Exit status: 0 on success, 1 when the inputs are
outside an operation's mathematical domain or when standard output is
closed before the report is written, 2 on usage or parse errors.
Integers of any length are read from files and written: ``main`` lifts
Python's limit on their decimal digits while it runs.  Each command is
a fresh process that pays for every module it imports and every parser
it builds.  So :mod:`json` is imported only when ``--json`` output is
written; the handlers call ``hilbert`` and ``applications`` through
their lazy modules, which only the commands that use them load; and
``main`` builds the subparser of the command it runs, not all nine.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Sequence

from . import __version__, applications, hilbert
from ._record import Record
from .errors import DEFAULT_BUDGET, BudgetExceeded, DomainError, FormatError
from .intmat import ZMatrix, format_matrix, hermite_basis, parse_matrix, smith_invariants
from .lattices import HomogeneousLattice

__all__ = ["main", "build_parser", "emit_cas_script"]


def emit_cas_script(lattice: HomogeneousLattice, fmt: str = "macaulay2") -> str:
    """Script text for an external computer-algebra cross-check.

    ``macaulay2``: build the binomial ideal from the generator rows
    (positive part minus negative part of each row), saturate it by the
    product of the variables, and ask for the degree.  ``maple``: feed
    the generator matrix to SmithForm.  The artifact never executes
    these; they exist so a human can cross-validate with independent
    software.  A lattice in Z^0 has no variables to write a script in,
    so it is refused.
    """
    if lattice.ambient_dim == 0:
        raise DomainError("ambient dimension is 0; a script needs a lattice in Z^s with s >= 1")
    if fmt == "macaulay2":
        return _macaulay2_script(lattice)
    if fmt == "maple":
        return _maple_script(lattice)
    raise ValueError(f"unknown script format {fmt!r}")


def _monomial(parts: list[tuple[int, int]]) -> str:
    if not parts:
        return "1"
    return "*".join(f"t{i + 1}^{e}" if e > 1 else f"t{i + 1}" for i, e in parts)


def _macaulay2_script(lattice: HomogeneousLattice) -> str:
    s = lattice.ambient_dim
    variables = ",".join(f"t{i + 1}" for i in range(s))
    binomials = []
    for k in range(lattice.generators.rows):
        row = lattice.generators.row(k)
        plus = [(i, x) for i, x in enumerate(row) if x > 0]
        minus = [(i, -x) for i, x in enumerate(row) if x < 0]
        if not plus and not minus:
            continue
        binomials.append(f"{_monomial(plus)}-{_monomial(minus)}")
    generators = ",".join(binomials) if binomials else "0_S"
    h = "*".join(f"t{i + 1}" for i in range(s))
    return (
        f"S=QQ[{variables}]\n"
        f"Q=ideal({generators})\n"
        f"saturate(Q,{h})\n"
        f"degree saturate(Q,{h})\n"
    )


def _maple_script(lattice: HomogeneousLattice) -> str:
    rows = lattice.generators.to_rows()
    if rows:
        body = "; ".join(",".join(str(x) for x in row) for row in rows)
        matrix = f"A:=<{body}>:"
    else:
        matrix = f"A:=Matrix(0,{lattice.ambient_dim}):"
    return f"with(LinearAlgebra):\n{matrix}\nSmithForm(A);\n"


# JSON keys whose integers stay numbers: sizes, ranks and degree indices.
# Any other integer may be unbounded, so it is written as a decimal string.
_NUMERIC_KEYS = frozenset(("rows", "cols", "rank", "ambient_dim", "regularity_upper_bound",
                           "regularity_bound", "stabilization_degree", "observed_stabilization",
                           "krull_dim_estimate"))


def _json_value(key: str, value):
    """``value`` as JSON under ``key``, recursing through lists and records."""
    if isinstance(value, (tuple, list)):
        return [_json_value(key, item) for item in value]
    if isinstance(value, Record):
        return {name: _json_value(name, getattr(value, name)) for name in value._fields}
    return str(value) if type(value) is int and key not in _NUMERIC_KEYS else value


def _json_object(fields: list) -> dict:
    return {key: _json_value(key, value) for key, _label, value in fields if key is not None}


def _render(fields: list, as_json: bool) -> None:
    """Print a report of ``(JSON key, text label, value)`` fields, in order.

    A field without a key is text only, one without a label JSON only, and
    one with neither a block of text.  Text prints ``label value`` lines.
    """
    if as_json:
        import json  # here, not at the top: text output does not need it
        print(json.dumps(_json_object(fields), indent=2))
        return
    for key, label, value in fields:
        if isinstance(value, bool):
            value = "true" if value else "false"
        elif isinstance(value, tuple):
            value = " ".join(map(str, value))
        if label is not None:
            print(label, value)
        elif key is None:
            sys.stdout.write(value)


def _record_fields(record: Record) -> list:
    """A report record's fields, keyed by name and labelled with the name spaced out."""
    return [(key, key.replace("_", " "), getattr(record, key)) for key in record._fields]


def _summary_fields(lattice: HomogeneousLattice) -> list:
    corank_one = lattice.rank == lattice.ambient_dim - 1
    return [
        ("ambient_dim", None, lattice.ambient_dim),
        ("rank", None, lattice.rank),
        ("invariant_factors", None, lattice.invariant_factors),
        ("torsion_order", None, lattice.torsion_structure().order),
        ("degree", None, lattice.degree() if corank_one else None),
        ("regularity_upper_bound", None, lattice.regularity_upper_bound() if corank_one else None),
    ]


def _read_text(path: str) -> str:
    """The text of ``path``, without a leading UTF-8 byte-order mark.

    The mark is dropped after decoding, not by the ``utf-8-sig`` codec,
    which would count the byte offset of a decoding error from after it.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return fh.read().removeprefix("\ufeff")
        except UnicodeDecodeError as exc:
            raise FormatError(
                f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})"
            ) from None


def _read_matrix(path: str) -> ZMatrix:
    """The matrix in ``path``, refused past ``DEFAULT_BUDGET`` cells.

    A zero-column header needs no row lines, yet sets a row count that
    every command walks, so each row counts as at least one cell.
    """
    a = parse_matrix(_read_text(path))
    cells = a.rows * max(a.cols, 1)
    if cells > DEFAULT_BUDGET:
        raise BudgetExceeded(cells, DEFAULT_BUDGET, "matrix cell count")
    return a


def _read_lattice(path: str) -> HomogeneousLattice:
    return HomogeneousLattice(_read_matrix(path))


def _cmd_snf(args) -> list:
    a = _read_matrix(args.input)
    factors = smith_invariants(a)
    return [("rows", None, a.rows), ("cols", None, a.cols), ("rank", "rank", len(factors)),
            ("invariant_factors", "invariant factors", factors)]


def _cmd_hnf(args) -> list:
    a = _read_matrix(args.input)
    basis = hermite_basis(a)
    h = ZMatrix.from_rows(basis.to_rows() + [[0] * a.cols] * (a.rows - basis.rows), cols=a.cols)
    return [("rank", "rank", basis.rows), ("h", None, h.to_rows()), (None, None, format_matrix(h))]


def _cmd_degree(args) -> list:
    lattice = _read_lattice(args.input)
    # the degree first: it refuses a rank other than s-1, in JSON too
    return [(None, "degree", lattice.degree()), *_summary_fields(lattice)]


def _cmd_torsion(args) -> list:
    lattice = _read_lattice(args.input)
    torsion = lattice.torsion_structure()
    return [
        (None, "torsion order", torsion.order),
        (None, "cyclic factors", torsion.cyclic_factors or "none"),
        (None, "free rank", torsion.free_rank),
        *_summary_fields(lattice),
    ]


def _cmd_hilbert(args) -> list:
    lattice = _read_lattice(args.input)
    profile = hilbert.hilbert_profile(lattice, args.max_degree, budget=args.budget)
    fields = [(None, d, value) for d, value in enumerate(profile.values)]
    if profile.degree_estimate is None:
        fields.append((None, "no constant finite difference up to degree", args.max_degree))
    else:
        stab = "values still growing"
        if profile.stabilization_degree is not None:
            stab = f"values constant from degree {profile.stabilization_degree}"
        order = profile.krull_dim_estimate - 1
        estimate = f"{profile.degree_estimate} (difference order {order}); {stab}"
        fields.append((None, "degree estimate", estimate))
    return fields + [(key, None, getattr(profile, key)) for key in profile._fields]


def _cmd_verify(args) -> list:
    return _record_fields(hilbert.verify_degree(_read_lattice(args.input), budget=args.budget))


def _cmd_toric(args) -> list:
    spec = applications.parse_toric_spec(_read_text(args.input))
    vanishing = applications.check_vanishing_degree(spec, budget=args.budget)
    ci = applications.ci_hypothesis_check(spec)
    fields = [
        *_record_fields(vanishing),
        ("ci", None, ci),
        (None, "q-1 prime", ci.q_minus_1_prime),
        (None, "exponents distinct mod q-1", ci.exponents_distinct_mod),
        (None, "torsion is a (q-1)-power", ci.torsion_is_power),
        (None, "ci criterion applies", ci.corollary_applies),
    ]
    if ci.predicted_generators:
        fields.append((None, "predicted generators", ci.predicted_generators))
    return fields


def _cmd_sandpile(args) -> list:
    graph = applications.parse_graph(_read_text(args.input))
    return _record_fields(applications.check_sandpile_degree(graph))


def _cmd_emit(args) -> None:
    sys.stdout.write(emit_cas_script(_read_lattice(args.input), args.format))


# name: (handler, help, input help, options past "input" and "--json")
_COMMANDS = {
    "snf": (_cmd_snf, "Smith normal form of a matrix", "matrix file", ()),
    "hnf": (_cmd_hnf, "Hermite normal form of a matrix", "matrix file", ()),
    "degree": (_cmd_degree, "degree of the lattice ideal (rank s-1 only)", "matrix file", ()),
    "torsion": (_cmd_torsion, "torsion structure of Z^s modulo the lattice", "matrix file", ()),
    "hilbert": (_cmd_hilbert, "coset-counting function of the lattice", "matrix file",
                ("--budget", "--max-degree")),
    "verify": (_cmd_verify, "cross-check the degree against the coset counter", "matrix file",
               ("--budget",)),
    "toric": (_cmd_toric, "degree vs point count for a parameterized projective set",
              "exponent file", ("--budget",)),
    "sandpile": (_cmd_sandpile, "degree vs spanning trees of a graph", "graph file", ()),
    "emit": (_cmd_emit, "emit a script for external cross-validation", "matrix file",
             ("--format",)),
}

_OPTIONS = {
    "--budget": {"type": int, "default": DEFAULT_BUDGET,
                 "help": "enumeration budget (default %(default)s)"},
    "--max-degree": {"type": int, "default": 12,
                     "help": "largest degree to count (default %(default)s)"},
    "--format": {"choices": ("macaulay2", "maple"), "default": "macaulay2",
                 "help": "target computer-algebra system (default %(default)s)"},
}


def build_parser(names: Sequence[str] = tuple(_COMMANDS)) -> argparse.ArgumentParser:
    """The top-level parser with the subcommand parsers of ``names`` only.

    Each subparser costs its build time in every process, so ``main``
    builds just the one its first argument names.  The usage line lists
    every subcommand either way; with all of them built it is left to
    argparse, so that an unknown one is refused as ``argument command``.
    """
    parser = argparse.ArgumentParser(
        prog="latdeg",
        description=(
            "Degrees of graded lattice ideals of dimension one via integer "
            "linear algebra, with brute-force cross-checks."
        ),
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    metavar = None if len(names) == len(_COMMANDS) else "{" + ",".join(_COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in names:
        func, help_text, input_help, options = _COMMANDS[name]
        p = sub.add_parser(name, help=help_text)
        p.add_argument("input", help=input_help)
        p.add_argument("--json", action="store_true", help="machine-readable output")
        for option in options:
            p.add_argument(option, **_OPTIONS[option])
        p.set_defaults(func=func)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser(argv[:1]) if argv and argv[0] in _COMMANDS else build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "budget", 1) < 1:
        parser.error("--budget must be at least 1")
    if getattr(args, "max_degree", 0) < 0:
        parser.error("--max-degree must be nonnegative")
    # integers are unbounded: lift Python's limit on their decimal digits
    # (0 where there is none) for this run, and give the caller theirs back
    saved = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if saved:
        sys.set_int_max_str_digits(0)
    try:
        report = args.func(args)
        if report is not None:
            _render(report, args.json)
        sys.stdout.flush()  # a closed reader shows up here, not at exit
        return 0
    except BrokenPipeError:
        # the reader is gone; send the flush at exit to devnull and fail quietly
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except DomainError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except (FormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if saved:
            sys.set_int_max_str_digits(saved)


if __name__ == "__main__":
    sys.exit(main())

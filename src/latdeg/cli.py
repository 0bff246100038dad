"""Command-line front end.

Subcommands map onto the library one-to-one; ``--json`` switches every
command to machine-readable output in which unbounded integers are
decimal strings.  Exit status: 0 on success, 1 when the inputs are
outside an operation's mathematical domain, 2 on usage or parse errors.
Each command is a fresh process that pays for every module it imports,
so :mod:`json` is imported only when ``--json`` output is written.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from . import __version__
from .applications import (
    GraphSpec,
    check_sandpile_degree,
    check_vanishing_degree,
    ci_hypothesis_check,
    parse_graph,
    parse_toric_spec,
)
from .errors import DomainError, FormatError
from .hilbert import DEFAULT_BUDGET, hilbert_profile, verify_degree
from .intmat import ZMatrix, format_matrix, hermite_basis, parse_matrix, smith_invariants
from .lattices import HomogeneousLattice

__all__ = ["main", "build_parser", "emit_cas_script", "lattice_summary"]


def emit_cas_script(lattice: HomogeneousLattice, fmt: str = "macaulay2") -> str:
    """Script text for an external computer-algebra cross-check.

    ``macaulay2``: build the binomial ideal from the generator rows
    (positive part minus negative part of each row), saturate it by the
    product of the variables, and ask for the degree.  ``maple``: feed
    the generator matrix to SmithForm.  The artifact never executes
    these; they exist so a human can cross-validate with independent
    software.
    """
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


def lattice_summary(lattice: HomogeneousLattice) -> dict:
    """The JSON report shared by the degree and torsion subcommands."""
    corank_one = lattice.rank == lattice.ambient_dim - 1
    torsion = lattice.torsion_structure()
    return {
        "ambient_dim": lattice.ambient_dim,
        "rank": lattice.rank,
        "invariant_factors": [str(f) for f in lattice.invariant_factors],
        "torsion_order": str(torsion.order),
        "degree": str(lattice.degree()) if corank_one else None,
        "regularity_upper_bound": lattice.regularity_upper_bound() if corank_one else None,
    }


def _read_text(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise FormatError(
                f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})"
            ) from None


def _read_lattice(path: str) -> HomogeneousLattice:
    return HomogeneousLattice(parse_matrix(_read_text(path)))


def _emit(payload: dict) -> int:
    import json  # here, not at the top: text output does not need it

    print(json.dumps(payload, indent=2))
    return 0


def _cmd_snf(args) -> int:
    a = parse_matrix(_read_text(args.input))
    factors = smith_invariants(a)
    if args.json:
        return _emit(
            {
                "rows": a.rows,
                "cols": a.cols,
                "rank": len(factors),
                "invariant_factors": [str(f) for f in factors],
            }
        )
    print(f"rank {len(factors)}")
    print("invariant factors " + " ".join(str(f) for f in factors))
    return 0


def _cmd_hnf(args) -> int:
    a = parse_matrix(_read_text(args.input))
    basis = hermite_basis(a)
    h = ZMatrix.from_rows(basis.to_rows() + [[0] * a.cols] * (a.rows - basis.rows), cols=a.cols)
    if args.json:
        return _emit(
            {
                "rank": basis.rows,
                "h": [[str(x) for x in h.row(i)] for i in range(h.rows)],
            }
        )
    print(f"rank {basis.rows}")
    sys.stdout.write(format_matrix(h))
    return 0


def _cmd_degree(args) -> int:
    lattice = _read_lattice(args.input)
    deg = lattice.degree()
    if args.json:
        return _emit(lattice_summary(lattice))
    print(f"degree {deg}")
    return 0


def _cmd_torsion(args) -> int:
    lattice = _read_lattice(args.input)
    torsion = lattice.torsion_structure()
    if args.json:
        return _emit(lattice_summary(lattice))
    print(f"torsion order {torsion.order}")
    print(
        "cyclic factors "
        + (" ".join(str(f) for f in torsion.cyclic_factors) if torsion.cyclic_factors else "none")
    )
    print(f"free rank {torsion.free_rank}")
    return 0


def _cmd_hilbert(args) -> int:
    lattice = _read_lattice(args.input)
    profile = hilbert_profile(lattice, args.max_degree, budget=args.budget)
    if args.json:
        return _emit(
            {
                "values": [str(v) for v in profile.values],
                "stabilization_degree": profile.stabilization_degree,
                "degree_estimate": (
                    str(profile.degree_estimate) if profile.degree_estimate is not None else None
                ),
                "krull_dim_estimate": profile.krull_dim_estimate,
            }
        )
    for d, value in enumerate(profile.values):
        print(f"{d} {value}")
    if profile.degree_estimate is not None:
        stab = (
            f"values constant from degree {profile.stabilization_degree}"
            if profile.stabilization_degree is not None
            else "values still growing"
        )
        print(
            f"degree estimate {profile.degree_estimate} "
            f"(difference order {profile.krull_dim_estimate - 1}); {stab}"
        )
    else:
        print(f"no constant finite difference up to degree {args.max_degree}")
    return 0


def _cmd_verify(args) -> int:
    lattice = _read_lattice(args.input)
    check = verify_degree(lattice, budget=args.budget)
    if args.json:
        return _emit(
            {
                "snf_degree": str(check.snf_degree),
                "oracle_degree": str(check.oracle_degree),
                "regularity_bound": check.regularity_bound,
                "observed_stabilization": check.observed_stabilization,
                "agree": check.agree,
            }
        )
    print(f"snf degree {check.snf_degree}")
    print(f"oracle degree {check.oracle_degree}")
    print(f"regularity bound {check.regularity_bound}")
    print(f"observed stabilization {check.observed_stabilization}")
    print(f"agree {str(check.agree).lower()}")
    return 0


def _cmd_toric(args) -> int:
    spec = parse_toric_spec(_read_text(args.input))
    vanishing = check_vanishing_degree(spec, budget=args.budget)
    ci = ci_hypothesis_check(spec)
    if args.json:
        return _emit(
            {
                "lattice_degree": str(vanishing.lattice_degree),
                "point_count": str(vanishing.point_count),
                "agree": vanishing.agree,
                "ci": {
                    "q_minus_1_prime": ci.q_minus_1_prime,
                    "exponents_distinct_mod": ci.exponents_distinct_mod,
                    "torsion_is_power": ci.torsion_is_power,
                    "corollary_applies": ci.corollary_applies,
                    "predicted_generators": ci.predicted_generators,
                },
            }
        )
    print(f"lattice degree {vanishing.lattice_degree}")
    print(f"point count {vanishing.point_count}")
    print(f"agree {str(vanishing.agree).lower()}")
    print(f"q-1 prime {str(ci.q_minus_1_prime).lower()}")
    print(f"exponents distinct mod q-1 {str(ci.exponents_distinct_mod).lower()}")
    print(f"torsion is a (q-1)-power {str(ci.torsion_is_power).lower()}")
    print(f"ci criterion applies {str(ci.corollary_applies).lower()}")
    if ci.predicted_generators:
        print(f"predicted generators {ci.predicted_generators}")
    return 0


def _cmd_sandpile(args) -> int:
    graph = parse_graph(_read_text(args.input))
    check = check_sandpile_degree(graph)
    if args.json:
        return _emit(
            {
                "degree": str(check.degree),
                "spanning_trees": str(check.spanning_trees),
                "reduced_laplacian_det": str(check.reduced_laplacian_det),
                "agree": check.agree,
            }
        )
    print(f"degree {check.degree}")
    print(f"spanning trees {check.spanning_trees}")
    print(f"reduced laplacian det {check.reduced_laplacian_det}")
    print(f"agree {str(check.agree).lower()}")
    return 0


def _cmd_emit(args) -> int:
    lattice = _read_lattice(args.input)
    sys.stdout.write(emit_cas_script(lattice, args.format))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="latdeg",
        description=(
            "Degrees of graded lattice ideals of dimension one via integer "
            "linear algebra, with brute-force cross-checks."
        ),
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text, input_help, budget=False, max_degree=False, fmt=False):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("input", help=input_help)
        p.add_argument("--json", action="store_true", help="machine-readable output")
        if budget:
            p.add_argument(
                "--budget",
                type=int,
                default=DEFAULT_BUDGET,
                help="enumeration budget (default %(default)s)",
            )
        if max_degree:
            p.add_argument(
                "--max-degree",
                type=int,
                default=12,
                dest="max_degree",
                help="largest degree to count (default %(default)s)",
            )
        if fmt:
            p.add_argument(
                "--format",
                choices=("macaulay2", "maple"),
                default="macaulay2",
                help="target computer-algebra system (default %(default)s)",
            )
        p.set_defaults(func=func)
        return p

    add("snf", _cmd_snf, "Smith normal form of a matrix", "matrix file")
    add("hnf", _cmd_hnf, "Hermite normal form of a matrix", "matrix file")
    add("degree", _cmd_degree, "degree of the lattice ideal (rank s-1 only)", "matrix file")
    add("torsion", _cmd_torsion, "torsion structure of Z^s modulo the lattice", "matrix file")
    add(
        "hilbert",
        _cmd_hilbert,
        "coset-counting function of the lattice",
        "matrix file",
        budget=True,
        max_degree=True,
    )
    add(
        "verify",
        _cmd_verify,
        "cross-check the degree against the coset counter",
        "matrix file",
        budget=True,
    )
    add(
        "toric",
        _cmd_toric,
        "degree vs point count for a parameterized projective set",
        "exponent file",
        budget=True,
    )
    add("sandpile", _cmd_sandpile, "degree vs spanning trees of a graph", "graph file")
    add(
        "emit",
        _cmd_emit,
        "emit a script for external cross-validation",
        "matrix file",
        fmt=True,
    )
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "budget", 1) < 1:
        parser.error("--budget must be at least 1")
    if getattr(args, "max_degree", 0) < 0:
        parser.error("--max-degree must be nonnegative")
    try:
        return args.func(args)
    except DomainError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except FormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""Command-line interface.

Every pipeline of the library is reachable from here: inertia reports for
matrices and relations, block completions, extremal extensions of a
symmetric column, liftings, Cayley transforms, Friedrichs / Krein-von
Neumann extensions, and the randomized property verifier.

Exit codes: 0 success, 1 verification failure (an identity the theory
mandates fails numerically, or the eigensolver fails), 2 mathematically
infeasible (a criterion fails for the given data), 3 invalid input.  The
environment variable ``KREINKIT_TOL`` overrides the default
zero-classification threshold; per-command ``--tol`` takes precedence.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict

import numpy as np

from . import jsonio
from .completion import IncompleteBlock, is_solution, minimal_completion
from .errors import (
    ConsistencyError,
    EigenSolverError,
    InvalidInput,
    KreinkitError,
    NotAnExtension,
    NotCompletable,
    NotSolvable,
)
from .factor import JSpace
from .lifting import LiftParameters, defect_data, lift
from .quasicontraction import (
    SymmetricColumn,
    extremal_extensions,
    is_member,
)
from .relations import (
    classify,
    ext_membership,
    friedrichs_krein,
    relation_inertia,
)
from .spectral import as_symmetric, inertia_of
from .tolerances import ToleranceProfile, default_tolerances, set_default_tolerances

# verify.available_suites(), named here so that only the verify command loads verify
_SUITES = ("completion", "factor", "lifting", "quasicontraction", "relations", "all")

EXIT_OK = 0
EXIT_VERIFICATION_FAILED = 1
EXIT_INFEASIBLE = 2
EXIT_INVALID_INPUT = 3


def _emit(report: dict) -> None:
    print(json.dumps(report, indent=2, sort_keys=True))


def _tolerances(args) -> ToleranceProfile:
    base = default_tolerances()
    zero = getattr(args, "tol", None)
    if zero is None:
        return base
    return ToleranceProfile(
        zero=zero, psd=base.psd, residual=base.residual, subspace=base.subspace
    )


def _load_any(path: str, tol: ToleranceProfile):
    doc = jsonio.load_json(path)
    if isinstance(doc, dict) and "generators" in doc:
        return "relation", jsonio.parse_relation(doc, tol)
    return "matrix", jsonio.parse_matrix(doc)


def _inertia_document(rel, tol) -> dict:
    """A selfadjoint relation's inertia under the matrix report's ``n_*`` keys."""
    counts = relation_inertia(rel, tol)
    return {f"n_{k}": getattr(counts, f"i_{k}") for k in ("plus", "minus", "zero", "inf")}


def _cmd_inertia(args) -> int:
    tol = _tolerances(args)
    kind, value = _load_any(args.path, tol)
    if kind == "relation" and not classify(value, tol).selfadjoint:
        print("the relation is not selfadjoint; its inertia is undefined", file=sys.stderr)
        return EXIT_INFEASIBLE
    _emit(asdict(inertia_of(as_symmetric(value, tol), tol)) if kind == "matrix"
          else _inertia_document(value, tol))
    return EXIT_OK


def _cmd_complete(args) -> int:
    tol = _tolerances(args)
    blk = IncompleteBlock(jsonio.load_matrix(args.a11), jsonio.load_matrix(args.a12))
    try:
        sol = minimal_completion(blk, tol)
    except NotCompletable as exc:
        _emit({"completable": False, "residual": float(exc.residual)})
        return EXIT_INFEASIBLE
    report = {
        "completable": True,
        "s": jsonio.matrix_document(sol.s),
        "j": jsonio.matrix_document(sol.j),
        "a22_min": jsonio.matrix_document(sol.a22_min),
        "kappa": sol.kappa,
    }
    if args.with_a22 is not None:
        candidate = jsonio.load_matrix(args.with_a22)
        report["solution"] = bool(is_solution(blk, candidate, tol))
    _emit(report)
    return EXIT_OK


def _cmd_extremes(args) -> int:
    tol = _tolerances(args)
    col = SymmetricColumn(jsonio.load_matrix(args.t11), jsonio.load_matrix(args.t21))
    try:
        pair = extremal_extensions(col, tol)
    except NotSolvable as exc:
        _emit({
            "solvable": False,
            "nu_minus_head": exc.nu_minus_head,
            "nu_minus_column": exc.nu_minus_column,
        })
        return EXIT_INFEASIBLE
    _emit({
        "solvable": True,
        "t_min": jsonio.matrix_document(pair.t_min),
        "t_max": jsonio.matrix_document(pair.t_max),
        "kappa": pair.kappa,
        "kappa_plus": pair.kappa_plus,
        "kappa_minus": pair.kappa_minus,
        "unique": pair.unique(tol),
    })
    return EXIT_OK


def _cmd_check_interval(args) -> int:
    tol = _tolerances(args)
    col = SymmetricColumn(jsonio.load_matrix(args.t11), jsonio.load_matrix(args.t21))
    candidate = as_symmetric(jsonio.load_matrix(args.t), tol)
    try:
        pair = extremal_extensions(col, tol)
    except NotSolvable:
        _emit({"solvable": False, "member": False})
        return EXIT_INFEASIBLE
    verdict = is_member(pair, candidate, tol)
    _emit({"solvable": True, "member": bool(verdict)})
    return EXIT_OK


def _cmd_lift(args) -> int:
    tol = _tolerances(args)
    t = jsonio.load_matrix(args.t)
    n2, n1 = t.shape
    j1 = JSpace.from_matrix(jsonio.load_matrix(args.j1)) if args.j1 else JSpace.identity(n1)
    j2 = JSpace.from_matrix(jsonio.load_matrix(args.j2)) if args.j2 else JSpace.identity(n2)
    data = defect_data(t, j1, j2, tol)
    gamma1 = jsonio.load_matrix(args.gamma1) if args.gamma1 else None
    gamma2 = jsonio.load_matrix(args.gamma2) if args.gamma2 else None
    gamma = jsonio.load_matrix(args.gamma) if args.gamma else None
    n1p = (
        gamma1.shape[1] if gamma1 is not None
        else (gamma.shape[1] if gamma is not None else args.exit_dim)
    )
    n2p = (
        gamma2.shape[0] if gamma2 is not None
        else (gamma.shape[0] if gamma is not None else args.exit_dim)
    )
    j1p = JSpace.from_matrix(jsonio.load_matrix(args.j1p)) if args.j1p else JSpace.identity(n1p)
    j2p = JSpace.from_matrix(jsonio.load_matrix(args.j2p)) if args.j2p else JSpace.identity(n2p)
    params = LiftParameters(
        gamma1 if gamma1 is not None else np.zeros((n2, j1p.dim)),
        gamma2 if gamma2 is not None else np.zeros((j2p.dim, n1)),
        gamma if gamma is not None else np.zeros((j2p.dim, j1p.dim)),
    )
    lifted = lift(data, params, j1p, j2p, tol)
    _emit({
        "lift": jsonio.matrix_document(lifted),
        "kappa1": data.kappa1,
        "kappa2": data.kappa2,
        "kappa1_extended": data.kappa1 - j2p.negativity(tol),
        "kappa2_extended": data.kappa2 - j1p.negativity(tol),
    })
    return EXIT_OK


def _cmd_cayley(args) -> int:
    tol = _tolerances(args)
    rel = jsonio.load_relation(args.relation, tol)
    image = rel.cayley(tol)
    if args.inverse:
        image = image.inverse()
    _emit(jsonio.relation_document(image))
    return EXIT_OK


def _relation_report(rel, tol) -> dict:
    mul = rel.mul_basis(tol)
    return {
        "relation": jsonio.relation_document(rel),
        "mul": [[float(x) for x in mul[:, i]] for i in range(mul.shape[1])],
        "inertia": _inertia_document(rel, tol),
    }


def _cmd_extensions(args) -> int:
    tol = _tolerances(args)
    rel = jsonio.load_relation(args.relation, tol)
    a_f, a_k = friedrichs_krein(rel, tol)
    report = {
        "friedrichs": _relation_report(a_f, tol),
        "krein_von_neumann": _relation_report(a_k, tol),
    }
    report["kappa"] = report["friedrichs"]["inertia"]["n_minus"]
    if args.member is not None:
        candidate = jsonio.load_relation(args.member, tol)
        try:
            report["member"] = bool(ext_membership(rel, candidate, tol))
        except NotAnExtension:
            report["member"] = False
    _emit(report)
    return EXIT_OK


def _cmd_verify(args) -> int:
    from .verify import run_suites
    tol = _tolerances(args)
    results = run_suites(args.suite, args.seed, args.cases, tol)
    failures = 0
    worst = 0.0
    for result in results:
        status = "PASS" if result.passed else "FAIL"
        failures += result.failures
        worst = max(worst, result.max_residual)
        print(
            f"{status} {result.suite}.{result.name}"
            f" cases={result.cases} failures={result.failures}"
            f" max_residual={result.max_residual:.3e}"
        )
    print(
        f"SUMMARY suite={args.suite} seed={args.seed} cases={args.cases}"
        f" checks={len(results)} failures={failures} max_residual={worst:.3e}"
    )
    return EXIT_OK if failures == 0 else EXIT_VERIFICATION_FAILED


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kreinkit",
        description=(
            "block completions, indefinite factorizations, liftings, and "
            "extremal selfadjoint extensions with prescribed negative index"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_tol(p):
        p.add_argument("--tol", type=float, default=None,
                       help="zero-classification threshold (relative)")

    p = sub.add_parser("inertia", help="inertia quadruplet of a matrix or relation file")
    p.add_argument("path", help="matrix or relation JSON file ('-' for stdin)")
    add_tol(p)
    p.set_defaults(func=_cmd_inertia)

    p = sub.add_parser("complete", help="minimal completion of an incomplete block")
    p.add_argument("a11")
    p.add_argument("a12")
    p.add_argument("--with-a22", dest="with_a22", default=None,
                   help="also test this corner for solution-set membership")
    add_tol(p)
    p.set_defaults(func=_cmd_complete)

    p = sub.add_parser("extremes", help="extreme selfadjoint extensions of a symmetric column")
    p.add_argument("t11")
    p.add_argument("t21")
    add_tol(p)
    p.set_defaults(func=_cmd_extremes)

    p = sub.add_parser("check-interval", help="membership of a candidate in the extension interval")
    p.add_argument("t11")
    p.add_argument("t21")
    p.add_argument("t")
    add_tol(p)
    p.set_defaults(func=_cmd_check_interval)

    p = sub.add_parser("lift", help="assemble a minimal-index lifting from parameters")
    p.add_argument("t")
    p.add_argument("--j1", default=None)
    p.add_argument("--j2", default=None)
    p.add_argument("--j1p", default=None)
    p.add_argument("--j2p", default=None)
    p.add_argument("--gamma1", default=None)
    p.add_argument("--gamma2", default=None)
    p.add_argument("--gamma", default=None)
    p.add_argument("--exit-dim", dest="exit_dim", type=int, default=1,
                   help="exit-space dimension when no parameter fixes it")
    add_tol(p)
    p.set_defaults(func=_cmd_lift)

    p = sub.add_parser("cayley", help="Cayley transform of a relation")
    p.add_argument("relation")
    p.add_argument("--inverse", action="store_true",
                   help="print the relation inverse of the image")
    add_tol(p)
    p.set_defaults(func=_cmd_cayley)

    p = sub.add_parser("extensions", help="Friedrichs and Krein-von Neumann extensions")
    p.add_argument("relation")
    p.add_argument("--member", default=None,
                   help="also test this relation for membership")
    add_tol(p)
    p.set_defaults(func=_cmd_extensions)

    p = sub.add_parser("verify", help="run the randomized property suites")
    p.add_argument("--suite", default="all", choices=_SUITES)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cases", type=int, default=100)
    add_tol(p)
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    """Run one command; a ``KREINKIT_TOL`` override lasts for this call only."""
    base = default_tolerances()
    env_tol = os.environ.get("KREINKIT_TOL")
    if env_tol is not None:
        try:
            set_default_tolerances(ToleranceProfile(
                zero=float(env_tol), psd=base.psd,
                residual=base.residual, subspace=base.subspace,
            ))
        except (ValueError, InvalidInput):
            print(f"invalid KREINKIT_TOL value: {env_tol!r}", file=sys.stderr)
            return EXIT_INVALID_INPUT
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except InvalidInput as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT
    except (NotCompletable, NotSolvable, NotAnExtension) as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except KreinkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        internal = isinstance(exc, (ConsistencyError, EigenSolverError))
        return EXIT_VERIFICATION_FAILED if internal else EXIT_INFEASIBLE
    finally:
        set_default_tolerances(base)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

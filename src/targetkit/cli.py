"""Command-line interface.

Commands: ``solve`` (construct and write a targeting matrix), ``check``
(feasibility with certificate), ``verify`` (re-audit a provided matrix),
``generate`` (seeded instance with witness), ``generate-source``
(random source reachable from a fixed target), and ``gap`` (the normal
completion diagnostic).

Exit codes: 0 success/feasible, 2 infeasible or obstructed with a
certificate in the report, 3 invalid input, 4 internal numeric failure.
Reports are JSON (default) or text, to stdout or ``--report PATH``;
identical inputs and seeds produce byte-identical JSON.
"""

import argparse
import functools
from dataclasses import asdict, fields
import json
import os
import sys
from pathlib import Path

import numpy as np

from .errors import (
    ConditionViolatedError,
    InfeasibleError,
    NumericFailureError,
    RankProvisoError,
    TargetkitError,
)
from .feasibility import PROPERTY_NAMES, PropertyClass, check, normal_two_point
from .linalg import TolerancePolicy
from .mmio import read_matrix, write_matrix
from .solvers import COMPLETION_GAP_NOTE, completion_gap, solve
from .sources import _random_source
from .verify import InstanceSpec, generate_instance, verify_property, verify_targeting

__all__ = ["main"]

class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _add_report_args(p, tolerances=True):
    # only a command that builds a TolerancePolicy takes the tolerance flags;
    # each stores into the field it overrides (see _tolerances), under the
    # metavar argparse derives from the flag itself
    if tolerances:
        for flag, field, text in (
            ("--rank-tol", "rank_rel_cutoff", "relative rank cutoff"),
            ("--sym-tol", "sym_tol", "symmetry tolerance"),
            ("--psd-tol", "psd_tol", "semidefiniteness tolerance"),
            ("--res-tol", "residual_tol", "residual tolerance"),
        ):
            p.add_argument(flag, dest=field, metavar=flag[2:].upper().replace("-", "_"), type=float, help=text)
    p.add_argument("--report", default=None, help="write the report here instead of stdout")
    p.add_argument("--format", choices=("json", "text"), default="json")


def _add_property_args(p):
    p.add_argument("--property", required=True, help="property class name")
    p.add_argument("--lambda", dest="lam", default=None, metavar="RE[,IM]",
                   help="first eigenvalue (normal-two-point only)")
    p.add_argument("--mu", dest="mu", default=None, metavar="RE[,IM]",
                   help="second eigenvalue (normal-two-point only)")


@functools.cache
def _build_parser() -> _Parser:
    parser = _Parser(prog="targetkit", description="structured solutions of A X = Y")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("solve", help="construct a targeting matrix")
    _add_property_args(p)
    _add_report_args(p)
    p.add_argument("--X", required=True, help="source matrix file")
    p.add_argument("--Y", required=True, help="target matrix file")
    p.add_argument("--out", default=None, help="write the solution here (Matrix Market)")

    p = sub.add_parser("check", help="decide feasibility, with certificate")
    _add_property_args(p)
    _add_report_args(p)
    p.add_argument("--X", required=True)
    p.add_argument("--Y", required=True)

    p = sub.add_parser("verify", help="re-audit a provided matrix")
    _add_property_args(p)
    _add_report_args(p)
    p.add_argument("--A", required=True, help="matrix to audit")
    p.add_argument("--X", default=None)
    p.add_argument("--Y", default=None)

    p = sub.add_parser("generate", help="draw a seeded feasible instance")
    _add_property_args(p)
    _add_report_args(p, tolerances=False)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, default=None, help="defaults to m (1 for normal-vector)")
    p.add_argument("--seed", type=int, default=None, help="default: TARGETKIT_SEED or 0")
    p.add_argument("--field", choices=("real", "complex"), default="complex")
    p.add_argument("--rank-deficiency", type=int, default=0)
    p.add_argument("--out-x", default=None)
    p.add_argument("--out-y", default=None)
    p.add_argument("--out-witness", default=None)

    p = sub.add_parser("generate-source", help="draw a source reachable from a fixed target")
    _add_property_args(p)
    _add_report_args(p)
    p.add_argument("--Y", required=True)
    p.add_argument("--seed", type=int, default=None, help="default: TARGETKIT_SEED or 0")
    p.add_argument("--out-x", default=None)

    p = sub.add_parser("gap", help="normal completion diagnostic B*B - BB* + C*C")
    _add_report_args(p)
    p.add_argument("--B", required=True)
    p.add_argument("--C", required=True)
    p.add_argument("--out", default=None, help="write the gap matrix here")

    return parser


def _parse_scalar(text, name):
    parts = str(text).split(",")
    if len(parts) > 2:
        raise ValueError(f"{name} must be RE or RE,IM, got {text!r}")
    try:
        re = float(parts[0])
        im = float(parts[1]) if len(parts) == 2 else 0.0
    except ValueError:
        raise ValueError(f"{name} must be numeric, got {text!r}") from None
    return complex(re, im) if im != 0.0 else re


def _parse_property(args) -> PropertyClass:
    kind = PROPERTY_NAMES.get(args.property)
    if kind is None:
        known = ", ".join(sorted(PROPERTY_NAMES))
        raise ValueError(f"unknown property {args.property!r}; known: {known}")
    if kind == "normal-two-point":
        if args.lam is None or args.mu is None:
            raise ValueError("normal-two-point requires --lambda and --mu")
        return normal_two_point(
            _parse_scalar(args.lam, "--lambda"), _parse_scalar(args.mu, "--mu")
        )
    if args.lam is not None or args.mu is not None:
        raise ValueError("--lambda/--mu apply only to normal-two-point")
    return PropertyClass(kind)


def _tolerances(args) -> TolerancePolicy:
    given = {f.name: getattr(args, f.name, None) for f in fields(TolerancePolicy)}
    return TolerancePolicy(**{name: value for name, value in given.items() if value is not None})


def _jsonable(obj):
    if isinstance(obj, np.ndarray):
        return _jsonable(obj.tolist())
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    if isinstance(obj, (np.complexfloating,)):
        return _jsonable(complex(obj))
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    return obj


def _layout(items, opening, closing, level) -> str:
    """Bracket rendered ``items`` as ``json.dumps(indent=2)`` does at depth ``level``."""
    if not items:
        return opening + closing
    inner = "\n" + "  " * (level + 1)
    return opening + inner + ("," + inner).join(items) + "\n" + "  " * level + closing


def _dump(obj, level=0) -> str:
    """Render ``obj`` exactly as ``json.dumps(_jsonable(obj), indent=2, sort_keys=True)``.

    That call runs the pure-Python encoder on every matrix entry, because
    the C encoder serves only ``indent=None``.  Here a finite float64 or
    complex128 array is written a row at a time instead; the rest (arrays
    holding NaN or infinities, other dtypes, 0-d arrays, scalars) goes
    through :func:`_jsonable` and the same layout.
    """
    if isinstance(obj, dict):
        items = sorted({str(k): v for k, v in obj.items()}.items())
        return _layout([f"{json.dumps(k)}: {_dump(v, level + 1)}" for k, v in items], "{", "}", level)
    if isinstance(obj, (list, tuple)):
        return _layout([_dump(v, level + 1) for v in obj], "[", "]", level)
    if isinstance(obj, np.ndarray):
        if obj.ndim and obj.dtype in (np.float64, np.complex128) and np.isfinite(obj).all():
            return _dump_finite(obj, level)
        return _dump(obj.tolist(), level)
    obj = _jsonable(obj)
    return _dump(obj, level) if isinstance(obj, dict) else json.dumps(obj)


def _dump_finite(a, level) -> str:
    if a.ndim > 1:
        return _layout([_dump_finite(row, level + 1) for row in a], "[", "]", level)
    if a.dtype == np.float64:
        # float.__repr__ is what json writes for a finite float
        return _layout(list(map(float.__repr__, a.tolist())), "[", "]", level)
    # one % template for the whole row, fed the (im, re) pairs interleaved
    inner = "\n" + "  " * (level + 1)
    entry = "{" + inner + '  "im": %r,' + inner + '  "re": %r' + inner + "}"
    values = [None] * (2 * a.size)
    values[::2], values[1::2] = a.imag.tolist(), a.real.tolist()
    return _layout([entry] * a.size, "[", "]", level) % tuple(values)


def _resolve_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("TARGETKIT_SEED", "")
    try:
        return int(env) if env else 0
    except ValueError:
        raise ValueError(f"TARGETKIT_SEED must be an integer, got {env!r}") from None


def _write_outputs(**targets) -> dict:
    # write each (path, matrix) whose path was given, in keyword order, and
    # return the report's "outputs": key -> path
    outputs = {}
    for key, (path, matrix) in targets.items():
        if path:
            write_matrix(path, matrix)
            outputs[key] = path
    return outputs


def _cmd_solve(args):
    tol = _tolerances(args)
    prop = _parse_property(args)
    sol = solve(prop, read_matrix(args.X), read_matrix(args.Y), tol)
    outputs = _write_outputs(A=(args.out, sol.A))
    report = {
        "command": "solve",
        "property": prop.label(),
        "verdict": "solved",
        "residual": sol.residual,
        "property_deviation": sol.property_deviation,
        "free_params": sol.free_params,
        "A": sol.A,
        "tolerances": asdict(tol),
        "outputs": outputs,
    }
    return report, 0


def _cmd_check(args):
    tol = _tolerances(args)
    prop = _parse_property(args)
    X = read_matrix(args.X)
    Y = read_matrix(args.Y)
    result = check(prop, X, Y, tol)
    report = {"command": "check", "tolerances": asdict(tol), **result.to_dict()}
    return report, 0 if result.feasible else 2


def _cmd_verify(args):
    tol = _tolerances(args)
    prop = _parse_property(args)
    A = read_matrix(args.A)
    if (args.X is None) != (args.Y is None):
        raise ValueError("--X and --Y must be given together")
    result = verify_property(A, prop, tol)
    passed = result.passed
    residual = None
    if args.X is not None:
        residual = verify_targeting(A, read_matrix(args.X), read_matrix(args.Y))
        passed = passed and residual <= tol.residual_tol
    report = {
        "command": "verify",
        "verdict": "pass" if passed else "fail",
        "residual": residual,
        "tolerances": asdict(tol),
        **result.to_dict(),
    }
    return report, 0 if passed else 2


def _cmd_generate(args):
    prop = _parse_property(args)
    n = args.n
    if n is None:
        n = 1 if prop.kind == "normal-vector" else args.m
    spec = InstanceSpec(
        property=prop,
        m=args.m,
        n=n,
        seed=_resolve_seed(args),
        field=args.field,
        rank_deficiency=args.rank_deficiency,
    )
    X, Y, witness = generate_instance(spec)
    outputs = _write_outputs(X=(args.out_x, X), Y=(args.out_y, Y), witness=(args.out_witness, witness))
    report = {
        "command": "generate",
        "property": prop.label(),
        "verdict": "generated",
        "m": spec.m,
        "n": spec.n,
        "seed": spec.seed,
        "field": spec.field,
        "rank_deficiency": spec.rank_deficiency,
        "X": X,
        "Y": Y,
        "witness": witness,
        "outputs": outputs,
    }
    return report, 0


def _cmd_generate_source(args):
    tol = _tolerances(args)
    prop = _parse_property(args)
    if prop.kind not in ("hermitian", "reflection", "orthogonal-projection"):
        raise ValueError(
            f"no source characterization for {prop.label()!r}; "
            "choose hermitian, reflection, or projection"
        )
    Y = read_matrix(args.Y)
    seed = _resolve_seed(args)
    blocks, X = _random_source(prop.kind, Y, seed, tol)
    outputs = _write_outputs(X=(args.out_x, X))
    report = {
        "command": "generate-source",
        "property": prop.label(),
        "verdict": "generated",
        "seed": seed,
        "blocks": blocks,
        "X": X,
        "tolerances": asdict(tol),
        "outputs": outputs,
    }
    return report, 0


def _cmd_gap(args):
    tol = _tolerances(args)
    B = read_matrix(args.B)
    C = read_matrix(args.C)
    H, psd = completion_gap(B, C, tol)
    outputs = _write_outputs(H=(args.out, H))
    report = {
        "command": "gap",
        "verdict": "gap-psd" if psd else "gap-obstructed",
        "psd": bool(psd),
        "H": H,
        "note": COMPLETION_GAP_NOTE,
        "tolerances": asdict(tol),
        "outputs": outputs,
    }
    return report, 0 if psd else 2


_HANDLERS = {
    "solve": _cmd_solve,
    "check": _cmd_check,
    "verify": _cmd_verify,
    "generate": _cmd_generate,
    "generate-source": _cmd_generate_source,
    "gap": _cmd_gap,
}


def _render_text(report) -> str:
    lines = []
    for key in sorted(report):
        value = report[key]
        if key == "conditions" and isinstance(value, list):
            for cond in value:
                lines.append(
                    f"condition {cond['name']}: "
                    f"{'ok' if cond['satisfied'] else 'VIOLATED'} "
                    f"(deviation {cond['deviation']:.6e}, threshold {cond['threshold']:.6e})"
                )
            continue
        if isinstance(value, (dict, list)):
            value = json.dumps(_jsonable(value), sort_keys=True)
        lines.append(f"{key}: {value}")
    return "\n".join(lines) + "\n"


def _emit(report, args) -> None:
    if getattr(args, "format", "json") == "json":
        text = _dump(report) + "\n"
    else:
        text = _render_text(_jsonable(report))
    path = getattr(args, "report", None)
    if path:
        Path(path).write_text(text)
    else:
        sys.stdout.write(text)


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    try:
        # the report carries every NaN deviation; numpy's warnings about
        # them would only add the library's source path to stderr
        with np.errstate(all="ignore"):
            report, code = _HANDLERS[args.command](args)
    except RankProvisoError as exc:
        conditions = exc.report.to_dict()["conditions"] if exc.report else []
        report, code = {
            "command": args.command,
            "verdict": "infeasible",
            "error": str(exc),
            "unique_solution_scale": exc.unique_solution_scale,
            "conditions": conditions,
        }, 2
    except InfeasibleError as exc:
        details = exc.report.to_dict()
        report, code = {
            "command": args.command,
            "property": details["property"],
            "verdict": "infeasible",
            "error": str(exc),
            "conditions": details["conditions"],
        }, 2
    except ConditionViolatedError as exc:
        report, code = {
            "command": args.command,
            "verdict": "hypothesis-violated",
            "error": str(exc),
        }, 2
    except (NumericFailureError, np.linalg.LinAlgError) as exc:
        # LinAlgError subclasses ValueError, so it must be caught before
        # the usage errors below: a LAPACK failure is not bad input
        report, code = {
            "command": args.command,
            "verdict": "numeric-failure",
            "error": str(exc),
        }, 4
    except (TargetkitError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    report["exit_code"] = code
    try:
        _emit(report, args)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    return code


if __name__ == "__main__":
    sys.exit(main())

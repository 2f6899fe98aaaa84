"""Command-line surface for building, checking, and scoring processes.

Every subcommand accepts either a process file (dense JSON or Pauli
text) or a built-in name: ``w_ocb``, ``w_beta@<beta>``, ``ordered_ab``,
``ordered_ba``, or ``mix@<q>`` (q weighs ordered_ba against ordered_ab).
Exit codes: 0 on success, 1 when a check fails validation, 2 on usage
errors including unreadable or malformed files. CSV output uses nine
significant digits, a header row, and LF line endings.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from .formats import dense_text, pauli_text, read_process
from .game import GameSpec, analytic_max_dbit, causal_bound, joint_distribution, success_probability
from .instruments import alice_z, bob_branch
from .optimizer import OptimizerConfig, maximize_ansatz, maximize_instruments, threshold_alpha
from .oracle import oracle_bound
from .processes import (
    ProcessMatrix,
    causal_mixture,
    ordered_identity_channel_process,
    validate,
    w_beta,
    w_ocb,
    witness_s,
    witness_value,
)


class UsageError(Exception):
    """Bad arguments or unreadable input; maps to exit code 2."""


def _fmt(value: float) -> str:
    return f"{float(value):.9g}"


def _print_json(payload: dict) -> None:
    # Strict JSON: a NaN or infinity raises ValueError (exit 2) instead of
    # printing a token no JSON parser accepts.
    print(json.dumps(payload, allow_nan=False))


def _tolerance(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value >= 0):
        raise argparse.ArgumentTypeError(f"tolerance must be finite and non-negative, got {text!r}")
    return value


def resolve_process(token: str) -> ProcessMatrix:
    """Build a named process or read one from a file path."""
    try:
        if token == "w_ocb":
            return w_ocb()
        if token.startswith("w_beta@"):
            return w_beta(float(token.split("@", 1)[1]))
        if token == "ordered_ab":
            return ordered_identity_channel_process("a_to_b")
        if token == "ordered_ba":
            return ordered_identity_channel_process("b_to_a")
        if token.startswith("mix@"):
            q = float(token.split("@", 1)[1])
            return causal_mixture(
                ordered_identity_channel_process("b_to_a"),
                ordered_identity_channel_process("a_to_b"),
                q,
            )
    except ValueError as exc:
        raise UsageError(f"bad built-in process {token!r}: {exc}") from exc
    try:
        return read_process(token)
    except OSError as exc:
        raise UsageError(f"cannot read process file {token!r}: {exc}") from exc
    except ValueError as exc:
        raise UsageError(f"malformed process file {token!r}: {exc}") from exc


def _validation_tolerances(args) -> dict:
    if args.tol is None:
        return {}
    return {"psd_atol": args.tol, "trace_atol": args.tol, "support_atol": args.tol}


def cmd_validate(args) -> int:
    w = resolve_process(args.process)
    report = validate(w, **_validation_tolerances(args))
    if args.json:
        payload = {
            "process": w.tag or args.process,
            "is_valid": report.is_valid,
            "hermiticity_residual": report.hermiticity_residual,
            "min_eigenvalue": report.min_eigenvalue,
            "trace": report.trace,
            "forbidden_terms": {
                "".join("IXYZ"[i] for i in word): coeff
                for word, coeff in report.forbidden_terms
            },
            "failures": list(report.failures),
        }
        _print_json(payload)
    elif report.is_valid:
        print("valid")
    else:
        print("INVALID")
        for failure in report.failures:
            print(f"  {failure}")
    return 0 if report.is_valid else 1


def cmd_game(args) -> int:
    w = resolve_process(args.process)
    report = validate(w, **_validation_tolerances(args))
    if not report.is_valid:
        print("INVALID process:", "; ".join(report.failures), file=sys.stderr)
        return 1
    spec = GameSpec(alpha=args.alpha, beta=args.beta)
    axis = np.asarray(args.t_vector, dtype=float)
    try:
        dist = joint_distribution(w, alice_z, lambda y, b, bp: bob_branch(y, b, bp, t=axis))
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    value = success_probability(dist, spec)
    if args.json:
        payload = {
            "process": w.tag,
            "alpha": spec.alpha,
            "beta": spec.beta,
            "success_probability": value,
            "causal_bound": causal_bound(spec),
            "distribution": dist.table.ravel().tolist(),
        }
        _print_json(payload)
    else:
        print(dist.to_csv(), end="")
        print(f"success_probability {_fmt(value)}")
        print(f"causal_bound {_fmt(causal_bound(spec))}")
    return 0


def cmd_sweep_beta(args) -> int:
    if not (0.5 <= args.start < args.stop < 1.0) or args.steps < 2:
        raise UsageError(
            f"need 1/2 <= from < to < 1 and steps >= 2, got "
            f"from={args.start} to={args.stop} steps={args.steps}"
        )
    rows = []
    for beta in np.linspace(args.start, args.stop, args.steps):
        beta = float(beta)
        w = w_beta(beta)
        spec = GameSpec(alpha=0.5, beta=beta)
        dist = joint_distribution(w, alice_z, bob_branch)
        p_succ = success_probability(dist, spec)
        bound = causal_bound(spec)
        rows.append((beta, p_succ, bound, analytic_max_dbit(beta), p_succ - bound))
    lines = ["beta,p_succ_w_beta,causal_bound,analytic_max,gap"]
    lines.extend(",".join(_fmt(cell) for cell in row) for row in rows)
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
    else:
        print(text, end="")
    return 0


def cmd_oracle(args) -> int:
    spec = GameSpec(alpha=args.alpha, beta=args.beta)
    value = oracle_bound(spec)
    if args.json:
        _print_json({"alpha": spec.alpha, "beta": spec.beta, "oracle_bound": value})
    else:
        print(_fmt(value))
    return 0


def cmd_optimize(args) -> int:
    config = OptimizerConfig(
        restarts=args.restarts,
        max_iters=args.max_iters,
        seed=args.seed,
        general_corr=args.general_corr,
    )
    if args.mode == "dbit":
        w = resolve_process(args.process)
        report = validate(w, **_validation_tolerances(args))
        if not report.is_valid:
            print("INVALID process:", "; ".join(report.failures), file=sys.stderr)
            return 1
        result = maximize_instruments(w, args.beta, config)
        payload = {
            "mode": "dbit",
            "process": w.tag,
            "beta": args.beta,
            "value": result.value,
            "feasible": result.feasible,
            "iterations": result.iterations,
            "converged": result.converged,
            "upper_bound": result.upper_bound,
            "gap": result.gap,
            "alice": result.alice.to_record(),
            "bob": result.bob.to_record(),
        }
    else:
        result = maximize_ansatz(args.alpha, config)
        payload = {
            "mode": "ibit",
            "alpha": args.alpha,
            "value": result.value,
            "feasible": result.feasible,
            "iterations": result.iterations,
            "converged": result.converged,
            "upper_bound": result.upper_bound,
            "gap": result.gap,
            "coefficients": list(result.coefficients),
            "axis": result.axis.tolist(),
        }
    if args.json:
        _print_json(payload)
    else:
        print(_fmt(result.value))
    return 0


def cmd_witness(args) -> int:
    w = resolve_process(args.process)
    value = witness_value(witness_s(), w)
    if args.json:
        _print_json({"process": w.tag, "witness_value": value})
    else:
        print(_fmt(value))
    return 0


def cmd_threshold(args) -> int:
    value = threshold_alpha(OptimizerConfig(restarts=16, seed=args.seed))
    if args.json:
        _print_json({"threshold_alpha": value})
    else:
        print(_fmt(value))
    return 0


def cmd_decompose(args) -> int:
    w = resolve_process(args.process)
    if args.form == "pauli":
        text = pauli_text(w, zero_atol=args.zero_atol)
    else:
        text = dense_text(w)
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
    else:
        print(text, end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit machine-readable JSON")
    common.add_argument("--seed", type=int, default=0, help="seed for randomized searches")
    common.add_argument(
        "--tol", type=_tolerance, default=None, help="override validation tolerances uniformly"
    )

    parser = argparse.ArgumentParser(
        prog="causalgame",
        description="Two-party causal game: process validation, scoring, bounds, searches.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("validate", parents=[common], help="check a process matrix")
    p.add_argument("process", help="process file or built-in name")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("game", parents=[common], help="score a process with the built-in strategy")
    p.add_argument("--process", required=True, help="process file or built-in name")
    p.add_argument("--alpha", type=float, default=0.5, help="input bias")
    p.add_argument("--beta", type=float, default=0.5, help="round bias")
    p.add_argument(
        "--t-vector",
        nargs=3,
        type=float,
        default=(1.0, 0.0, 0.0),
        metavar=("TX", "TY", "TZ"),
        help="decoding axis for the message-to-Alice branch",
    )
    p.set_defaults(func=cmd_game)

    p = sub.add_parser("sweep-beta", parents=[common], help="sweep the round bias, emit CSV")
    p.add_argument("--from", dest="start", type=float, required=True)
    p.add_argument("--to", dest="stop", type=float, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--out", default=None, help="CSV path (stdout when omitted)")
    p.set_defaults(func=cmd_sweep_beta)

    p = sub.add_parser("oracle", parents=[common], help="deterministic-strategy bound")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--beta", type=float, required=True)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("optimize", parents=[common], help="search instruments or the process family")
    p.add_argument("--mode", choices=("dbit", "ibit"), required=True)
    p.add_argument("--process", default="w_ocb", help="process for dbit mode")
    p.add_argument("--beta", type=float, default=0.5, help="round bias for dbit mode")
    p.add_argument("--alpha", type=float, default=0.5, help="input bias for ibit mode")
    p.add_argument("--restarts", type=int, default=64)
    p.add_argument("--max-iters", type=int, default=2000)
    p.add_argument(
        "--general-corr",
        action="store_true",
        help="report the decode element as an explicit correlation tensor",
    )
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("witness", parents=[common], help="causal witness value of a process")
    p.add_argument("--process", required=True, help="process file or built-in name")
    p.set_defaults(func=cmd_witness)

    p = sub.add_parser("threshold", parents=[common], help="bias where the family violation closes")
    p.set_defaults(func=cmd_threshold)

    p = sub.add_parser("decompose", parents=[common], help="print or write a process encoding")
    p.add_argument("--process", required=True, help="process file or built-in name")
    p.add_argument("--form", choices=("pauli", "dense"), default="pauli")
    p.add_argument("--zero-atol", type=float, default=1e-12, help="drop Pauli terms at or below")
    p.add_argument("--out", default=None, help="write to a file instead of stdout")
    p.set_defaults(func=cmd_decompose)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

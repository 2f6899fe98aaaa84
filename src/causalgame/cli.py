"""Command-line surface for building, checking, and scoring processes.

Each subcommand returns an exit code, a payload and text, and ``main``
alone renders them: ``--json`` prints the payload as strict JSON, and
otherwise the text goes to stdout, or byte for byte to the ``--out``
file. ``sweep-beta`` and ``decompose`` have no payload.

Every subcommand accepts either a process file (dense JSON or Pauli
text) or a built-in name: ``w_ocb``, ``w_beta@<beta>``, ``ordered_ab``,
``ordered_ba``, or ``mix@<q>`` (q weighs ordered_ba against ordered_ab).
Exit codes: 0 on success, 1 when a check fails validation, 2 on usage
errors including unreadable, unwritable or malformed files and numerical
overflow.
CSV output uses nine significant digits, a header row, and LF line
endings.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import warnings

import numpy as np

# Each command imports the rest of the package it runs, so a command loads
# only the modules it needs.
from .formats import dense_text, pauli_text, read_process
from .processes import (
    ProcessMatrix,
    causal_mixture,
    ordered_identity_channel_process,
    term_label,
    validate,
    w_beta,
    w_ocb,
    witness_s,
    witness_value,
)


class UsageError(Exception):
    """Bad arguments or unreadable input; maps to exit code 2."""


class InvalidProcess(Exception):
    """A command was given a process that fails validation; maps to exit code 1."""


Result = tuple[int, dict | None, str]  # exit code, --json payload (or None), plain text


def _fmt(value: float) -> str:
    return f"{float(value):.9g}"


def _tolerance(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value >= 0):
        raise argparse.ArgumentTypeError(f"tolerance must be finite and non-negative, got {text!r}")
    return value


def _emit(text: str, path: str | None) -> None:
    """Write ``text`` to ``path``, or to stdout when no path is given."""
    if not path:
        print(text, end="")
        return
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
    except OSError as exc:
        raise UsageError(f"cannot write {path!r}: {exc}") from exc


def _require_valid(w, tol: float | None = None) -> None:
    """Validate ``w``; when it fails, raise InvalidProcess naming the failures."""
    report = validate(w, tol=tol)
    if not report.is_valid:
        raise InvalidProcess("; ".join(report.failures))


def _record(spec) -> dict:
    """One party's operation as ``optimize --json`` prints it: ``corr`` is the
    measure-encode outer product and ``table`` is always None, both kept so
    the printed format stays stable."""
    return {
        "measure": spec.measure.tolist(),
        "encode": spec.encode.tolist(),
        "corr": np.outer(spec.measure, spec.encode).tolist(),
        "table": None,
        "relay": spec.relay.tolist(),
    }


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
            return causal_mixture(resolve_process("ordered_ba"), resolve_process("ordered_ab"), q)
    except ValueError as exc:
        raise UsageError(f"bad built-in process {token!r}: {exc}") from exc
    try:
        return read_process(token)
    except OSError as exc:
        raise UsageError(f"cannot read process file {token!r}: {exc}") from exc
    except (ValueError, RuntimeWarning) as exc:
        # main() raises numpy warnings (an overflow composing the matrix) as errors
        raise UsageError(f"malformed process file {token!r}: {exc}") from exc


def cmd_validate(args) -> Result:
    w = resolve_process(args.process)
    report = validate(w, tol=args.tol)
    payload = {
        "process": w.tag or args.process,
        "is_valid": report.is_valid,
        "hermiticity_residual": report.hermiticity_residual,
        "min_eigenvalue": report.min_eigenvalue,
        "trace": report.trace,
        "forbidden_terms": {term_label(word): coeff for word, coeff in report.forbidden_terms},
        "failures": list(report.failures),
    }
    if report.is_valid:
        return 0, payload, "valid\n"
    return 1, payload, "INVALID\n" + "".join(f"  {failure}\n" for failure in report.failures)


def cmd_game(args) -> Result:
    from .game import GameSpec, causal_bound, joint_distribution, success_probability
    from .instruments import _branch_stack, alice_z

    w = resolve_process(args.process)
    _require_valid(w, args.tol)
    spec = GameSpec(alpha=args.alpha, beta=args.beta)
    dist = joint_distribution(w, alice_z, _branch_stack(args.t_vector))
    value, bound = success_probability(dist, spec), causal_bound(spec)
    payload = {
        "process": w.tag,
        "alpha": spec.alpha,
        "beta": spec.beta,
        "success_probability": value,
        "causal_bound": bound,
        "distribution": dist.table.ravel().tolist(),
    }
    return 0, payload, f"{dist.to_csv()}success_probability {_fmt(value)}\ncausal_bound {_fmt(bound)}\n"


def cmd_sweep_beta(args) -> Result:
    from .game import GameSpec, analytic_max_dbit, causal_bound, joint_distribution, success_probability
    from .instruments import alice_z, bob_branch

    if not (0.5 <= args.start < args.stop < 1.0) or args.steps < 2:
        raise UsageError(
            f"need 1/2 <= from < to < 1 and steps >= 2, got "
            f"from={args.start} to={args.stop} steps={args.steps}"
        )
    lines = ["beta,p_succ_w_beta,causal_bound,analytic_max,gap\n"]
    for beta in np.linspace(args.start, args.stop, args.steps):
        beta = float(beta)
        spec = GameSpec(alpha=0.5, beta=beta)
        p_succ = success_probability(joint_distribution(w_beta(beta), alice_z, bob_branch), spec)
        bound = causal_bound(spec)
        row = (beta, p_succ, bound, analytic_max_dbit(beta), p_succ - bound)
        lines.append(",".join(_fmt(cell) for cell in row) + "\n")
    return 0, None, "".join(lines)


def cmd_oracle(args) -> Result:
    from .game import GameSpec
    from .oracle import oracle_bound

    spec = GameSpec(alpha=args.alpha, beta=args.beta)
    value = oracle_bound(spec)
    return 0, {"alpha": spec.alpha, "beta": spec.beta, "oracle_bound": value}, f"{_fmt(value)}\n"


def cmd_optimize(args) -> Result:
    from .optimizer import OptimizerConfig, maximize_ansatz, maximize_instruments

    unread = ("alpha",) if args.mode == "dbit" else ("process", "beta")
    for name in unread:
        if getattr(args, name) is not None:
            raise UsageError(f"--{name} is not read by --mode {args.mode}")
    config = OptimizerConfig(restarts=args.restarts, seed=args.seed)
    if args.mode == "dbit":
        w = resolve_process("w_ocb" if args.process is None else args.process)
        _require_valid(w)
        beta = 0.5 if args.beta is None else args.beta
        result = maximize_instruments(w, beta, config)
        head = {"mode": "dbit", "process": w.tag, "beta": beta}
        tail = {"alice": _record(result.alice), "bob": _record(result.bob)}
    else:
        alpha = 0.5 if args.alpha is None else args.alpha
        result = maximize_ansatz(alpha, config)
        head = {"mode": "ibit", "alpha": alpha}
        tail = {"coefficients": list(result.coefficients), "axis": result.axis.tolist()}
    payload = {
        **head,
        "value": result.value,
        "feasible": result.feasible,
        "iterations": result.iterations,
        "converged": result.converged,
        "upper_bound": result.upper_bound,
        "gap": result.gap,
        **tail,
    }
    return 0, payload, f"{_fmt(result.value)}\n"


def cmd_witness(args) -> Result:
    w = resolve_process(args.process)
    _require_valid(w)
    value = witness_value(witness_s(), w)
    return 0, {"process": w.tag, "witness_value": value}, f"{_fmt(value)}\n"


def cmd_threshold(args) -> Result:
    from .optimizer import OptimizerConfig, threshold_alpha

    value = threshold_alpha(OptimizerConfig(restarts=16, seed=args.seed))
    return 0, {"threshold_alpha": value}, f"{_fmt(value)}\n"


def cmd_decompose(args) -> Result:
    w = resolve_process(args.process)
    return 0, None, pauli_text(w, zero_atol=args.zero_atol) if args.form == "pauli" else dense_text(w)


def build_parser() -> argparse.ArgumentParser:
    # Each subcommand takes only the shared flags it reads.
    json_flag = argparse.ArgumentParser(add_help=False)
    json_flag.add_argument("--json", action="store_true", help="emit machine-readable JSON")
    seed_flag = argparse.ArgumentParser(add_help=False)
    seed_flag.add_argument("--seed", type=int, default=0, help="seed for randomized searches")
    tol_flag = argparse.ArgumentParser(add_help=False)
    tol_flag.add_argument(
        "--tol", type=_tolerance, default=None, help="override validation tolerances uniformly"
    )

    parser = argparse.ArgumentParser(
        prog="causalgame",
        description="Two-party causal game: process validation, scoring, bounds, searches.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("validate", parents=[json_flag, tol_flag], help="check a process matrix")
    p.add_argument("process", help="process file or built-in name")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser(
        "game", parents=[json_flag, tol_flag], help="score a process with the built-in strategy"
    )
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

    p = sub.add_parser("sweep-beta", help="sweep the round bias, emit CSV")
    p.add_argument("--from", dest="start", type=float, required=True)
    p.add_argument("--to", dest="stop", type=float, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--out", default=None, help="CSV path (stdout when omitted)")
    p.set_defaults(func=cmd_sweep_beta)

    p = sub.add_parser("oracle", parents=[json_flag], help="deterministic-strategy bound")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--beta", type=float, required=True)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser(
        "optimize",
        parents=[json_flag, seed_flag],
        help="search instruments or the process family",
    )
    p.add_argument("--mode", choices=("dbit", "ibit"), required=True)
    # A flag the chosen mode does not read is a usage error, so these
    # default to None; cmd_optimize supplies w_ocb and 1/2.
    p.add_argument("--process", default=None, help="process for dbit mode (default w_ocb)")
    p.add_argument("--beta", type=float, default=None, help="round bias for dbit mode (default 0.5)")
    p.add_argument("--alpha", type=float, default=None, help="input bias for ibit mode (default 0.5)")
    p.add_argument("--restarts", type=int, default=64)
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("witness", parents=[json_flag], help="causal witness value of a process")
    p.add_argument("--process", required=True, help="process file or built-in name")
    p.set_defaults(func=cmd_witness)

    p = sub.add_parser(
        "threshold", parents=[json_flag, seed_flag], help="bias where the family violation closes"
    )
    p.set_defaults(func=cmd_threshold)

    p = sub.add_parser("decompose", help="print or write a process encoding")
    p.add_argument("--process", required=True, help="process file or built-in name")
    p.add_argument("--form", choices=("pauli", "dense"), default="pauli")
    p.add_argument("--zero-atol", type=_tolerance, default=1e-12, help="drop Pauli terms at or below")
    p.add_argument("--out", default=None, help="write to a file instead of stdout")
    p.set_defaults(func=cmd_decompose)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        with warnings.catch_warnings():
            # A numpy overflow or invalid value is an error with one message,
            # not a warning printed ahead of (or instead of) an answer.
            warnings.simplefilter("error", RuntimeWarning)
            code, payload, text = args.func(args)
            if payload is not None and args.json:
                # Strict JSON: a NaN or infinity raises ValueError (exit 2)
                # instead of printing a token no JSON parser accepts.
                text = json.dumps(payload, allow_nan=False) + "\n"
            _emit(text, getattr(args, "out", None))
            return code
    except InvalidProcess as exc:
        print(f"INVALID process: {exc}", file=sys.stderr)
        return 1
    except (UsageError, ValueError, RuntimeWarning) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

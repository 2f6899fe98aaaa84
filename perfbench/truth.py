"""Ground truth for the benchmark's output checks, independent of causalgame.

Processes are written down as Pauli terms, the way the paper defines
them, and turned into text or matrices here with plain numpy. Expected
game values are the closed forms of how each input was built. Nothing in
this module imports the package under test.
"""

from __future__ import annotations

import json
import math
from itertools import product

import numpy as np

SIGMA = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}
LAYOUT = ("A_I", "A_O", "B_I", "B_O")


def w_beta_weights(beta: float) -> tuple[float, float]:
    norm = math.sqrt(1.0 - 2.0 * beta + 2.0 * beta * beta)
    return (1.0 - beta) / norm, beta / norm


def w_beta_terms(beta: float) -> dict[str, float]:
    f1, f2 = w_beta_weights(beta)
    return {"IIII": 0.25, "IZZI": 0.25 * f1, "ZIXZ": 0.25 * f2}


def ordered_terms(direction: str) -> dict[str, float]:
    """Identity channel from the first party's output to the second's input."""
    if direction == "a_to_b":
        return {"IIII": 0.25, "IXXI": 0.25, "IYYI": -0.25, "IZZI": 0.25}
    return {"IIII": 0.25, "XIIX": 0.25, "YIIY": -0.25, "ZIIZ": 0.25}


def mixture_terms(q: float) -> dict[str, float]:
    """q * ordered_ba + (1 - q) * ordered_ab, the CLI's ``mix@q``."""
    out: dict[str, float] = {}
    for weight, terms in ((q, ordered_terms("b_to_a")), (1.0 - q, ordered_terms("a_to_b"))):
        for word, value in terms.items():
            out[word] = out.get(word, 0.0) + weight * value
    return {word: value for word, value in out.items() if value != 0.0}


ANSATZ_WORDS = ("IZZI", "ZIXZ", "ZIYZ", "ZIZZ", "ZIII", "IIZI")


def ansatz_terms(coeffs) -> dict[str, float]:
    terms = {"IIII": 0.25}
    for word, value in zip(ANSATZ_WORDS, coeffs):
        if value != 0.0:
            terms[word] = 0.25 * float(value)
    return terms


def is_forbidden(word: str) -> bool:
    """A term that lets a party signal to its own past.

    A word on A_O must also touch B_I and not B_O; a word on B_O must
    also touch A_I and not A_O.
    """
    a_in, a_out, b_in, b_out = (letter != "I" for letter in word)
    return (a_out and (b_out or not b_in)) or (b_out and not a_in)


FORBIDDEN_WORDS = tuple(
    "".join(letters) for letters in product("IXYZ", repeat=4) if is_forbidden("".join(letters))
)


def matrix(terms: dict[str, float]) -> np.ndarray:
    out = np.zeros((16, 16), dtype=complex)
    for word, value in terms.items():
        op = SIGMA[word[0]]
        for letter in word[1:]:
            op = np.kron(op, SIGMA[letter])
        out += value * op
    return out


def pauli_text(terms: dict[str, float], tag: str) -> str:
    lines = [f"# tag: {tag}"]
    lines.extend(f"{word} {value!r}" for word, value in sorted(terms.items()))
    return "\n".join(lines) + "\n"


def dense_text(terms: dict[str, float], tag: str) -> str:
    entries = [[float(z.real), float(z.imag)] for z in matrix(terms).ravel()]
    document = {"dimension": 16, "layout": list(LAYOUT), "tag": tag, "entries": entries}
    return json.dumps(document, separators=(",", ":")) + "\n"


def components(terms: dict[str, float], alpha: float, axis) -> tuple[float, float]:
    """Winning probabilities (x = b at b' = 0, y = a at b' = 1) of the
    built-in strategy: Alice measures and reprepares z, Bob decodes along
    ``axis`` and relays in z.

    The decode branch reads the Z.(axis).Z correlations and the Z on A_I;
    the guess branch reads IZZI and the Z on B_I. Valid for processes
    whose other terms do not score, which holds for every family here.
    """
    c = {word: 4.0 * value for word, value in terms.items()}
    tx, ty, tz = axis
    decode = 0.5 + 0.5 * (c.get("ZIXZ", 0.0) * tx + c.get("ZIYZ", 0.0) * ty + c.get("ZIZZ", 0.0) * tz)
    decode += (alpha - 0.5) * c.get("ZIII", 0.0)
    guess = 0.5 + 0.5 * c.get("IZZI", 0.0) + (alpha - 0.5) * c.get("IIZI", 0.0)
    return decode, guess


def success(terms: dict[str, float], alpha: float, beta: float, axis) -> float:
    decode, guess = components(terms, alpha, axis)
    return beta * decode + (1.0 - beta) * guess


def causal_bound(alpha: float, beta: float) -> float:
    return beta + alpha * (1.0 - beta)


def analytic_max_dbit(beta: float) -> float:
    """Best instrument score of w_beta at alpha = 1/2 (the paper's closed form)."""
    return 0.5 * (1.0 + math.sqrt(1.0 - 2.0 * beta + 2.0 * beta * beta))


ANSATZ_CEILING = (2.0 + math.sqrt(2.0)) / 4.0


def witness(terms: dict[str, float]) -> float:
    """Tr[S W] for S = (IIII - IZZI - ZIXZ) / 4."""
    return 4.0 * (terms.get("IIII", 0.0) - terms.get("IZZI", 0.0) - terms.get("ZIXZ", 0.0))


def table_success(table, alpha: float, beta: float) -> float:
    """Winning probability of a table p[x, y, a, b, b'], by the game's rules:
    at b' = 0 Alice wins when x = b, at b' = 1 Bob wins when y = a."""
    p = np.asarray(table, dtype=float)
    weights = (alpha, 1.0 - alpha)
    decode = sum(weights[a] * weights[b] * p[b, :, a, b, 0].sum() for a in (0, 1) for b in (0, 1))
    guess = sum(weights[a] * weights[b] * p[:, a, a, b, 1].sum() for a in (0, 1) for b in (0, 1))
    return float(beta * decode + (1.0 - beta) * guess)

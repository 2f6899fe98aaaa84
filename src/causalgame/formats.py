"""Reading and writing process matrices as text files.

Two interchangeable encodings. The dense form is a JSON document with the
dimension, the subsystem labels, and the matrix as a row-major list of
[real, imag] pairs. The sparse form lists one Pauli word per line with
its coefficient ("IZZI 0.25"), where the four letters follow the fixed
subsystem order A_I, A_O, B_I, B_O and the coefficient convention matches
the Hilbert-Schmidt decomposition (coefficient = Tr[W sigma] / 16).
Lines starting with '#' are comments; a "# tag:" comment carries the
provenance tag that the dense form stores as a field. Format detection:
a document whose first non-space character is '{' is dense JSON,
anything else is parsed as Pauli text.
"""

from __future__ import annotations

import json
import math
from itertools import chain

import numpy as np

from .processes import ProcessMatrix, term_label
from .tensor import _WORDS, LABELS, PAULI_LABELS, pauli_compose, pauli_decompose

_WORD_OF = {term_label(word): word for word in _WORDS}  # "IZZI" -> (0, 3, 3, 0), for all 256 words


def dense_text(w: ProcessMatrix) -> str:
    """Serialize as the dense JSON document, ending with a newline."""
    document = {
        "dimension": 16,
        "layout": list(LABELS),
        "tag": w.tag,
        "entries": w.matrix.view(float).reshape(256, 2).tolist(),
    }
    return json.dumps(document, indent=None, separators=(",", ":")) + "\n"


def pauli_text(w: ProcessMatrix, zero_atol: float = 0.0) -> str:
    """Serialize as Pauli-word lines.

    Exact zeros are always omitted; ``zero_atol`` additionally drops
    coefficients at or below it, which is useful for pruning the
    last-ulp dust that Hilbert-Schmidt coefficients of composed
    matrices carry. A non-finite, negative or bool ``zero_atol`` raises
    ValueError.
    """
    coefficients = pauli_decompose(w.matrix, zero_atol=zero_atol)
    lines = []
    if w.tag:
        lines.append(f"# tag: {w.tag}")
    for word in sorted(coefficients):
        lines.append(f"{term_label(word)} {coefficients[word]!r}")
    return "\n".join(lines) + "\n"


def _is_pair(entry) -> bool:
    try:
        complex(*map(float, entry))
    except (TypeError, ValueError, OverflowError):  # OverflowError: an int beyond float
        return False
    # float() reads a JSON boolean as 0 or 1, but it is no number
    return isinstance(entry, (list, tuple)) and len(entry) == 2 and bool not in map(type, entry)


def _parse_dense(text: str) -> ProcessMatrix:
    try:
        document = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed dense process file: {exc}") from exc
    for key in ("dimension", "layout", "entries"):
        if key not in document:
            raise ValueError(f"dense process file missing key {key!r}")
    layout = document["layout"]
    if layout != list(LABELS):
        raise ValueError(f"unsupported layout {layout!r}, expected {list(LABELS)!r}")
    dim = document["dimension"]
    if dim != 16 or not isinstance(dim, int):
        raise ValueError(f"dimension must be 16, got {dim!r}")
    entries = document["entries"]
    if not isinstance(entries, list):
        raise ValueError(f"entries must be a list, got {entries!r}")
    if len(entries) != dim * dim:
        raise ValueError(f"expected {dim * dim} entries, got {len(entries)}")
    parts = None
    # Only lists of two can all be pairs; then their parts, in order, are the
    # flat run of numbers, and numeric strings count, as float() reads them.
    if {*map(type, entries)} == {list} and {*map(len, entries)} == {2}:
        try:
            parts = np.fromiter(chain.from_iterable(entries), float, 2 * dim * dim).reshape(dim * dim, 2)
        except (TypeError, ValueError, OverflowError):
            pass
    # numpy reads null as NaN and a boolean as 0 or 1 (looked for only where
    # the text spells one)
    boolean = "true" in text or "false" in text
    if parts is None or np.isnan(parts).any() or boolean:
        for pos, pair in enumerate(entries):
            if not _is_pair(pair):
                raise ValueError(f"entry {pos} is not a [real, imag] pair: {json.dumps(pair)}")
    tag = document.get("tag", "")
    if not isinstance(tag, str):
        raise ValueError(f"tag must be a string, got {tag!r}")
    # Each [real, imag] row read as one complex number: every bit kept, -0.0 too.
    return ProcessMatrix(matrix=parts.view(complex).reshape(dim, dim), tag=tag)


def _parse_pauli(text: str) -> ProcessMatrix:
    coefficients: dict[tuple[int, ...], float] = {}
    tag = ""
    for number, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            # The tag is the rest of its line after the one space pauli_text writes.
            head, found, rest = raw.partition("tag:")
            if found and head.strip() == "#" and not tag:
                tag = rest[1:] if rest.startswith(" ") else rest
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"line {number}: expected 'WORD coefficient', got {raw!r}")
        label, value = parts
        word = _WORD_OF.get(label)
        if word is None:
            raise ValueError(
                f"line {number}: Pauli word must be 4 characters over {PAULI_LABELS}, got {label!r}"
            )
        if word in coefficients:
            raise ValueError(f"line {number}: duplicate Pauli word {label}")
        try:
            coefficient = float(value)
        except ValueError as exc:
            raise ValueError(f"line {number}: bad coefficient {value!r}") from exc
        if not math.isfinite(coefficient):
            raise ValueError(f"line {number}: coefficient must be finite, got {value!r}")
        coefficients[word] = coefficient
    if not coefficients:
        raise ValueError("process file contains no Pauli terms")
    return ProcessMatrix(matrix=pauli_compose(coefficients), tag=tag)


def parse_process(text: str) -> ProcessMatrix:
    """Parse either encoding, detected from the first non-space character."""
    stripped = text.lstrip()
    if not stripped:
        raise ValueError("empty process file")
    if stripped.startswith("{"):
        return _parse_dense(stripped)
    return _parse_pauli(text)


def read_process(path) -> ProcessMatrix:
    with open(path, encoding="utf-8") as handle:
        return parse_process(handle.read())

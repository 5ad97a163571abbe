"""QAPLIB-style instance text: parsing, serialization, seeded generation.

Format: one integer n, then n*n whitespace-separated numbers for the first
matrix, then n*n for the second, any mix of spaces and newlines. By the
dominant convention the first matrix holds distances and the second flows;
files in the wild disagree, so parsing can be flipped.
"""

from __future__ import annotations

import math
import random
import re
from fractions import Fraction
from itertools import repeat

from .core import MIN_SIZE, QapInstance

_TOKEN = re.compile(r"\S+")
# ASCII digits only: \d, int() and float() also read other scripts' digits.
_INT = re.compile(r"[+-]?[0-9]+\Z")


class ParseError(ValueError):
    """Malformed instance text; offset is the byte position of the fault."""

    def __init__(self, message: str, offset: int) -> None:
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


def _parse_number(token: str, offset: int):
    if _INT.match(token):
        return int(token)
    # float() also reads digit separators ("1_000") and non-ASCII digits.
    if "_" in token or not token.isascii():
        raise ParseError(f"non-numeric token {token!r}", offset)
    try:
        value = float(token)
    except ValueError:
        raise ParseError(f"non-numeric token {token!r}", offset) from None
    if not math.isfinite(value):
        raise ParseError(f"non-finite entry {token!r}", offset)
    return value


def parse_qaplib(text: str, flow_first: bool = False) -> QapInstance:
    """Read one instance: INT n, then 2 n^2 numeric tokens.

    The first matrix is taken as distances unless flow_first is set.
    Anything other than exactly 1 + 2 n^2 tokens is an error; every error
    names the byte offset where it was detected.
    """
    tokens = _TOKEN.finditer(text)
    try:
        head = next(tokens)
    except StopIteration:
        raise ParseError("empty input", 0) from None
    if not _INT.match(head.group()):
        raise ParseError(f"expected integer size, got {head.group()!r}", head.start())
    n = int(head.group())
    if n < MIN_SIZE:
        raise ParseError(f"size must be at least {MIN_SIZE}, got {n}", head.start())

    need = 2 * n * n
    entries = []
    for match in tokens:
        if len(entries) == need:
            raise ParseError(
                f"expected {1 + need} tokens, found extra token {match.group()!r}",
                match.start(),
            )
        entries.append(_parse_number(match.group(), match.start()))
    if len(entries) < need:
        raise ParseError(
            f"expected {1 + need} tokens, found {1 + len(entries)}; input ended early",
            len(text),
        )

    first = [entries[i * n:(i + 1) * n] for i in range(n)]
    second = [entries[n * n + i * n:n * n + (i + 1) * n] for i in range(n)]
    if flow_first:
        return QapInstance(second, first)
    return QapInstance(first, second)


def _format_entry(v) -> str:
    if isinstance(v, bool):
        raise ValueError(f"cannot serialize entry {v!r}")
    if isinstance(v, int):
        return str(v)
    if isinstance(v, Fraction):
        if v.denominator == 1:
            return str(v.numerator)
        raise ValueError(
            f"instance text stores integers or decimals, not {v!r}"
        )
    if isinstance(v, float):
        return repr(v)
    raise ValueError(f"cannot serialize entry {v!r}")


def serialize_qaplib(inst: QapInstance) -> str:
    """Instance text that parse_qaplib reads back to an equal instance."""
    lines = [str(inst.n), ""]
    for row in inst.r:
        lines.append(" ".join(_format_entry(v) for v in row))
    lines.append("")
    for row in inst.w:
        lines.append(" ".join(_format_entry(v) for v in row))
    return "\n".join(lines) + "\n"


def generate_instance(n: int, seed: int, lo: int, hi: int) -> QapInstance:
    """Seeded instance with uniform integer entries in [lo, hi].

    Entries come from random.Random(seed).randrange(lo, hi + 1), which is
    what randint(lo, hi) draws, filling the distance matrix row by row and
    then the flow matrix row by row; the stream is platform-independent, so
    identical arguments always yield the identical instance.
    """
    if n < MIN_SIZE:
        raise ValueError(f"instance size must be at least {MIN_SIZE}, got {n}")
    if not isinstance(lo, int) or not isinstance(hi, int):
        raise ValueError("entry bounds must be integers")
    if lo > hi:
        raise ValueError(f"empty entry range [{lo}, {hi}]")
    rng = random.Random(seed)
    draws = map(rng.randrange, repeat(lo, 2 * n * n), repeat(hi + 1))
    rows = tuple(zip(*[draws] * n))
    return QapInstance(rows[:n], rows[n:])

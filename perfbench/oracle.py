"""
Correctness oracle for op results.

Exact outputs are checked against a golden table of exit code and stdout
sha256, generated once from the program by ``make_goldens.py``.  Root tables
print floats, so they are checked numerically and never stored as goldens:

* q family: row n must lie within Q_TOL of the closed form
  r_n = -4 sin^2(pi / (2 (2n + 1))), the greatest zero of the reduced
  run-count polynomial of index n.
* layered family: the polynomial 1 - t - ... - t^(a-1) must change sign,
  evaluated exactly with Fractions, between the printed value minus and plus
  LAYERED_BRACKET.
"""
from __future__ import annotations

import csv
import io
import json
import math
from fractions import Fraction
from pathlib import Path

GOLDENS = Path(__file__).resolve().parent / "goldens.json"

Q_TOL = 1e-9
LAYERED_BRACKET = Fraction(1, 10**9)


def op_key(argv: list[str]) -> str:
    return json.dumps(list(argv))


def load_goldens(path: Path = GOLDENS) -> dict[str, list]:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def is_float_op(argv: list[str]) -> bool:
    return argv[0] == "roots"


def q_root(n: int) -> float:
    return -4.0 * math.sin(math.pi / (2 * (2 * n + 1))) ** 2


def _layered_sign(a: int, t: Fraction) -> int:
    """Exact sign of 1 - t - ... - t^(a-1) at a rational t > 0."""
    if t == 1:
        return (a < 2) - (a > 2)
    # (1 - t)(1 - t - ... - t^(a-1)) = 1 - 2t + t^a; scaled by q^a for t = p/q.
    p, q = t.numerator, t.denominator
    scaled = q**a - 2 * p * q ** (a - 1) + p**a
    sign = (scaled > 0) - (scaled < 0)
    return sign if t < 1 else -sign


def _roots_rows(argv: list[str], text: str) -> list[tuple[str, int, str]]:
    if "--format" in argv and argv[argv.index("--format") + 1] == "json":
        return [(r["kind"], r["index"], repr(r["value"])) for r in json.loads(text)]
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != ["kind", "index", "value"]:
        raise ValueError("missing header kind,index,value")
    return [(kind, int(index), value) for kind, index, value in rows[1:]]


def roots_error(argv: list[str], text: str) -> str | None:
    """Why a roots table is wrong, or None when every row checks out."""
    family = argv[argv.index("--family") + 1]
    max_n = int(argv[argv.index("--max-n") + 1])
    try:
        rows = _roots_rows(argv, text)
    except (ValueError, KeyError, TypeError) as exc:
        return f"unparsable table: {exc}"
    first = 1 if family == "q" else 2
    if [index for _, index, _ in rows] != list(range(first, max_n + 1)):
        return "wrong index column"
    for kind, index, value in rows:
        if kind != ("lis" if family == "q" else "layered"):
            return f"wrong kind {kind!r} at {index}"
        if family == "q":
            expected = q_root(index)
            if not abs(float(value) - expected) <= Q_TOL:
                return f"n={index}: printed {value}, closed form {expected!r}"
        else:
            x = Fraction(value)
            below = _layered_sign(index, x - LAYERED_BRACKET)
            above = _layered_sign(index, x + LAYERED_BRACKET)
            if not below > 0 > above:
                return f"a={index}: no sign change around {value}"
    return None


def check(result: dict, goldens: dict[str, list]) -> str | None:
    """Why one op's result is wrong, or None when it is correct."""
    argv = result["argv"]
    if is_float_op(argv):
        if result["rc"] != 0:
            return f"exit code {result['rc']}"
        return roots_error(argv, result["stdout"])
    golden = goldens.get(op_key(argv))
    if golden is None:
        return "no golden for this op"
    rc, sha256 = golden
    if result["rc"] != rc:
        return f"exit code {result['rc']}, golden {rc}"
    if result["sha256"] != sha256:
        return "stdout differs from golden"
    return None

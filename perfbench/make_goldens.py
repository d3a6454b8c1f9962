"""
Write goldens.json: exit code and stdout sha256 of every exact-output op in
every workload's grid, as the program at the current commit produces them.

Run from the repository root:  python3 perfbench/make_goldens.py

Root tables are left out: the oracle checks them numerically, so a known
wrong root can never be frozen into the goldens.  Regenerate only when the
program's output is meant to change, and say so in the change.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from grid import WORKLOADS  # noqa: E402
from oracle import GOLDENS, is_float_op, op_key  # noqa: E402
from wilfcollapse.cli import run  # noqa: E402


def main() -> None:
    goldens = {}
    for workload in WORKLOADS.values():
        for op in workload.grid():
            argv = list(op)
            if is_float_op(argv) or op_key(argv) in goldens:
                continue
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = run(argv)
            digest = hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()
            goldens[op_key(argv)] = [code, digest]
        print(f"{workload.name}: {len(goldens)} goldens so far", file=sys.stderr)
    with open(GOLDENS, "w", encoding="utf-8") as fh:
        entries = (f"{json.dumps(k)}: {json.dumps(v)}" for k, v in sorted(goldens.items()))
        fh.write("{\n" + ",\n".join(entries) + "\n}\n")


if __name__ == "__main__":
    main()

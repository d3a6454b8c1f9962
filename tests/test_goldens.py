"""
Replay of the benchmark's golden CLI outputs in process: exit code and
stdout sha256 must match perfbench/goldens.json, so a refactor that moves
a byte of a table fails here before the benchmark runs.

Every op of every command is replayed; the CLI builds its argument parsers
once per process, so the replay takes a few seconds.
"""
import hashlib
import json
from pathlib import Path

import pytest

from wilfcollapse.cli import run

GOLDENS = Path(__file__).resolve().parents[1] / "perfbench" / "goldens.json"


def _ops(command: str) -> list[tuple[list[str], int, str]]:
    goldens = json.loads(GOLDENS.read_text(encoding="utf-8"))
    return [
        (argv, code, digest)
        for argv, (code, digest) in ((json.loads(k), v) for k, v in goldens.items())
        if argv[0] == command
    ]


@pytest.mark.parametrize(
    "command", ["classify", "verify", "report", "enumerate", "gf", "canon"]
)
def test_cli_output_matches_goldens(command, capsys):
    ops = _ops(command)
    assert ops
    mismatches = []
    for argv, code, digest in ops:
        got = run(argv)
        out = capsys.readouterr().out
        if (got, hashlib.sha256(out.encode()).hexdigest()) != (code, digest):
            mismatches.append(argv)
    assert not mismatches, mismatches

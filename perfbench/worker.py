"""
One pass of the benchmark: a fresh interpreter that imports wilfcollapse,
runs an op list through the CLI in-process and reports every op's result.

Protocol: after the import the worker prints ``ready`` on stdout, so the
parent can time interpreter start plus import.  It then reads one JSON
request from stdin, ``{"ops": [[argv...], ...], "keep": [op indices whose
stdout is returned in full], "probe": [[argv...], ...], "trace": bool,
"spans_path": str | null}``, and answers with one JSON object on stdout.
Probe ops run after the timed ops and after every measurement of the pass;
only their exit code and stdout are returned.

Caches start cold because the process is new, and stay warm across the ops
of the pass, as in one library session.  Before and after the ops, and
between ops once CALIBRATE_EVERY_S has passed since the last sample, the
worker times a fixed calibration loop; each op is
reported with the median calibration time of the samples nearest to it, so
that the parent can scale its latency to a reference speed.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import wilfcollapse  # noqa: E402,F401  (the import is part of set-up)
from wilfcollapse import cli  # noqa: E402


def peak_rss_mb() -> float:
    """
    High-water resident set of this process since exec.  getrusage's
    ru_maxrss is not used: across fork and exec it keeps the parent's peak.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM line in /proc/self/status")


CALIBRATE_EVERY_S = 0.1
CALIBRATION_NEIGHBOURS = 5


def calibrate() -> float:
    """
    Time of a fixed piece of harness code doing the program's kind of work,
    Fraction arithmetic and small allocations, and no program code: it
    tracks the speed the host gives this process at the moment.
    """
    start = time.perf_counter()
    total, table = Fraction(0), {}
    for i in range(1, 600):
        total += Fraction(i, i + 1)
        table[i, i % 7] = str(i) + ","
        tuple(range(i % 20))
    return time.perf_counter() - start


def run_ops(request: dict) -> dict:
    tracer = None
    if request["trace"]:
        import spans

        tracer = spans.install()
    keep = set(request["keep"])
    clock = time.perf_counter
    results = []
    marks = [(clock(), calibrate()) for _ in range(3)]  # (when, calibration time)
    first = last = clock()
    calibrating = 0.0  # between the first op's start and the last op's end
    for index, argv in enumerate(request["ops"]):
        # Between ops only; a traced pass reports no scaled times and skips it.
        if index and tracer is None and clock() - marks[-1][0] >= CALIBRATE_EVERY_S:
            marks.append((clock(), calibrate()))
            calibrating += marks[-1][1]
        out, err = io.StringIO(), io.StringIO()
        if tracer is not None:
            tracer.op = index
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = clock()
            code = cli.run(argv)
            last = clock()
        if index == 0:
            first = start
        text = out.getvalue()
        data = text.encode("utf-8")
        result = {
            "argv": argv,
            "rc": code,
            "ms": (last - start) * 1000.0,
            "bytes": len(data),
            "sha256": hashlib.sha256(data).hexdigest(),
        }
        if index in keep:
            result["stdout"] = text
        if code != 0:
            result["stderr"] = err.getvalue()[-2000:]
        result["mid"] = (start + last) / 2
        results.append(result)
    marks += [(clock(), calibrate()) for _ in range(3)]
    for result in results:
        mid = result.pop("mid")
        near = sorted(marks, key=lambda mark: abs(mark[0] - mid))[:CALIBRATION_NEIGHBOURS]
        result["calibration_s"] = statistics.median(t for _, t in near)
    answer = {
        "ops": results,
        "wall_s": last - first - calibrating,
        "peak_rss_mb": peak_rss_mb(),
        "calibration_s": statistics.median(t for _, t in marks),
    }
    answer["probe"] = []
    for argv in request.get("probe", []):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.run(argv)
        answer["probe"].append({"argv": argv, "rc": code, "stdout": out.getvalue()})
    if tracer is not None:
        tracer.count("cli.output_bytes", sum(r["bytes"] for r in results))
        answer["layers"] = tracer.summary()
        if request.get("spans_path"):
            tracer.write_spans(request["spans_path"])
    return answer


def main() -> None:
    sys.stdout.write("ready\n")
    sys.stdout.flush()
    request = json.loads(sys.stdin.read())
    sys.stdout.write(json.dumps(run_ops(request)) + "\n")


if __name__ == "__main__":
    main()

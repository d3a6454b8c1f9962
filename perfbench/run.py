"""
Benchmark of the wilfcollapse CLI.

Each workload is a seeded list of CLI ops (see grid.py), run as a closed
loop with one client: the next op starts when the previous one returns.  A
pass is one fresh worker process (worker.py) that imports wilfcollapse and
runs the whole op list in-process, so every lru_cache and module memo starts
cold and stays warm within the pass, as in one library session.  A run
repeats passes of the same op list for --seconds (at least MIN_PASSES).
Times are scaled to a reference speed by a calibration loop timed next to
them (see end_to_end); each op's latency is its median over the passes, and
the run reports the sum, median and tail of those latencies.  Every op's
output is checked by oracle.py; a wrong output counts as a failed op and the
run goes on.  A workload's probe ops, known to hit a program defect, run once
per run after the timed ops of the first pass; they are checked the same way
but reported apart, as known defects, and are neither timed nor counted.

With --trace 1 the run adds one traced pass of the same op list (spans.py)
and reports per-layer metrics, the tracing overhead against the untraced
passes and the share of traced wall time no layer accounts for.

Usage, from the repository root:

    python3 perfbench/run.py --workload brute --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all     # every metric of every workload

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics; the line before it records the run's conditions.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402
from grid import WORKLOADS, op_list  # noqa: E402

MIN_PASSES = 3
MAX_PASSES = 200
SETUP_STARTS = 4  # extra workers that only start and import, for setup_s
PASS_TIMEOUT_S = 150
SPANS_DIR = ROOT / ".perfbench"
# The calibration time that defines reference speed: about the median of
# worker.calibrate on the 2-vCPU virtual machine the benchmark was tuned on.
REFERENCE_CALIBRATION_S = 0.003

END_TO_END = {
    "wall_s": "s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MiB",
    "setup_s": "s",
}


class BenchError(RuntimeError):
    pass


def tail(samples: list[float]) -> dict:
    """
    The highest percentile with at least ten samples beyond it: the
    (N-10)-th smallest of N samples, at percentile 100 (N-10) / N.
    """
    n = len(samples)
    if n <= 10:
        raise ValueError(f"a tail needs more than 10 samples, got {n}")
    ordered = sorted(samples)
    return {"value": ordered[n - 11], "percentile": 100.0 * (n - 10) / n, "beyond": 10, "samples": n}


def run_pass(ops: list[list[str]], *, trace: bool = False, spans_path: str | None = None,
             probe: list[list[str]] | None = None) -> dict:
    """Start a worker, time its set-up, run the ops, return its answer."""
    request = {
        "ops": ops,
        "keep": [i for i, argv in enumerate(ops) if oracle.is_float_op(argv)],
        "probe": probe or [],
        "trace": trace,
        "spans_path": spans_path,
    }
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py")],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        cwd=ROOT,
    )
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        out, err = proc.communicate(json.dumps(request), timeout=PASS_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if ready != "ready\n" or proc.returncode != 0:
        raise BenchError(f"worker failed (exit {proc.returncode}): {err.strip()[-2000:]}")
    answer = json.loads(out)
    answer["setup_s"] = setup_s
    return answer


def measure(workload: str, seed: int, seconds: float, trace: bool, runner=run_pass) -> dict:
    """Untraced passes for `seconds`, plus one traced pass when asked."""
    ops = op_list(WORKLOADS[workload], seed)
    starts = [runner([]) for _ in range(SETUP_STARTS)]
    start = time.perf_counter()
    deadline = start + seconds
    passes = [runner(ops, probe=[list(op) for op in WORKLOADS[workload].probe])]
    while len(passes) < MIN_PASSES or (
        len(passes) < MAX_PASSES
        and time.perf_counter() + (time.perf_counter() - start) / len(passes) <= deadline
    ):
        passes.append(runner(ops))
    traced = None
    if trace:
        SPANS_DIR.mkdir(exist_ok=True)
        spans_path = SPANS_DIR / f"spans-{workload}-seed{seed}.jsonl"
        traced = runner(ops, trace=True, spans_path=str(spans_path))
    return {
        "workload": workload,
        "seed": seed,
        "ops": ops,
        "passes": passes,
        "traced": traced,
        "workers": [
            {"setup_s": w["setup_s"], "calibration_s": w["calibration_s"]} for w in starts + passes
        ],
    }


def failures(run: dict, goldens: dict) -> tuple[int, int, list[dict]]:
    """(attempted, failed, distinct failures) over every pass of the run."""
    attempted = failed = 0
    seen: dict[str, dict] = {}
    for answer in run["passes"] + ([run["traced"]] if run["traced"] else []):
        for result in answer["ops"]:
            attempted += 1
            reason = oracle.check(result, goldens)
            if reason is not None:
                failed += 1
                seen.setdefault(oracle.op_key(result["argv"]), {"argv": result["argv"], "reason": reason})
    return attempted, failed, list(seen.values())


def end_to_end(run: dict) -> tuple[dict, dict]:
    """
    Metrics of the untraced passes, and the sample counts behind them.

    Times are in reference seconds.  The speed a shared host gives a process
    drifts by tens of percent within minutes, so each measured time is
    multiplied by REFERENCE_CALIBRATION_S over the calibration time measured
    next to it in the same worker (see worker.calibrate).  Each op's latency
    is the median of its scaled times over the passes.  The record keeps the
    unscaled figures, each op at its fastest pass.
    """
    passes = run["passes"]
    count = len(run["ops"])
    latencies = [
        statistics.median(
            p["ops"][i]["ms"] * REFERENCE_CALIBRATION_S / p["ops"][i]["calibration_s"]
            for p in passes
        )
        for i in range(count)
    ]
    fastest = [min(p["ops"][i]["ms"] for p in passes) for i in range(count)]
    top = tail(latencies)
    workers = run["workers"]
    values = {
        "wall_s": sum(latencies) / 1000.0,
        "op_p50_ms": statistics.median(latencies),
        "op_tail_ms": top["value"],
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        "setup_s": statistics.median(
            w["setup_s"] * REFERENCE_CALIBRATION_S / w["calibration_s"] for w in workers
        ),
    }
    samples = {
        "passes": len(passes),
        "op_p50_ms": {"percentile": 50.0, "ops": count, "passes_per_op": len(passes)},
        "op_tail_ms": {
            "percentile": top["percentile"],
            "beyond": top["beyond"],
            "ops": top["samples"],
            "passes_per_op": len(passes),
        },
        "setup_s": {"workers": len(workers)},
        "pass_wall_s": statistics.median(p["wall_s"] for p in passes),
        "unscaled": {
            "wall_s": sum(fastest) / 1000.0,
            "op_p50_ms": statistics.median(fastest),
            "op_tail_ms": tail(fastest)["value"],
            "setup_s": statistics.median(w["setup_s"] for w in workers),
            "calibration_s": statistics.median(w["calibration_s"] for w in workers),
        },
    }
    return values, samples


# (metric, unit, better) of the traced pass; BENCHMARK.json lists the same.
PER_LAYER = [
    ("encodings.generate.self_s", "s", "lower"),
    ("encodings.generate.elements", "count", "lower"),
    ("encodings.leq.calls", "count", "lower"),
    ("encodings.leq.self_s", "s", "lower"),
    ("engine.count.self_s", "s", "lower"),
    ("engine.count.calls", "count", "lower"),
    ("engine.count.cache_hit_ratio", "ratio", "higher"),
    ("engine.count.elements_scanned", "count", "lower"),
    ("engine.group.self_s", "s", "lower"),
    ("canonical.key.self_s", "s", "lower"),
    ("genfun.gf.self_s", "s", "lower"),
    ("genfun.gf.calls", "count", "lower"),
    ("genfun.gf.cache_hit_ratio", "ratio", "higher"),
    ("series.normalize.self_s", "s", "lower"),
    ("series.normalize.calls", "count", "lower"),
    ("series.den_degree_max", "degree", "lower"),
    ("series.arith.self_s", "s", "lower"),
    ("series.expand.self_s", "s", "lower"),
    ("series.expand.coeffs", "count", "lower"),
    ("genfun.lis_poly.self_s", "s", "lower"),
    ("genfun.roots.self_s", "s", "lower"),
    ("genfun.roots.found", "count", "higher"),
    ("cli.self_s", "s", "lower"),
    ("cli.output_bytes", "bytes", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.unattributed_share", "ratio", "lower"),
]


def per_layer(run: dict, untraced_wall_s: float) -> dict:
    traced = run["traced"]
    layers = traced["layers"]
    self_s, calls, hits, counts = (layers[k] for k in ("self_s", "calls", "hits", "counts"))
    edges = {(a, b): n for a, b, n in layers["edges"]}

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    wall = traced["wall_s"]
    values = {}
    for name, _, _ in PER_LAYER:
        layer, _, stat = name.rpartition(".")
        if stat == "self_s":
            values[name] = self_s.get(layer, 0.0)
        elif stat == "calls":
            values[name] = calls.get(layer, 0)
        elif stat == "cache_hit_ratio":
            values[name] = ratio(hits.get(layer, 0), calls.get(layer, 0))
        else:
            values[name] = counts.get(name, 0)
    values["engine.count.elements_scanned"] = edges.get(("engine.count", "encodings.leq"), 0)
    values["trace.wall_s"] = wall
    values["trace.overhead_s"] = wall - untraced_wall_s
    values["trace.unattributed_share"] = ratio(wall - layers["attributed_s"], wall)
    return values


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def known_defects(run: dict, goldens: dict) -> list[dict]:
    """The probe ops of the run whose output is wrong, with the reason."""
    found = []
    for result in run["passes"][0].get("probe", []):
        reason = oracle.check(result, goldens)
        if reason is not None:
            found.append({"argv": result["argv"], "reason": reason})
    return found


def record(run: dict, samples: dict, failed_ops: list[dict], defects: list[dict]) -> dict:
    return {
        "workload": run["workload"],
        "seed": run["seed"],
        "python": sys.version.split()[0],
        "git_commit": git_commit(),
        "src_sha256": src_digest(),
        "nproc": os.cpu_count(),
        "ops_per_pass": len(run["ops"]),
        "probe_ops": WORKLOADS[run["workload"]].probe,
        "known_defects": defects,
        "samples": samples,
        "caches": "cold at the start of each pass, warm within it",
        "failures": failed_ops[:20],
    }


def evaluate(run: dict, goldens: dict) -> dict:
    attempted, failed, failed_ops = failures(run, goldens)
    values, samples = end_to_end(run)
    result = {
        "attempted": attempted,
        "failed": failed,
        "fail_ratio": failed / attempted,
        "end_to_end": values,
        "record": record(run, samples, failed_ops, known_defects(run, goldens)),
    }
    if run["traced"]:
        result["per_layer"] = per_layer(run, samples["pass_wall_s"])
    return result


def _print_table(result: dict) -> None:
    rec = result["record"]
    tail_info = rec["samples"]["op_tail_ms"]
    print(f"== {rec['workload']}  seed {rec['seed']}, {rec['ops_per_pass']} ops per pass, "
          f"{rec['samples']['passes']} passes")
    for name, unit in END_TO_END.items():
        note = ""
        if name == "op_tail_ms":
            note = (f"  (p{tail_info['percentile']:.1f} of {tail_info['ops']} ops, "
                    f"{tail_info['beyond']} beyond, each op the median of {tail_info['passes_per_op']} passes)")
        print(f"  {name:<34} {result['end_to_end'][name]:>14.6g} {unit}{note}")
    raw = rec["samples"]["unscaled"]
    print(f"  {'unscaled (each op its fastest pass)':<34} wall {raw['wall_s']:.6g} s, "
          f"p50 {raw['op_p50_ms']:.6g} ms, tail {raw['op_tail_ms']:.6g} ms, "
          f"setup {raw['setup_s']:.6g} s, calibration {raw['calibration_s'] * 1000:.4g} ms "
          f"(reference {REFERENCE_CALIBRATION_S * 1000:.4g} ms)")
    print(f"  {'fail_ratio':<34} {result['fail_ratio']:>14.6g} ratio"
          f"  ({result['failed']} of {result['attempted']} ops)")
    units = {name: unit for name, unit, _ in PER_LAYER}
    for name, value in result.get("per_layer", {}).items():
        print(f"  {name:<34} {value:>14.6g} {units[name]}")
    for failure in rec["failures"]:
        print(f"  FAILED {' '.join(failure['argv'])}: {failure['reason']}")
    for defect in rec["known_defects"]:
        print(f"  KNOWN DEFECT (untimed probe) {' '.join(defect['argv'])}: {defect['reason']}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "wilfcollapse" / "cli.py").is_file():
        print(f"error: no wilfcollapse sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        goldens = oracle.load_goldens()
        seconds = args.seconds
        if seconds is None:
            seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
        if args.workload == "all":
            results = {}
            for name in WORKLOADS:
                results[name] = evaluate(measure(name, args.seed, seconds, True), goldens)
                _print_table(results[name])
            print(json.dumps(results))
            return 0
        result = evaluate(measure(args.workload, args.seed, seconds, bool(args.trace)), goldens)
    except (BenchError, OSError, ValueError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for failure in result["record"]["failures"]:
        print(f"failed: {' '.join(failure['argv'])}: {failure['reason']}", file=sys.stderr)
    for defect in result["record"]["known_defects"]:
        print(f"known defect, untimed probe: {' '.join(defect['argv'])}: {defect['reason']}",
              file=sys.stderr)
    if args.trace:
        metrics = {name: {"value": result["per_layer"][name], "unit": unit} for name, unit, _ in PER_LAYER}
    else:
        metrics = {name: {"value": result["end_to_end"][name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    print(json.dumps({"record": result["record"], "fail_ratio": result["fail_ratio"],
                      "end_to_end": result["end_to_end"]}))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

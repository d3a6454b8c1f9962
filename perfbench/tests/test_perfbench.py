"""Self-tests of the benchmark harness; fast, no timing runs."""
from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import oracle  # noqa: E402
import run  # noqa: E402
from grid import LIS_ROOT_DEFECT_N, WORKLOADS, op_list  # noqa: E402


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_op_list_is_a_function_of_the_seed(name):
    workload = WORKLOADS[name]
    first = op_list(workload, 7)
    assert first == op_list(workload, 7)
    assert first != op_list(workload, 8)
    assert len({tuple(op) for op in first}) == len(first), "an op repeats within a run"
    assert len(first) == sum(workload.draws.values())


def _reaches_lis_root_defect(argv):
    return argv[:3] == ["roots", "--family", "q"] and int(argv[4]) >= LIS_ROOT_DEFECT_N


def test_every_run_probes_the_lis_root_defect_untimed():
    assert LIS_ROOT_DEFECT_N == 151
    workload = WORKLOADS["series_deep"]
    assert any(_reaches_lis_root_defect(list(op)) for op in workload.probe)
    for seed in range(200):
        assert not any(map(_reaches_lis_root_defect, op_list(workload, seed)))


def test_a_wrong_probe_is_a_known_defect_not_a_failed_op():
    argv = ["roots", "--family", "q", "--max-n", "155"]
    wrong = _result(argv, _q_table(155, wrong_at=151))
    fake = {"passes": [{"ops": [], "probe": [wrong]}], "traced": None}
    assert run.failures(fake, {})[:2] == (0, 0)
    (defect,) = run.known_defects(fake, {})
    assert defect["argv"] == argv and defect["reason"].startswith("n=151")
    fake["passes"][0]["probe"] = [_result(argv, _q_table(155))]
    assert run.known_defects(fake, {}) == []


def test_every_exact_op_has_a_golden():
    goldens = oracle.load_goldens()
    for workload in WORKLOADS.values():
        for op in workload.grid():
            assert oracle.is_float_op(list(op)) or oracle.op_key(list(op)) in goldens, op


def _result(argv, stdout, rc=0):
    import hashlib

    return {"argv": argv, "rc": rc, "stdout": stdout,
            "sha256": hashlib.sha256(stdout.encode()).hexdigest(), "ms": 1.0}


def _cli(argv):
    from wilfcollapse.cli import run as cli_run

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli_run(argv)
    return code, out.getvalue()


def test_corrupted_stdout_counts_as_a_failure():
    argv = ["canon", "--class", "c4", "--element", "a1 b3 a2 b2"]
    code, text = _cli(argv)
    goldens = {oracle.op_key(argv): [code, _result(argv, text)["sha256"]]}
    good = _result(argv, text, code)
    bad = _result(argv, text.replace("b=", "b=9,"), code)
    assert oracle.check(good, goldens) is None
    assert oracle.check(bad, goldens) == "stdout differs from golden"
    assert oracle.check(_result(argv, text, 1), goldens).startswith("exit code")
    fake = {"passes": [{"ops": [good, bad]}], "traced": None}
    attempted, failed, listed = run.failures(fake, goldens)
    assert (attempted, failed, len(listed)) == (2, 1, 1)


def _q_table(max_n, wrong_at=None):
    rows = ["kind,index,value"]
    for n in range(1, max_n + 1):
        value = oracle.q_root(n) if n != wrong_at else -0.002686935428301
        rows.append(f"lis,{n},{value:.15f}")
    return "\n".join(rows) + "\n"


def test_q_roots_are_checked_against_the_closed_form():
    argv = ["roots", "--family", "q", "--max-n", "155"]
    assert oracle.check(_result(argv, _q_table(155)), {}) is None
    reason = oracle.check(_result(argv, _q_table(155, wrong_at=151)), {})
    assert reason.startswith("n=151")
    code, text = _cli(["roots", "--family", "q", "--max-n", "12", "--format", "json"])
    assert code == 0
    assert oracle.check(_result(argv[:4] + ["12", "--format", "json"], text), {}) is None


def test_layered_roots_are_checked_by_an_exact_sign_change():
    argv = ["roots", "--family", "layered", "--max-n", "30"]
    code, text = _cli(argv)
    assert code == 0
    assert oracle.check(_result(argv, text), {}) is None
    lines = text.splitlines()
    kind, index, value = lines[5].split(",")
    lines[5] = f"{kind},{index},{float(value) + 1e-6:.15f}"
    tampered = "\n".join(lines) + "\n"
    assert oracle.check(_result(argv, tampered), {}).startswith(f"a={index}")


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    assert run.tail(list(range(100, 0, -1))) == {
        "value": 90, "percentile": 90.0, "beyond": 10, "samples": 100}
    assert run.tail([5.0] * 10 + [1.0])["value"] == 1.0
    with pytest.raises(ValueError):
        run.tail(list(range(10)))


def test_traced_and_untraced_passes_get_the_same_op_list():
    calls = []

    def fake_runner(ops, trace=False, spans_path=None, probe=None):
        calls.append((list(ops), trace))
        results = [{"argv": argv, "ms": 1.0, "calibration_s": 0.004} for argv in ops]
        return {"ops": results, "setup_s": 0.1, "wall_s": 0.0, "peak_rss_mb": 1.0,
                "calibration_s": 0.004}

    measured = run.measure("gf_build", 3, 0.0, True, runner=fake_runner)
    op_lists = [ops for ops, _ in calls if ops]
    assert [trace for ops, trace in calls if ops][-1] is True
    assert len(op_lists) == run.MIN_PASSES + 1
    assert all(ops == measured["ops"] for ops in op_lists)
    values, samples = run.end_to_end(measured)
    scale = run.REFERENCE_CALIBRATION_S / 0.004
    assert values["op_p50_ms"] == pytest.approx(scale)
    assert values["setup_s"] == pytest.approx(0.1 * scale)
    assert samples["unscaled"]["op_p50_ms"] == 1.0



def test_tracing_changes_no_output_byte():
    ops = [["gf", "--class", "c3", "--pattern", "3+1+2", "--expand", "12"],
           ["canon", "--class", "c4", "--element", "a1 b3 a1"],
           ["roots", "--family", "layered", "--max-n", "8"]]
    plain = run.run_pass(ops)
    traced = run.run_pass(ops, trace=True)
    assert [r["argv"] for r in traced["ops"]] == ops
    assert [r["sha256"] for r in plain["ops"]] == [r["sha256"] for r in traced["ops"]]
    layers = traced["layers"]
    assert layers["calls"]["cli"] == len(ops)
    assert layers["calls"]["genfun.roots"] == 7
    assert sum(layers["self_s"].values()) == pytest.approx(layers["attributed_s"])


def test_benchmark_json_names_the_metrics_the_run_prints():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [m["unit"] for m in spec["end_to_end"]] == list(run.END_TO_END.values())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)

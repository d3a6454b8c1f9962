import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import wilfcollapse
from wilfcollapse import engine
from wilfcollapse.cli import run
from wilfcollapse.encodings import ClassId


def capture(capsys):
    out = capsys.readouterr()
    return out.out, out.err


def test_classify_csv(capsys):
    code = run(["classify", "--class", "c3", "--n", "4", "--depth", "12"])
    out, _ = capture(capsys)
    assert code == 0
    assert out == "n,c_n,w_n,canonical_count\n4,8,3,3\n"


REPORT_C4_JSON = """[
  {
    "n": 1,
    "c_n": 1,
    "w_n": 1,
    "canonical_count": 1
  },
  {
    "n": 2,
    "c_n": 2,
    "w_n": 2,
    "canonical_count": 2
  },
  {
    "n": 3,
    "c_n": 4,
    "w_n": 3,
    "canonical_count": 3
  },
  {
    "n": 4,
    "c_n": 8,
    "w_n": 5,
    "canonical_count": 5
  },
  {
    "n": 5,
    "c_n": 16,
    "w_n": 8,
    "canonical_count": 8
  }
]
"""


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["classify", "--class", "c3", "--n", "6", "--depth", "12", "--format", "csv"],
         "n,c_n,w_n,canonical_count\n6,32,6,6\n"),
        (["report", "--class", "c4", "--max-n", "5", "--depth", "12", "--format", "json"],
         REPORT_C4_JSON),
    ],
)
def test_table_bytes_no_golden_checks(argv, expected, capsys):
    # perfbench/goldens.json holds no classify CSV and no report JSON op
    code = run(argv)
    out, _ = capture(capsys)
    assert code == 0
    assert out == expected


def test_classify_json_groups(capsys):
    code = run(["classify", "--class", "c3", "--n", "4", "--depth", "12",
                "--format", "json"])
    out, _ = capture(capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["w_n"] == 3
    assert sorted(len(g["members"]) for g in payload["groups"]) == [1, 2, 5]


def test_canon_commands(capsys):
    assert run(["canon", "--class", "c4", "--element", "a1 b3 a1"]) == 0
    out, _ = capture(capsys)
    assert out == "pair:b=3,2;a=\n"
    assert run(["canon", "--class", "c3", "--element", "2+1+2"]) == 0
    out, _ = capture(capsys)
    assert out == "partition:1,1,1,1,1\n"
    assert run(["canon", "--class", "c1", "--element", "t:1,1,0"]) == 2


def test_canon_rejects_malformed_element(capsys):
    code = run(["canon", "--class", "c4", "--element", "a1 a1"])
    _, err = capture(capsys)
    assert code == 2
    assert "error" in err


def test_roots_table(capsys):
    code = run(["roots", "--family", "q", "--max-n", "3"])
    out, _ = capture(capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "kind,index,value"
    assert lines[1].startswith("lis,1,-1.0")
    assert lines[2].startswith("lis,2,-0.38196601")


def test_gf_output(capsys):
    code = run(["gf", "--class", "c3", "--pattern", "2", "--expand", "4"])
    out, _ = capture(capsys)
    assert code == 0
    assert out.splitlines()[0] == "num = 1; den = 1 - t"
    assert out.splitlines()[-1] == "4,1"


def test_enumerate(capsys):
    code = run(["enumerate", "--class", "c2", "--n", "3"])
    out, _ = capture(capsys)
    assert code == 0
    assert out.splitlines()[1] == 'LL,"1,2,3"'
    assert len(out.splitlines()) == 5


def test_verify_failure_lines(monkeypatch, capsys):
    # deterministic fake counts that break every check: c3 patterns count by
    # their first part, every c1 pattern counts the same
    def fake_counts(class_id, pattern, depth):
        if class_id is ClassId.AV_312_123:
            return (1,) * (depth + 1)
        return (pattern[0],) * (depth + 1)

    monkeypatch.setattr(engine, "count_avoiders", fake_counts)
    assert run(["verify", "--class", "c3", "--n", "4", "--depth", "10"]) == 1
    out, _ = capture(capsys)
    assert out == (
        "check,result\n"
        "soundness,3 violations\n"
        "completeness,1 unseparated\n"
        "gf_crosscheck,failed: pattern (1, 1, 1, 1): coefficient 2 is 2, brute force gives 1\n"
    )
    assert run(["verify", "--class", "c1", "--n", "4", "--depth", "10"]) == 1
    out, _ = capture(capsys)
    assert out == "check,result\nwilf_count,1 != 2\n"


def test_verify_ok_and_usage_error(capsys):
    assert run(["verify", "--class", "c4", "--n", "3", "--depth", "10"]) == 0
    capture(capsys)
    assert run(["verify", "--class", "c9", "--n", "3", "--depth", "10"]) == 2
    capture(capsys)
    assert run(["nonsense"]) == 2
    capture(capsys)
    # sizes 0 and 1 have one pattern each, so any depth is accepted
    assert run(["classify", "--class", "c3", "--n", "1", "--depth", "0"]) == 0
    capture(capsys)


@pytest.mark.parametrize(
    "argv",
    [
        ["classify", "--class", "c3", "--n", "-1"],
        ["verify", "--class", "c4", "--n", "3", "--depth", "-1"],
        ["gf", "--class", "c3", "--pattern", "2", "--expand", "-3"],
        ["report", "--class", "c3", "--max-n", "0"],
        ["roots", "--family", "q", "--max-n", "0"],
        ["roots", "--family", "layered", "--max-n", "5", "--tol", "0"],
        # a depth up to the pattern size gives every pattern the same counts
        ["verify", "--class", "c1", "--n", "2", "--depth", "0"],
        ["verify", "--class", "c1", "--n", "2", "--depth", "2"],
        ["classify", "--class", "c3", "--n", "4", "--depth", "4"],
        ["report", "--class", "c3", "--max-n", "4", "--depth", "4"],
        # sizes and depths above the counting budget
        ["classify", "--class", "c2", "--n", "9", "--depth", "16"],
        ["classify", "--class", "c2", "--n", "3", "--depth", "19"],
        ["report", "--class", "c3", "--max-n", "9", "--depth", "12"],
        # --format only where the output honours it
        ["gf", "--class", "c3", "--pattern", "2", "--format", "json"],
        ["canon", "--class", "c4", "--element", "a1 b3 a1", "--format", "json"],
        ["verify", "--class", "c4", "--n", "3", "--depth", "10", "--format", "json"],
        # an enumerated size above the counting depth budget
        ["enumerate", "--class", "c2", "--n", "19"],
        # canonical forms and GFs exist for c3 and c4 only
        ["canon", "--class", "c1", "--element", "t:1,1,0"],
        ["gf", "--class", "c2", "--pattern", "LR"],
        # layered root indices start at 2
        ["roots", "--family", "layered", "--max-n", "1"],
        # --config without its PATH
        ["classify", "--class", "c3", "--n", "3", "--config"],
    ],
)
def test_out_of_domain_arguments_are_usage_errors(argv, capsys):
    assert run(argv) == 2
    out, err = capture(capsys)
    assert out == ""
    assert err.startswith("usage:") and "Traceback" not in err
    # argparse reports an unrecognised argument with the top-level usage line,
    # every other usage error with the subcommand's
    if not {"--tol", "--format"} & set(argv):
        assert err.startswith(f"usage: wilfcollapse {argv[0]} "), err


def test_determinism(capsys):
    run(["report", "--class", "c3", "--max-n", "4", "--depth", "10"])
    first, _ = capture(capsys)
    run(["report", "--class", "c3", "--max-n", "4", "--depth", "10"])
    second, _ = capture(capsys)
    assert first == second


def test_out_file(tmp_path, capsys):
    target = tmp_path / "table.csv"
    code = run(["report", "--class", "c2", "--max-n", "3", "--depth", "8",
                "--out", str(target)])
    out, _ = capture(capsys)
    assert code == 0
    assert out == ""
    assert target.read_text().splitlines()[0] == "n,c_n,w_n,canonical_count"


UNWRITABLE = ["report", "--class", "c2", "--max-n", "3", "--depth", "8", "--out"]


def test_unwritable_out_file(tmp_path, capsys):
    code = run([*UNWRITABLE, str(tmp_path / "missing" / "x.csv")])
    out, err = capture(capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("cannot write output: ") and "Traceback" not in err


def test_module_entry_point_reports_unwritable_out_file(tmp_path):
    src = str(Path(wilfcollapse.__file__).parents[1])
    done = subprocess.run(
        [sys.executable, "-m", "wilfcollapse", *UNWRITABLE, str(tmp_path / "missing" / "x.csv")],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr.startswith("cannot write output: ")
    assert "Traceback" not in done.stderr


def test_config_file_defaults(tmp_path, capsys):
    config = tmp_path / "run.conf"
    config.write_text("class=c3\nn=4\ndepth=12\n")
    code = run(["classify", "--config", str(config)])
    out, _ = capture(capsys)
    assert code == 0
    assert out.endswith("4,8,3,3\n")
    # explicit flags still win over the config file
    code = run(["classify", "--config", str(config), "--n", "3"])
    out, _ = capture(capsys)
    assert code == 0
    assert out.endswith("3,4,2,2\n")
    # the --config=PATH form is read too
    code = run(["classify", "--config=" + str(config), "--class", "c3", "--n", "4",
                "--format", "json"])
    out, _ = capture(capsys)
    assert code == 0
    assert json.loads(out)["depth"] == 12



@pytest.mark.parametrize("flag, joined", [("--conf", False), ("--co", False), ("--confi", True)])
def test_config_flag_prefixes_read_the_file(tmp_path, capsys, flag, joined):
    # argparse takes a unique prefix of --config; the file's defaults apply alike
    config = tmp_path / "run.conf"
    config.write_text("depth=12\n")
    config_args = [f"{flag}={config}"] if joined else [flag, str(config)]
    code = run(["classify", *config_args, "--class", "c3", "--n", "4", "--format", "json"])
    out, _ = capture(capsys)
    assert code == 0
    assert json.loads(out)["depth"] == 12


def test_config_flag_c_prefix_where_no_class_option(tmp_path, capsys):
    # roots has no --class, so argparse takes --c for --config there
    config = tmp_path / "run.conf"
    config.write_text("format=json\n")
    code = run(["roots", "--c", str(config), "--family", "q", "--max-n", "1"])
    out, _ = capture(capsys)
    assert code == 0
    assert json.loads(out)[0]["kind"] == "lis"

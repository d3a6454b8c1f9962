import argparse
import csv
import io
import json
import os
import subprocess
import sys
from decimal import Decimal
from pathlib import Path

import pytest

import wilfcollapse
from wilfcollapse import cli, engine
from wilfcollapse.cli import run
from wilfcollapse.encodings import (
    ClassId,
    format_function,
    generate,
    member_texts,
    to_permutation,
)
from wilfcollapse.errors import GFMismatchError
from wilfcollapse.genfun import avoid_gf
from wilfcollapse.perms import format_perm
from wilfcollapse.series import RationalGF


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


def test_canon_rejects_digits_outside_ascii(capsys):
    # int reads the Arabic-Indic two and the fullwidth three; the formats do not
    code = run(["canon", "--class", "c4", "--element", "a\u0662 b\uff13"])
    out, err = capture(capsys)
    assert code == 2 and out == ""
    assert "expected letters like a2 or b3 at position 0" in err


def test_canon_rejects_spaces_outside_ascii(capsys):
    # an ideographic space separates nothing: the format's spaces are ASCII
    code = run(["canon", "--class", "c4", "--element", "a1\u3000b3"])
    out, err = capture(capsys)
    assert code == 2 and out == ""
    assert "expected letters like a2 or b3 at position 0" in err


def test_roots_table(capsys):
    code = run(["roots", "--family", "q", "--max-n", "3"])
    out, _ = capture(capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "kind,index,value"
    assert lines[1].startswith("lis,1,-1.0")
    assert lines[2].startswith("lis,2,-0.38196601")


@pytest.mark.parametrize("family", ["q", "layered"])
@pytest.mark.parametrize("max_n", [1, 2, 3, 150, 400])
def test_roots_json_is_the_json_module_bytes(family, max_n, capsys):
    # roots builds its JSON text directly; it must equal json.dumps of the
    # rows the CSV table prints, each value read back as a float
    csv_code = run(["roots", "--family", family, "--max-n", str(max_n)])
    table, _ = capture(capsys)
    code = run(["roots", "--family", family, "--max-n", str(max_n), "--format", "json"])
    out, err = capture(capsys)
    if family == "layered" and max_n == 1:  # below the first layered index
        assert csv_code == code == 2 and out == ""
        return
    assert csv_code == code == 0 and err == ""
    payload = [
        {"kind": kind, "index": int(index), "value": float(value)}
        for kind, index, value in csv.reader(io.StringIO(table.partition("\n")[2]))
    ]
    assert len(payload) == max_n + (family == "q") - 1
    assert out == json.dumps(payload, indent=2) + "\n"


def test_gf_output(capsys):
    code = run(["gf", "--class", "c3", "--pattern", "2", "--expand", "4"])
    out, _ = capture(capsys)
    assert code == 0
    assert out.splitlines()[0] == "num = 1; den = 1 - t"
    assert out.splitlines()[-1] == "4,1"


def test_gf_expand_past_the_int_string_limit(capsys):
    # a single layer grows like 2^m, so about 14,300 terms pass 4,300 digits
    limit = sys.get_int_max_str_digits()
    order = 3 * limit + 1500
    code = run(["gf", "--class", "c3", "--pattern", "20", "--expand", str(order)])
    out, err = capture(capsys)
    coeffs = avoid_gf(ClassId.AV_312_231, (20,)).expand(order).integers()
    bound = 10**limit
    k = next(k for k, c in enumerate(coeffs) if c >= bound)
    assert coeffs[k - 1] < bound
    assert code == 1 and out == ""
    assert err == f"error: the coefficient of t^{k} has more than {limit} digits; lower --expand\n"
    assert sys.get_int_max_str_digits() == limit
    # one term fewer prints, and its last coefficient has exactly limit digits
    code = run(["gf", "--class", "c3", "--pattern", "20", "--expand", str(k - 1)])
    out, err = capture(capsys)
    assert code == 0 and err == ""
    last = out.splitlines()[-1]
    assert last == f"{k - 1},{coeffs[k - 1]}"
    assert len(last.partition(",")[2]) == limit


def test_gf_expand_digit_limit_boundaries(monkeypatch, capsys):
    # 10^limit - 1 of either sign has limit digits and prints (abs() would
    # round it up to limit + 1 digits); -10^limit is refused by its own index.
    # Built from text: unary minus, like abs(), rounds to 28 digits
    limit = sys.get_int_max_str_digits()
    widest, too_wide = Decimal("9" * limit), Decimal("-1" + "0" * limit)
    narrowest = Decimal("-" + "9" * limit)
    argv = ["gf", "--class", "c3", "--pattern", "2", "--expand", "3"]
    printed = (Decimal(1), widest, narrowest, Decimal(0))
    monkeypatch.setattr(RationalGF, "decimal_coefficients", lambda self, order: printed)
    code = run(argv)
    out, err = capture(capsys)
    assert code == 0 and err == ""
    assert out.splitlines()[2:] == [f"{k},{c}" for k, c in enumerate(printed)]
    refused = (widest, Decimal(0), too_wide, narrowest)
    monkeypatch.setattr(RationalGF, "decimal_coefficients", lambda self, order: refused)
    code = run(argv)
    out, err = capture(capsys)
    assert code == 1 and out == ""
    assert err == f"error: the coefficient of t^2 has more than {limit} digits; lower --expand\n"


def test_enumerate(capsys):
    code = run(["enumerate", "--class", "c2", "--n", "3"])
    out, _ = capture(capsys)
    assert code == 0
    assert out.splitlines()[1] == 'LL,"1,2,3"'
    assert len(out.splitlines()) == 5


def _enumerate_oracle(cid, n, fmt):
    # the rows as formatting and decoding each generated member writes them
    members = generate(cid, n)
    texts = [format_function(cid)(e) for e in members]
    if fmt == "json":
        payload = {"class": cid.value, "n": n, "count": len(members), "elements": texts}
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["element", "permutation"])
    writer.writerows((t, format_perm(to_permutation(cid, e))) for t, e in zip(texts, members))
    return buffer.getvalue()


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("cid", list(ClassId))
def test_enumerate_rows_match_member_by_member_formatting(cid, fmt, capsys):
    # c1 has quadratically many members: every size up to the limit
    for n in range(cli.MAX_ENUMERATE_SIZE + 1 if cid is ClassId.AV_312_123 else 13):
        assert run(["enumerate", "--class", cid.value, "--n", str(n), "--format", fmt]) == 0
        out, _ = capture(capsys)
        assert out == _enumerate_oracle(cid, n, fmt), (n, fmt)


@pytest.mark.parametrize("cid", list(ClassId))
def test_enumerate_fast_path_premises_up_to_the_limit(cid):
    # enumerate writes each text between bare quotes in JSON, and quotes a CSV
    # column exactly when its texts hold a comma: every c1 element text does
    # and no other element text does, a permutation text does from size 2 on
    for n in range(cli.MAX_ENUMERATE_SIZE + 1):
        for kind, comma in [("element", cid is ClassId.AV_312_123), ("permutation", n >= 2)]:
            texts = member_texts(cid, n, kind)
            joined = "".join(texts)
            assert joined.isascii() and joined.isprintable(), (n, kind)
            assert '"' not in joined and "\\" not in joined, (n, kind)
            assert {"," in t for t in texts} == {comma}, (n, kind)


def test_enumerate_limit_size_output_parses_back(capsys):
    # c2's permutation column is the quoted one
    elements = member_texts(ClassId.AV_312_213, 18, "element")
    perms = member_texts(ClassId.AV_312_213, 18, "permutation")
    assert run(["enumerate", "--class", "c2", "--n", "18", "--format", "json"]) == 0
    out, _ = capture(capsys)
    assert json.loads(out) == {"class": "c2", "count": 2**17, "elements": elements, "n": 18}
    assert run(["enumerate", "--class", "c2", "--n", "18", "--format", "csv"]) == 0
    out, _ = capture(capsys)
    rows = list(csv.reader(io.StringIO(out)))
    assert rows == [["element", "permutation"], *map(list, zip(elements, perms))]


def test_enumerate_edge_rows(capsys):
    # c2's empty permutation, and its size-1 member whose word is empty
    for n, row in [(0, "e,e"), (1, ",1"), (2, 'L,"1,2"')]:
        assert run(["enumerate", "--class", "c2", "--n", str(n)]) == 0
        out, _ = capture(capsys)
        assert out.splitlines()[1:2] == [row], n
    assert run(["enumerate", "--class", "c4", "--n", "0", "--format", "json"]) == 0
    out, _ = capture(capsys)
    assert json.loads(out)["elements"] == ["e"]


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_enumerate_out_file_matches_stdout(fmt, tmp_path, capsys):
    argv = ["enumerate", "--class", "c4", "--n", "7", "--format", fmt]
    assert run(argv) == 0
    out, _ = capture(capsys)
    target = tmp_path / f"rows.{fmt}"
    assert run(argv + ["--out", str(target)]) == 0
    assert capture(capsys) == ("", "")
    assert target.read_bytes() == out.encode()


def test_enumerate_has_its_own_limit(capsys):
    assert cli.MAX_ENUMERATE_SIZE == 18
    assert run(["enumerate", "--class", "c1", "--n", "18"]) == 0
    out, _ = capture(capsys)
    assert len(out.splitlines()) == 1 + 18 * 17 // 2 + 1
    assert run(["enumerate", "--class", "c1", "--n", "19"]) == 2
    _, err = capture(capsys)
    assert err.endswith("error: argument --n: must be at most 18, got 19\n")


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
        'gf_crosscheck,"failed: pattern (1, 1, 1, 1): coefficient 2 is 2, brute force gives 1"\n'
    )
    assert run(["verify", "--class", "c1", "--n", "4", "--depth", "10"]) == 1
    out, _ = capture(capsys)
    assert out == "check,result\nwilf_count,1 != 2\n"


def test_verify_gf_failure_is_one_csv_field(monkeypatch, capsys):
    exc = GFMismatchError((3, 1), 5, 8, 7)

    def fail(class_id, n, depth):
        raise exc

    monkeypatch.setattr(cli, "gf_crosscheck", fail)
    assert run(["verify", "--class", "c4", "--n", "3", "--depth", "10"]) == 1
    out, _ = capture(capsys)
    rows = list(csv.reader(io.StringIO(out)))
    assert all(len(row) == 2 for row in rows), rows
    assert rows[-1] == ["gf_crosscheck", f"failed: {exc}"]
    assert "," in str(exc)


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
        # sizes and depths above the CLI limits
        ["classify", "--class", "c2", "--n", "13", "--depth", "16"],
        ["classify", "--class", "c2", "--n", "3", "--depth", "34"],
        ["report", "--class", "c3", "--max-n", "13", "--depth", "12"],
        # --format only where the output honours it
        ["gf", "--class", "c3", "--pattern", "2", "--format", "json"],
        ["canon", "--class", "c4", "--element", "a1 b3 a1", "--format", "json"],
        ["verify", "--class", "c4", "--n", "3", "--depth", "10", "--format", "json"],
        # an enumerated size above the enumeration limit
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


@pytest.mark.parametrize(
    "argv, error",
    [
        (["enumerate", "--class", "c1", "--n", "18"], None),
        (["enumerate", "--class", "c1", "--n", "19"], "--n: must be at most 18, got 19"),
        (["enumerate", "--class", "c1", "--n", "-1"], "--n: must be at least 0, got -1"),
        (["classify", "--class", "c2", "--n", "12", "--depth", "16"], None),
        (["classify", "--class", "c2", "--n", "13", "--depth", "16"],
         "--n: must be at most 12, got 13"),
        (["classify", "--class", "c2", "--n", "-1"], "--n: must be at least 0, got -1"),
        (["classify", "--class", "c2", "--n", "3", "--depth", "33"], None),
        (["classify", "--class", "c2", "--n", "3", "--depth", "34"],
         "--depth: must be at most 33, got 34"),
        (["classify", "--class", "c2", "--n", "0", "--depth", "-1"],
         "--depth: must be at least 0, got -1"),
        (["verify", "--class", "c4", "--n", "13", "--depth", "16"],
         "--n: must be at most 12, got 13"),
        (["report", "--class", "c2", "--max-n", "12", "--depth", "16"], None),
        (["report", "--class", "c2", "--max-n", "13", "--depth", "16"],
         "--max-n: must be at most 12, got 13"),
        (["report", "--class", "c2", "--max-n", "0"], "--max-n: must be at least 1, got 0"),
        (["roots", "--family", "q", "--max-n", "1"], None),
        (["roots", "--family", "q", "--max-n", "0"], "--max-n: must be at least 1, got 0"),
        (["gf", "--class", "c3", "--pattern", "2", "--expand", "0"], None),
        (["gf", "--class", "c3", "--pattern", "2", "--expand", "-1"],
         "--expand: must be at least 0, got -1"),
    ],
)
def test_each_flag_range_at_both_ends(argv, error, capsys):
    # each flag's range is checked by its own type as it is parsed
    code = run(argv)
    out, err = capture(capsys)
    if error is None:
        assert code == 0 and out, err
    else:
        assert code == 2 and out == ""
        assert err.startswith(f"usage: wilfcollapse {argv[0]} "), err
        assert err.endswith(f"error: argument {error}\n"), err


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


def test_config_file_with_a_byte_order_mark(tmp_path, capsys):
    # editors on Windows often save UTF-8 with a BOM; it must not join the first key
    config = tmp_path / "run.conf"
    config.write_bytes(b"\xef\xbb\xbfclass=c3\nn=4\n")
    code = run(["classify", "--config", str(config), "--depth", "12"])
    out, _ = capture(capsys)
    assert code == 0
    assert run(["classify", "--class", "c3", "--n", "4", "--depth", "12"]) == 0
    assert capture(capsys)[0] == out


def test_config_file_not_utf8_is_unreadable(tmp_path, capsys):
    config = tmp_path / "run.conf"
    config.write_bytes(b"\xff\xfedepth=12\n")
    code = run(["gf", "--class", "c3", "--pattern", "1+2", "--config", str(config)])
    out, err = capture(capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("cannot read config: ") and "Traceback" not in err


@pytest.mark.parametrize("line", ["=3", " = 12"])
def test_config_line_without_key_is_unreadable(tmp_path, capsys, line):
    # an empty key would inject "--", which ends option parsing
    config = tmp_path / "run.conf"
    config.write_text(f"depth=12\n{line}\n")
    code = run(["classify", "--config", str(config), "--class", "c3", "--n", "4"])
    out, err = capture(capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("cannot read config: ") and f"line 2: no key in {line.strip()!r}" in err


def test_config_finder_pass_is_skipped_only_where_it_reads_nothing(tmp_path):
    # _apply_config runs the finder only if some token may spell --config; on
    # every argv here it opens a (missing) file exactly when the finder reads one
    path = str(tmp_path / "missing.conf")
    flags = ["--config"[:k] for k in range(1, 9)] + [
        "--configs", "--cfg", "---config", "-config", "-c", "--class", "--Config"]
    argvs = [["classify"], ["classify", "--"], ["classify", "--class", "c3"],
             ["classify", "--", "--config", path], ["gf", "--pattern", "--config", path]]
    for flag in flags:
        for spelled in ([flag, path], [f"{flag}={path}"], [f"{flag}="], [flag]):
            argvs += [["classify", *spelled], ["roots", *spelled, "--family", "q"],
                      ["classify", "--n", "3", *spelled, "--class", "c3"]]
    read = 0
    for argv in argvs:
        try:
            reads = cli._config_finder().parse_known_args(argv)[0].config is not None
        except argparse.ArgumentError:
            reads = False
        if reads:
            read += 1
            with pytest.raises(FileNotFoundError):
                cli._apply_config(argv)
        else:
            assert cli._apply_config(argv) is argv, argv
    # at least every prefix from --c to --config, spaced or joined, in each of 3 places
    assert read >= 6 * 2 * 3


def test_parser_is_built_once():
    assert cli._build_parser() is cli._build_parser()
    assert cli._config_finder() is cli._config_finder()


@pytest.mark.parametrize("columns", ["80", "40"])
def test_reused_parser_carries_no_state(tmp_path, monkeypatch, capsys, columns):
    # help, usage errors, config runs and normal ops in one process give the
    # same bytes from the shared parsers as from parsers built for each op
    monkeypatch.setenv("COLUMNS", columns)
    config = tmp_path / "run.conf"
    config.write_text("depth=12\n")
    ops = [
        ["gf", "--help"],
        ["--help"],
        ["nonsense"],
        [],
        ["classify", "--class", "c2", "--n", "13", "--depth", "16"],
        ["roots", "--family", "layered", "--max-n", "1"],
        ["gf", "--class", "c3", "--pattern", "2+1", "--expand", "6"],
        ["classify", "--config", str(config), "--class", "c3", "--n", "4", "--format", "json"],
        ["canon", "--class", "c4", "--element", "a1 b3 a1"],
        ["classify", "--conf", str(config), "--class", "c3", "--n", "4", "--format", "json"],
        ["verify", "--class", "c4", "--n", "3", "--depth", "10"],
        ["canon", "--class", "c3", "--element", "2+x"],
        ["gf", "--class", "c3", "--pattern", "2", "--format", "json"],
    ]

    def outcome(argv, fresh):
        if fresh:
            cli._build_parser.cache_clear()
            cli._config_finder.cache_clear()
        code = run(argv)
        return (code, *capture(capsys))

    fresh = [outcome(argv, True) for argv in ops * 2]
    reused = [outcome(argv, False) for argv in ops * 2]
    assert reused == fresh
    assert [code for code, _, _ in fresh[: len(ops)]] == [0, 0, 2, 2, 2, 2, 0, 0, 0, 0, 0, 2, 2]


def parse_outcome(parse, argv, capsys):
    """What a parse gives: the namespace's vars, or the exit code and output of its exit."""
    try:
        return vars(parse(argv))
    except SystemExit as exc:
        return (exc.code, *capture(capsys))


COMMAND_SPELLINGS = {
    "enumerate": [["--class", "c2", "--n=5"], ["--cl", "c1", "--n", "3", "--format=json"]],
    "classify": [["--class", "c3", "--n=4", "--depth", "12"],
                 ["--cl", "c3", "--n", "4", "--format=json", "--depth", "9", "--depth", "12"]],
    "canon": [["--class", "c4", "--element", "a1 b3 a1"], ["--cl", "c3", "--element=-1"]],
    "gf": [["--class", "c4", "--pattern", "-1"], ["--class", "c3", "--pattern=-2+1"],
           ["--cl", "c3", "--pattern", "2", "--expand=6", "--expand", "4"]],
    "roots": [["--family", "q", "--max-n=3"], ["--fam", "layered", "--max-n", "4",
                                              "--format=json", "--format", "csv"]],
    "verify": [["--class", "c4", "--n=3", "--depth", "10"], ["--cl", "c1", "--n", "2", "--n", "3"]],
    "report": [["--class", "c3", "--max-n=4", "--depth", "10"],
               ["--cl", "c4", "--max-n", "3", "--format=json", "--depth", "11"]],
}
# defaults from --config that the first spelling's flags override
CONFIG_DEFAULTS = {
    "enumerate": "class=c4\nn=2\nformat=json\n",
    "classify": "class=c2\nn=2\ndepth=11\nformat=json\n",
    "canon": "class=c3\nelement=2\n",
    "gf": "class=c3\npattern=2\nexpand=3\n",
    "roots": "family=layered\nmax-n=2\nformat=json\n",
    "verify": "class=c1\nn=2\ndepth=11\n",
    "report": "class=c2\nmax-n=2\ndepth=11\nformat=json\n",
}
# each spelling and the same through --config parse; the command's parser
# reports a missing flag and help, the top-level parser leftover tokens
PARSE_CASES = [
    ([command, *tail], parses)
    for command, spellings in COMMAND_SPELLINGS.items()
    for tail, parses in [
        *[(spelled, True) for spelled in spellings],
        (["--config", "CONFIG", *spellings[0]], True),
        ([], False),
        (["-h"], False),
        ([*spellings[0], "--tol", "3"], False),
        ([*spellings[0], "x"], False),
        ([*spellings[0], "--", "x"], False),
    ]
]


@pytest.mark.parametrize("argv, parses", PARSE_CASES, ids=[" ".join(a) for a, _ in PARSE_CASES])
def test_parse_matches_the_top_level_parser(argv, parses, tmp_path, monkeypatch, capsys):
    # an op that starts with a command word is parsed by that command's parser
    # alone, to the namespace, usage error or help the top-level parser gives
    monkeypatch.setenv("COLUMNS", "80")
    config = tmp_path / "run.conf"
    config.write_text(CONFIG_DEFAULTS[argv[0]])
    argv = cli._apply_config([str(config) if tok == "CONFIG" else tok for tok in argv])
    top_level = parse_outcome(cli._build_parser().parse_args, argv, capsys)
    assert parse_outcome(cli._parse, argv, capsys) == top_level
    assert isinstance(top_level, dict) is parses, top_level
    if parses:
        assert top_level["command"] == argv[0]


@pytest.mark.parametrize("argv", [[], ["-h"], ["--help"], ["bogus"],
                                  ["--", "gf", "--class", "c3", "--pattern", "2"]])
def test_ops_without_a_command_word_keep_the_top_level_parse(argv, capsys):
    expected = parse_outcome(cli._build_parser().parse_args, argv, capsys)
    code = run(argv)
    out, err = capture(capsys)
    if isinstance(expected, dict):  # a Python whose argparse drops a leading "--"
        assert code == 0 and out, err
    else:
        assert code == expected[0]
        assert (out or err).splitlines()[0] == (expected[1] or expected[2]).splitlines()[0]


def test_depth_below_the_proving_depth_is_noted(capsys):
    # below c4's D(8) = 21 the row is unchanged, and one note names D(n)
    assert run(["classify", "--class", "c4", "--n", "8", "--depth", "10"]) == 0
    out, err = capture(capsys)
    assert out == "n,c_n,w_n,canonical_count\n8,128,32,33\n"
    assert err.startswith("note: --depth 10 is below D(8) = 21,") and err.count("\n") == 1
    assert run(["report", "--class", "c3", "--max-n", "6", "--depth", "9"]) == 0
    assert capture(capsys)[1].startswith("note: --depth 9 is below D(6) = 10,")
    for argv in (["classify", "--class", "c4", "--n", "6", "--depth", "15"],
                 ["classify", "--class", "c3", "--n", "8", "--depth", "14"],
                 ["report", "--class", "c4", "--max-n", "5", "--depth", "12"],
                 ["classify", "--class", "c2", "--n", "8", "--depth", "10"]):
        assert run(argv) == 0
        assert capture(capsys)[1] == "", argv


@pytest.mark.parametrize("class_id", ["c1", "c2", "c3", "c4"])
def test_an_omitted_depth_is_the_proving_depth(class_id, capsys):
    # each counting command counts to engine.proving_depth of its size, where
    # every check passes and no note is printed
    for n in range(cli.MAX_PATTERN_SIZE + 1):
        depth = str(engine.proving_depth(ClassId(class_id), n))
        ops = [["classify", "--n", str(n)], ["classify", "--n", str(n), "--format", "json"],
               ["verify", "--n", str(n)]] + [["report", "--max-n", str(n)]] * (n > 0)
        for op in ops:
            argv = [*op, "--class", class_id]
            assert run(argv) == 0, argv
            out, err = capture(capsys)
            assert out and err == "", argv
            assert run([*argv, "--depth", depth]) == 0
            assert capture(capsys) == (out, ""), argv


def test_c4_at_the_size_limit_is_proved_by_default(capsys):
    # the omitted depth is D(12) = 33, so w_n reaches all 158 Wilf classes
    n = str(cli.MAX_PATTERN_SIZE)
    assert run(["classify", "--class", "c4", "--n", n]) == 0
    assert capture(capsys) == ("n,c_n,w_n,canonical_count\n12,2048,158,158\n", "")
    assert run(["classify", "--class", "c4", "--n", n, "--format", "json"]) == 0
    assert json.loads(capture(capsys)[0])["depth"] == 33


def test_an_op_with_a_command_word_skips_the_top_level_pass(monkeypatch, capsys):
    def top_level_pass(*args, **kwargs):
        raise AssertionError("the top-level parser parsed an op with a command word")

    monkeypatch.setattr(cli._build_parser(), "parse_known_args", top_level_pass)
    assert run(["gf", "--class", "c3", "--pattern", "2+1"]) == 0
    assert capture(capsys)[0].startswith("num = ")

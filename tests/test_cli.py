import csv
import hashlib
import io
import json
import os
import shlex
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (broken_top_json, naive_sampled_validation,
                     one_point_top_json, planted_table_json)
from slat import core, metrics, weights
from slat._bitset import mask_of
from slat.cli import SWEEP_COLUMNS, _sweep_instance, _verify_battery, main
from slat.propagation import v_value

SLAT = [sys.executable, "-m", "slat.cli"]
# the package source, so that a subprocess runs it without an install
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")
SLAT_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    filter(None, [SRC, os.environ.get("PYTHONPATH")]))}


def run(args, **kw):
    return subprocess.run(SLAT + args, capture_output=True, text=True,
                          env=SLAT_ENV, **kw)


def test_breadth_subcommand(capsys):
    assert main(["breadth", "tree(2,3)"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["breadth"] == 2 and out["exhaustive"]


def test_defect_and_dist(capsys):
    assert main(["defect", "pstar(3)", "--weight", "cardinality",
                 "--set", "0,1"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["defect"]["kind"] == "exp"
    assert main(["dist", "pstar(3)", "--weight", "cardinality",
                 "--set", "0"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert "witness" in out


def test_fbp_and_vmap(capsys):
    assert main(["fbp", "pstar(3)", "--weight", "cardinality",
                 "--C", "2", "--set", "0,1"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert set(out["set"]).issubset(set(out["closure"]))
    assert main(["vmap", "pstar(3)", "--weight", "prototype",
                 "--E", "0,1,2", "--z", "6"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["value"] == {"kind": "finite", "c": {"num": 2, "den": 1},
                            "approx": 2.0}


def test_profile_subcommand(capsys):
    assert main(["profile", "pstar(3)", "--weight", "prototype",
                 "--L", "1"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["exhaustive"] and out["value"]["c"] == {"num": 2, "den": 1}


# profile output as the per-set closure pass printed it, field by field:
# cubes and a truncation at two levels, a random weight, sampled runs, a
# collapsed top, and a product table
PROFILE_FIELDS = ("value", "witness_E", "witness_z", "nodes", "exhaustive")
PINNED_PROFILES = [
    (["pstar(5)", "--weight", "cardinality", "--L", "2"],
     '{"exhaustive": true, "nodes": 1271, "value": {"approx": 2.0, "c": '
     '{"den": 1, "num": 2}, "kind": "finite"}, "witness_E": [0, 1], '
     '"witness_z": 5}'),
    (["pstar(5)", "--weight", "cardinality", "--L", "3"],
     '{"exhaustive": true, "nodes": 6216, "value": {"approx": 3.0, "c": '
     '{"den": 1, "num": 3}, "kind": "finite"}, "witness_E": [0, 1, 2], '
     '"witness_z": 15}'),
    (["fin(5,4)", "--weight", "cardinality", "--L", "2"],
     '{"exhaustive": true, "nodes": 1287, "value": {"approx": 2.0, "c": '
     '{"den": 1, "num": 2}, "kind": "finite"}, "witness_E": [1, 2], '
     '"witness_z": 6}'),
    (["fin(5,4)", "--weight", "cardinality", "--L", "3"],
     '{"exhaustive": true, "nodes": 6242, "value": {"approx": 3.0, "c": '
     '{"den": 1, "num": 3}, "kind": "finite"}, "witness_E": [1, 2, 3], '
     '"witness_z": 16}'),
    (["powerset(4)", "--weight", "random:7", "--L", "3/2"],
     '{"exhaustive": true, "nodes": 45, "value": {"approx": 0.5, "c": '
     '{"den": 2, "num": 1}, "kind": "finite"}, "witness_E": [2, 7], '
     '"witness_z": 12}'),
    (["pstar(5)", "--weight", "cardinality", "--L", "3", "--budget", "5"],
     '{"exhaustive": false, "nodes": 6, "value": {"approx": 3.0, "c": '
     '{"den": 1, "num": 3}, "kind": "finite"}, "witness_E": [0, 1, 2], '
     '"witness_z": 15}'),
    (["pstar(6)", "--weight", "random:3", "--L", "1", "--budget", "50"],
     '{"exhaustive": false, "nodes": 51, "value": {"approx": 1.0, "c": '
     '{"den": 1, "num": 1}, "kind": "finite"}, "witness_E": [0], '
     '"witness_z": 0}'),
    (["fin(6,3)", "--weight", "cardinality", "--L", "2"],
     '{"exhaustive": true, "nodes": 3648, "value": {"approx": 2.0, "c": '
     '{"den": 1, "num": 2}, "kind": "finite"}, "witness_E": [1, 2], '
     '"witness_z": 7}'),
    (["fin(6,3)", "--weight", "cardinality", "--L", "2", "--budget", "5",
      "--seed", "3"],
     '{"exhaustive": false, "nodes": 6, "value": {"approx": 2.0, "c": '
     '{"den": 1, "num": 2}, "kind": "finite"}, "witness_E": [11, 17], '
     '"witness_z": 0}'),
    (["tree(2,3)", "--weight", "random:5", "--L", "2"],
     '{"exhaustive": true, "nodes": 85, "value": {"approx": 2.0, "c": '
     '{"den": 1, "num": 2}, "kind": "finite"}, "witness_E": [0], '
     '"witness_z": 7}'),
]


@pytest.mark.parametrize("block_elems", [None, 96])
@pytest.mark.parametrize("args, expect", PINNED_PROFILES,
                         ids=[" ".join(a) for a, _ in PINNED_PROFILES])
def test_profile_output_is_pinned(args, expect, block_elems, capsys,
                                  monkeypatch):
    from slat import core
    if block_elems:     # blocks of 1 to 6 generating sets
        monkeypatch.setattr(core, "NP_BLOCK_ELEMS", block_elems)
    assert main(["profile", *args]) == 0
    out = json.loads(capsys.readouterr().out)
    assert json.dumps({k: out[k] for k in PROFILE_FIELDS},
                      sort_keys=True) == expect


def test_profile_of_fin_7_6_at_level_2_is_fast(capsys):
    t = time.perf_counter()
    assert main(["profile", "fin(7,6)", "--weight", "cardinality",
                 "--L", "2"]) == 0
    assert time.perf_counter() - t < 1.5
    out = json.loads(capsys.readouterr().out)
    assert (out["nodes"], out["witness_E"], out["witness_z"]) == \
        (56352, [1, 2], 8)
    assert out["value"]["c"] == {"num": 2, "den": 1}


def test_analyze_reads_instance_file(tmp_path, capsys):
    from slat.core import free_nonempty
    path = tmp_path / "inst.json"
    obj = free_nonempty(3).to_json()
    obj["logweight"] = {"kind": "cardinality"}
    path.write_text(json.dumps(obj))
    assert main(["analyze", str(path)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["n"] == 7 and out["logweight"]["name"] == "cardinality"


def test_malformed_json_is_usage_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["analyze", str(path)]) == 2
    err = capsys.readouterr().err
    assert "line" in err and "column" in err


def test_missing_file_is_usage_error(capsys):
    assert main(["analyze", "/nonexistent/inst.json"]) == 2


def test_top_level_json_list_is_usage_error(tmp_path):
    path = tmp_path / "list.json"
    path.write_text("[1, 2, 3]")
    proc = run(["analyze", str(path)])
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error:")
    proc = run(["analyze", "pstar(3)", "--weight", str(path)])
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr


def test_zero_denominator_weight_is_usage_error(tmp_path):
    from slat.core import chain
    path = tmp_path / "inst.json"
    obj = chain(2).to_json()
    obj["logweight"] = {"kind": "explicit",
                        "values": [{"num": 1, "den": 1},
                                   {"num": 1, "den": 0}]}
    path.write_text(json.dumps(obj))
    proc = run(["analyze", str(path)])
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error:")


_NEGATIVE_ARGS = {"analyze": [], "vmap": ["--E", "0", "--z", "0"],
                  "defect": ["--set", "0"], "dist": ["--set", "0"],
                  "fbp": ["--C", "0", "--set", "0"], "profile": ["--L", "0"],
                  "verify": []}


@pytest.mark.parametrize("command", sorted(_NEGATIVE_ARGS))
def test_negative_explicit_weight_exits_one(tmp_path, capsys, command):
    path = tmp_path / "weight.json"
    path.write_text(json.dumps({"kind": "explicit",
                                "values": [{"num": 0, "den": 1},
                                           {"num": -1, "den": 2},
                                           {"num": -1, "den": 1}]}))
    rc = main([command, "chain(3)", "--weight", str(path),
               *_NEGATIVE_ARGS[command]])
    out, err = capsys.readouterr()
    assert rc == 1
    if command == "verify":
        rep = json.loads(out)["suites"][0]["logweight_valid"]
        assert {"kind": "Negative", "witness": [1]} in rep["violations"]
    else:
        assert out == ""
        assert err == "error: element 1 has negative log-weight -1/2\n"


def test_flag_a_command_does_not_read_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["breadth", "tree(2,3)", "--seed", "1"])
    assert exc.value.code == 2
    assert "--seed" in capsys.readouterr().err


@pytest.mark.parametrize("value", [1, {"num": 1, "den": "x"},
                                   {"num": "1", "den": 1}, {"num": 1}],
                         ids=["bare-number", "string-den", "string-num",
                              "missing-den"])
def test_malformed_weight_value_is_usage_error(tmp_path, value):
    path = tmp_path / "weight.json"
    path.write_text(json.dumps({"kind": "explicit",
                                "values": [{"num": 1, "den": 1}, value]}))
    proc = run(["analyze", "chain(2)", "--weight", str(path)])
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error:")


@pytest.mark.parametrize("obj, key", [
    ({"kind": "table"}, "product"),
    ({"kind": "set_system", "elements": [[0]]}, "ground"),
    ({"kind": "set_system", "ground": ["a"]}, "elements"),
], ids=["table-product", "sets-ground", "sets-elements"])
def test_instance_missing_key_is_usage_error(tmp_path, obj, key):
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(obj))
    proc = run(["analyze", str(path)])
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error:") and repr(key) in proc.stderr


_SETS3 = {"kind": "set_system", "ground": ["a", "b"],
          "elements": [[0], [1], [0, 1]]}


@pytest.mark.parametrize("obj", [
    {"kind": "table", "product": [[0, 0], [0, 1.5]]},
    {"kind": "table", "product": [[0, 0], [0, True]]},
    dict(_SETS3, collapsed_top=7),
    dict(_SETS3, collapsed_top=-1),
    dict(_SETS3, collapsed_top=1.5),
    dict(_SETS3, collapsed_top="2"),
], ids=["table-float", "table-bool", "top-too-big", "top-negative",
        "top-float", "top-string"])
@pytest.mark.parametrize("command", ["analyze", "verify"])
def test_malformed_element_id_is_usage_error(tmp_path, obj, command):
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(obj))
    proc = run([command, str(path)])
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1


@pytest.mark.parametrize("obj, bad", [
    ({"kind": "table", "product": [1, 2]}, "1"),
    ({"kind": "table", "product": 5}, "5"),
    ({"kind": "set_system", "ground": ["a"], "elements": [["x"]]}, "'x'"),
    (dict(_SETS3, elements=[[0], [5], [0, 5]], collapsed_top=2), "5"),
    ({"kind": "set_system", "ground": ["a"], "elements": [[-1]]}, "-1"),
], ids=["table-row-int", "table-int", "index-string", "index-out-of-range",
        "index-negative"])
def test_malformed_shape_is_usage_error(tmp_path, obj, bad):
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(obj))
    proc = run(["analyze", str(path)])
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1
    assert f" {bad} " in proc.stderr      # the message names the value


@pytest.mark.parametrize("obj", [
    dict(_SETS3, labels=5),
    dict(_SETS3, labels=["x", "y"]),
    dict(_SETS3, labels=["x", "y", 3]),
    dict(_SETS3, labels=["x", "y"], collapsed_top=2),
    {"kind": "table", "product": [[0, 0], [0, 1]], "labels": "xy"},
], ids=["number", "short-list", "non-string", "collapsed-top-short",
        "table-string"])
def test_malformed_labels_are_usage_error(tmp_path, obj):
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(obj))
    proc = run(["verify", str(path)])
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1
    assert "labels" in proc.stderr


@pytest.mark.parametrize("spec", ["cardinality", "prototype", "scaled:1/2"])
def test_set_system_weight_on_table_is_usage_error(spec):
    proc = run(["analyze", "chain(3)", "--weight", spec])
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error:")


def test_adversary_subcommand(capsys):
    assert main(["adversary", "fin(12,6)", "--nmax", "3"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["all_passed"]
    assert out["chain"]["depth"] == 3
    assert len(out["barriers"]) == 2


def test_adversary_insufficient_breadth_is_exit_zero(capsys):
    # strict mode surfaces the shortage; it is a finding, not a failure
    assert main(["adversary", "fin(6,2)", "--nmax", "5", "--strict"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert "insufficient_breadth" in out


def test_profile_strict_budget_exhaustion_exit_code(capsys):
    assert main(["profile", "pstar(4)", "--weight", "cardinality",
                 "--L", "4", "--budget", "3", "--strict"]) == 3


def test_sweep_csv(capsys):
    assert main(["sweep", "--family", "prototype", "--range", "2:5",
                 "--op", "vmap"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].startswith("family,param,")
    values = [line.split(",")[4] for line in lines[1:]]
    assert values == ["1", "2", "2", "3"]


def test_verify_deterministic_bytes():
    a = run(["verify", "--seed", "7"])
    b = run(["verify", "--seed", "7"])
    assert a.returncode == 0 and b.returncode == 0
    assert a.stdout == b.stdout


def test_text_format(capsys):
    assert main(["breadth", "chain(4)", "--format", "text"]) == 0
    out = capsys.readouterr().out
    assert "breadth: 1" in out


def test_console_script_installed():
    proc = run(["--help"])
    assert proc.returncode == 0
    assert "analyze" in proc.stdout


# -- the input boundary ------------------------------------------------------

def _main(argv):
    """``main(argv)`` with its output captured: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = main(argv)
    return rc, out.getvalue(), err.getvalue()


def _one_error_line(err):
    return err.startswith("error:") and err.count("\n") == 1


# sha256 of the depth-5 report as the pair-by-pair closure pass printed it
ADVERSARY_FIN_20_15_DEPTH_5 = ("e3ca4f932c067dffa1d5ac43b55c5527"
                               "a9c9507b545252da32dbd35fae33f714")


def test_depth_five_adversary_report_is_unchanged():
    rc, out, err = _main(["adversary", "fin(20,15)", "--nmax", "5"])
    assert rc == 0 and err == ""
    assert [b["value"]["c"]["num"] for b in json.loads(out)["barriers"]] \
        == [1, 2, 2, 3]
    assert hashlib.sha256(out.encode()).hexdigest() == \
        ADVERSARY_FIN_20_15_DEPTH_5


# sha256 of the report as the per-triple sampling loop of validate printed it
VERIFY_FIN_10_5_SEED_3 = ("dc012a339617844fc78219512f252ae1"
                          "eb7eb537f8807b86d98a4e180772f662")


def test_sampled_verify_report_is_unchanged():
    rc, out, err = _main(["verify", "fin(10,5)", "--seed", "3"])
    assert rc == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_FIN_10_5_SEED_3


def test_parser_reuse_leaks_no_option_between_calls():
    """One process runs a sequence of commands through ``main``, which
    reuses its parser; each prints what it prints in a fresh interpreter."""
    profile = ["profile", "fin(6,3)", "--L", "2"]
    seq = [profile + ["--weight", "cardinality", "--budget", "20",
                      "--seed", "5"],
           profile + ["--weight", "cardinality", "--budget", "20"],
           profile,
           ["profile", "fin(6,3)"],  # no --L: argparse exits 2
           ["verify", "chain(3)", "--format", "text"],
           ["verify", "chain(3)"]]
    outs = []
    for argv in seq:
        try:
            rc, out, _ = _main(argv)
        except SystemExit as exc:
            rc, out = exc.code, ""
        proc = run(argv)
        assert (rc, out) == (proc.returncode, proc.stdout), argv
        outs.append(out)
    assert [o == "" for o in outs] == [False, False, False, True, False,
                                       False]
    assert len(set(outs)) == len(outs)


def test_adversary_on_a_table_is_usage_error():
    rc, out, err = _main(["adversary", "chain(3)", "--nmax", "2"])
    assert rc == 2 and out == "" and _one_error_line(err)


@pytest.mark.parametrize("command", ["breadth", "analyze"])
def test_directory_as_instance_is_usage_error(tmp_path, command):
    rc, _, err = _main([command, str(tmp_path)])
    assert rc == 2 and _one_error_line(err)


def test_directory_as_weight_is_usage_error(tmp_path):
    rc, _, err = _main(["analyze", "pstar(2)", "--weight", str(tmp_path)])
    assert rc == 2 and _one_error_line(err)


def test_builtin_weight_name_is_not_shadowed_by_a_file(tmp_path, monkeypatch):
    (tmp_path / "cardinality").write_text(json.dumps({"kind": "zero"}))
    monkeypatch.chdir(tmp_path)
    rc, out, _ = _main(["analyze", "pstar(2)", "--weight", "cardinality"])
    assert rc == 0 and json.loads(out)["logweight"]["name"] == "cardinality"


def test_value_error_inside_an_algorithm_is_not_a_usage_error(monkeypatch):
    import slat.cli

    def broken(S, cap):
        raise ValueError("internal")

    monkeypatch.setattr(slat.cli, "run_breadth", broken)
    with pytest.raises(ValueError, match="internal"):
        main(["breadth", "chain(3)"])


@pytest.mark.parametrize("argv", [
    ["adversary", "fin(5,2)", "--nmax", "0"],
    ["vmap", "pstar(3)", "--E", "0", "--z", "0,1"],
    ["vmap", "pstar(3)", "--E", "0", "--z", "x"],
    ["analyze", "pstar(3)", "--weight", "scaled:1/0"],
    ["analyze", "pstar(3)", "--weight", "no-such-weight"],
    ["sweep", "--family", "prototype", "--range", "1:2", "--op", "profile",
     "--L", "x"],
    ["analyze", "pstar(3)", "--cap", "-1"],
    ["breadth", "tree(2,3)", "--cap", "-3"],
    ["profile", "pstar(3)", "--weight", "prototype", "--L", "1", "--budget",
     "-1"],
    ["sweep", "--family", "prototype", "--range", "2:3", "--op", "breadth",
     "--cap", "-1"],
    ["sweep", "--family", "prototype", "--range", "2:3", "--op", "profile",
     "--budget", "-1"],
    ["defect", "pstar(3)", "--set", "0,9"],
    ["vmap", "pstar(3)", "--E", "0,1", "--z", "7"],
    ["analyze", "pstar(3)", "--weight", "scaled:-1/2"],
    ["sweep", "--family", "tree({},2)", "--range", "1:2", "--op", "vmap"],
], ids=["nmax-zero", "z-two-ids", "z-not-int", "scale-zero-den",
        "unknown-weight", "sweep-rational", "analyze-cap-negative",
        "breadth-cap-negative", "profile-budget-negative",
        "sweep-cap-negative", "sweep-budget-negative", "set-id-past-n",
        "z-past-n", "scale-negative", "sweep-vmap-on-a-table"])
def test_malformed_flag_value_is_usage_error(argv):
    rc, out, err = _main(argv)
    assert rc == 2 and out == "" and _one_error_line(err)


def test_an_instance_file_holding_a_list_is_usage_error(tmp_path):
    path = _instance_file(tmp_path, [[0], [1]])
    rc, out, err = _main(["analyze", path])
    assert (rc, out) == (2, "")
    assert err == f"error: {path}: instance must be a JSON object\n"


def test_a_strict_sweep_notes_each_profile_past_its_budget():
    rc, out, err = _main(["sweep", "--family", "pstar", "--range", "3:4",
                          "--op", "profile", "--L", "2", "--budget", "0",
                          "--strict"])
    assert (rc, err) == (0, "")
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [r["param"] for r in rows] == ["3", "4"]
    assert {r["note"] for r in rows} == \
        {"budget: profile enumeration exceeded the budget"}


@pytest.mark.parametrize("argv", [
    ["breadth", "tree(2,3)", "--cap", "0"],
    ["sweep", "--family", "prototype", "--range", "2:3", "--op", "breadth",
     "--cap", "0"],
    ["profile", "pstar(3)", "--weight", "prototype", "--L", "1", "--budget",
     "0"],
], ids=["breadth-cap", "sweep-cap", "profile-budget"])
def test_zero_cap_and_budget_are_legal(argv):
    rc, out, err = _main(argv)
    assert rc == 0 and err == ""
    if argv[0] == "profile":    # nodes is the budget + 1
        assert json.loads(out)["nodes"] == 1


def test_sweep_has_no_format_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--family", "prototype", "--range", "2:3",
              "--format", "json"])
    assert exc.value.code == 2
    assert "--format" in capsys.readouterr().err


def test_table_cap_is_checked_before_a_table_is_built(monkeypatch):
    from slat import core
    monkeypatch.setattr(core, "TABLE_HARD_CAP", 8)
    assert core.chain(8).n == 8 and core.kary_tree(1, 7).n == 8
    for build in (lambda: core.chain(9), lambda: core.kary_tree(2, 3),
                  lambda: core.kary_tree(1, 10**12),
                  lambda: core.Semilattice.from_table([[0] * 9] * 9),
                  lambda: core.free_nonempty(4).product_table_np()):
        with pytest.raises(core.SizeOverflowError):
            build()
    rc, _, err = _main(["analyze", "chain(9)"])
    assert rc == 2 and _one_error_line(err)


def test_cube_cap_is_checked_before_a_cube_is_built():
    from slat import core
    assert core.generate_instance("fin(24,21)").n == 16_776_916
    for spec in ("fin(3000,2999)", "fin(25,24)", "fin(1000000000,999999999)"):
        rc, out, err = _main(["analyze", spec])
        assert rc == 2 and out == "" and _one_error_line(err)


def test_random_weight_above_the_table_cap_is_a_usage_error():
    rc, out, err = _main(["vmap", "pstar(13)", "--weight", "random:1",
                          "--E", "0", "--z", "0"])
    assert rc == 2 and out == "" and _one_error_line(err)
    assert "random:1" in err and "4096" in err


def test_sweep_writes_nothing_when_a_row_is_a_usage_error():
    rc, out, err = _main(["sweep", "--family", "prototype", "--range", "0:2"])
    assert rc == 2 and out == "" and _one_error_line(err)
    assert "pstar(0)" in err


@pytest.mark.parametrize("obj", [
    {"kind": "table", "product": []},
    {"kind": "set_system", "ground": ["a"], "elements": []},
], ids=["table", "set-system"])
@pytest.mark.parametrize("command", ["analyze", "verify"])
def test_empty_instance_is_usage_error(tmp_path, obj, command):
    path = tmp_path / "empty.json"
    path.write_text(json.dumps(obj))
    rc, _, err = _main([command, str(path)])
    assert rc == 2 and _one_error_line(err)


_NOT_SEMILATTICES = {
    "NotCommutative": [[0, 0], [1, 1]],          # x * y = x
    "NotIdempotent": [[1, 1], [1, 1]],           # constant
    "NotAssociative": [[0, 2, 1], [2, 1, 0], [1, 0, 2]],
    # commutative and idempotent, with (0 * 2) * 1 = 1 but 0 * (2 * 1) = 3:
    # of the sorted triple 0 <= 1 <= 2 only the (xz)y bracketing fails
    "NotAssociative:xzy": [[0, 3, 2, 3], [3, 1, 1, 3], [2, 1, 2, 3],
                           [3, 3, 3, 3]],
}


@pytest.mark.parametrize("name", sorted(_NOT_SEMILATTICES))
def test_verify_reports_a_table_that_is_not_a_semilattice(tmp_path, name):
    kind = name.split(":")[0]
    path = tmp_path / "table.json"
    path.write_text(json.dumps({"kind": "table",
                                "product": _NOT_SEMILATTICES[name]}))
    rc, out, _ = _main(["verify", str(path)])
    rep = json.loads(out)["suites"][0]["instance_valid"]
    assert rc == 1 and not rep["ok"]
    assert {v["kind"] for v in rep["violations"]} == {kind}
    # every other command refuses it at the boundary
    rc, out, err = _main(["breadth", str(path)])
    assert rc == 2 and out == "" and _one_error_line(err) and kind in err


@pytest.mark.parametrize("argv", [
    ["analyze"], ["defect", "--set", "0"], ["dist", "--set", "0"],
    ["fbp", "--C", "0", "--set", "0"], ["vmap", "--E", "0", "--z", "1"],
    ["profile", "--L", "1"], ["breadth"], ["adversary", "--nmax", "2"]],
    ids=lambda argv: argv[0])
def test_a_table_failing_only_the_xz_y_bracketing_is_refused(tmp_path, argv):
    # the boundary names validate's first witness, its only one
    path = _instance_file(tmp_path, {
        "kind": "table", "product": _NOT_SEMILATTICES["NotAssociative:xzy"]})
    rc, out, err = _main([argv[0], path, *argv[1:]])
    assert (rc, out) == (2, "") and _one_error_line(err)
    assert "not a semilattice: NotAssociative at [0, 1, 2]" in err


def test_verify_never_imports_numpy_random():
    """The sampled checks draw from ``random``: importing ``numpy.random``
    would cost every process some milliseconds and megabytes."""
    code = ("import sys, slat.cli\n"
            "for ref in ('fin(10,5)', 'fin(13,6)', 'tree(2,4)'):\n"
            "    slat.cli.main(['verify', ref])\n"
            "sys.stderr.write(repr([m for m in sys.modules\n"
            "                       if m.startswith('numpy.random')]))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=SLAT_ENV)
    assert (proc.returncode, proc.stderr) == (0, "[]")
    assert '"exhaustive": false' in proc.stdout       # fin(13,6) sampled


@pytest.mark.parametrize("ref", [
    *_verify_battery(), "pstar(6)", "tree(2,4)",
    *(f"table:{kind}" for kind in sorted(_NOT_SEMILATTICES))])
def test_the_batched_filter_suite_matches_the_per_filter_checks(ref,
                                                                  tmp_path):
    """``verify``'s two filter fields, read off one meet-identity scan, are
    the per-filter checks over ``enumerate_filters``."""
    if ref.startswith("table:"):
        S = core.Semilattice.from_table(_NOT_SEMILATTICES[ref[6:]])
        source = _instance_file(tmp_path, S.to_json())
    else:
        S, source = core.generate_instance(ref), ref
    lam = weights.builtin_logweight(S, "zero")
    filters = metrics.enumerate_filters(S)
    want = (all(metrics.is_filter(S, F) for F in filters),
            all(metrics.defect_set(S, lam, F).is_zero for F in filters))
    suite = json.loads(_main(["verify", source])[1])["suites"][0]
    assert (suite["filters_are_filters"],
            suite["filters_have_zero_defect"]) == want
    # a non-idempotent table has an empty up-set, which is no filter but
    # has a zero defect; each field is False on some table
    assert want == {"table:NotIdempotent": (False, True),
                    "table:NotAssociative": (False, False),
                    "table:NotAssociative:xzy": (False, False)}.get(
                        ref, (True, True))


@pytest.mark.parametrize("cell, E, message", [
    (5, "10,30", "20, a factor of 19 * 30 = 19, is not a factor of the join "
                 "10"),
    (15, "10,20", "10, a generator, is not a factor of the join 15")],
    ids=["a product's factor", "a generator"])
def test_a_closure_that_leaves_its_join_is_not_a_semilattice(tmp_path, cell,
                                                             E, message):
    # a 300-element min-table with one bad symmetric cell passes the sampled
    # validate; the pair pass then meets an element outside the factors of
    # the join
    table = [[min(x, y) for y in range(300)] for x in range(300)]
    table[10][20] = table[20][10] = cell
    path = tmp_path / "table.json"
    path.write_text(json.dumps({"kind": "table", "product": table}))
    rc, out, _ = _main(["verify", str(path)])
    assert rc == 0 and json.loads(out)["ok"]
    rc, out, err = _main(["vmap", str(path), "--E", E, "--z", "17"])
    assert (rc, out) == (2, "")
    assert err == f"error: {path}: not a semilattice: {message}\n"


@pytest.mark.parametrize("obj", [
    planted_table_json(),
    broken_top_json(12, [c for m in (1, 2, 3)
                         for c in combinations(range(12), m)]),
], ids=["planted-table", "broken-top"])
def test_boundary_names_the_first_sampled_violation(tmp_path, obj):
    path = tmp_path / "host.json"
    path.write_text(json.dumps(obj))
    S = core.Semilattice.from_json(obj)
    assert S.n > core.FULL_VALIDATE_CAP
    first = naive_sampled_validation(S, 0)["violations"][0]
    rc, out, err = _main(["breadth", str(path)])
    assert (rc, out) == (2, "")
    assert err == (f"error: {path}: not a semilattice: {first['kind']} at "
                   f"{first['witness']}\n")


# Small valid inputs that the fuzz test below mutates.  The first set system
# has a collapsed top that is not a cube truncation.
_FUZZ_HOSTS = [
    {"kind": "set_system", "ground": ["a", "b", "c"],
     "elements": [[0], [1], [2], [0, 1, 2]], "collapsed_top": 3},
    {"kind": "table", "product": [[0, 0, 0], [0, 1, 0], [0, 0, 2]]},
    "chain(3)", "pstar(2)", "fin(3,1)",
]
_FUZZ_WEIGHTS = [
    lambda n: {"kind": "explicit",
               "values": [{"num": x % 3, "den": 1 + x % 2} for x in range(n)]},
    lambda n: {"kind": "cardinality"},
    lambda n: {"kind": "scaled", "q": {"num": 1, "den": 2}},
]
_FUZZ_RUNS = [["analyze"], ["verify"], ["vmap", "--E", "0,1", "--z", "1"],
              ["breadth"], ["adversary", "--nmax", "2"]]
_JUNK = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 9) | st.floats(allow_nan=False)
    | st.text(max_size=2),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(
        st.sampled_from(["kind", "num", "den", "values", "elements"]), inner,
        max_size=2),
    max_leaves=5)


def _json_paths(obj, path=()):
    if isinstance(obj, (dict, list)):
        for key in obj if isinstance(obj, dict) else range(len(obj)):
            yield path + (key,)
            yield from _json_paths(obj[key], path + (key,))


def _mutate(obj, data):
    """One mutation of the JSON value ``obj`` in place: a key or item
    dropped, replaced by junk, by an id (in range or not), by a zero or
    negative number, or doubled (which can break union-closure)."""
    paths = list(_json_paths(obj))
    if not paths:
        return
    *head, key = data.draw(st.sampled_from(paths))
    parent = obj
    for k in head:
        parent = parent[k]
    op = data.draw(st.sampled_from(["drop", "junk", "number", "double"]))
    if op == "drop":
        del parent[key]
    elif op == "junk":
        parent[key] = data.draw(_JUNK)
    elif op == "number":
        parent[key] = data.draw(st.sampled_from([-1, 0, 1, 2, 3, 5, 2**70]))
    elif isinstance(parent, list):
        parent.append(json.loads(json.dumps(parent[key])))
    else:
        parent[key] = [parent[key], parent[key]]


@settings(max_examples=200, deadline=None)
@given(host=st.sampled_from(range(len(_FUZZ_HOSTS))),
       weight=st.sampled_from(range(len(_FUZZ_WEIGHTS))),
       embed=st.booleans(), target=st.sampled_from(["instance", "weight"]),
       mutations=st.integers(1, 3), data=st.data())
def test_fuzzed_input_gets_an_exit_code_and_never_a_traceback(
        host, weight, embed, target, mutations, data):
    from slat.core import generate_instance
    inst = _FUZZ_HOSTS[host]
    inst = (generate_instance(inst).to_json() if isinstance(inst, str)
            else json.loads(json.dumps(inst)))
    lam = _FUZZ_WEIGHTS[weight](len(inst.get("product", inst.get("elements"))))
    if embed:
        inst["logweight"] = lam
    for _ in range(mutations):
        _mutate(inst if target == "instance" else lam, data)
    with tempfile.TemporaryDirectory() as tmp:
        ipath, wpath = os.path.join(tmp, "inst.json"), os.path.join(tmp, "w.json")
        with open(ipath, "w") as fh:
            json.dump(inst, fh)
        with open(wpath, "w") as fh:
            json.dump(lam, fh)
        for command, *flags in _FUZZ_RUNS:
            argv = [command, ipath, *flags]
            if not embed and command not in ("breadth", "adversary"):
                argv += ["--weight", wpath]
            rc, _, err = _main(argv)   # an escaping exception fails the test
            assert rc in (0, 1, 2, 3) and "Traceback" not in err
            if rc == 2:
                assert _one_error_line(err), (argv, inst, lam, err)


# -- branches of the commands, each with its pinned output -----------------

def _csv_rows(out):
    """Rows of a sweep's CSV, the seconds column dropped."""
    rows = list(csv.reader(io.StringIO(out)))
    cut = rows[0].index("seconds")
    return [row[:cut] + row[cut + 1:] for row in rows]


def test_breadth_above_five_thousand_elements_is_a_greedy_bound(tmp_path):
    # pstar(13) takes the point-set transform, exact at any size
    rc, out, err = _main(["breadth", "pstar(13)"])
    rep = json.loads(out)
    assert rc == 0 and err == ""
    assert rep["breadth"] == 13 and rep["witness"] == list(range(13))
    assert rep["exhaustive"] is True and rep["notes"] == []
    # 13 disjoint 2-point blocks span 26 points: 8191 members off the
    # transform, where only a greedy bound is given above 5000 elements
    path = tmp_path / "blocks.json"
    path.write_text(json.dumps({
        "kind": "set_system", "ground": [str(p) for p in range(26)],
        "elements": [[2 * i, 2 * i + 1] for i in range(13)]}))
    rc, out, err = _main(["breadth", str(path), "--close"])
    assert rc == 0 and err == ""
    assert json.loads(out) == {
        "breadth": 13, "witness": list(range(13)), "exhaustive": False,
        "nodes": 0, "notes": ["greedy lower bound only (large instance)"]}


def test_breadth_of_pstar_8_is_fast():
    t = time.perf_counter()
    rc, out, _ = _main(["breadth", "pstar(8)"])
    assert time.perf_counter() - t < 1
    assert rc == 0 and json.loads(out) == {
        "breadth": 8, "witness": list(range(8)), "exhaustive": True,
        "nodes": 255, "notes": []}


# breadth of trees as the candidate-by-candidate branch and bound printed it
TREE_BREADTH = {"tree(3,3)": 681, "tree(2,6)": 7365}


@pytest.mark.parametrize("spec", sorted(TREE_BREADTH))
def test_tree_breadth_output_is_pinned(spec):
    t = time.perf_counter()
    rc, out, err = _main(["breadth", spec])
    elapsed = time.perf_counter() - t
    assert (rc, err) == (0, "")
    assert out == json.dumps({
        "breadth": 2, "exhaustive": True, "nodes": TREE_BREADTH[spec],
        "notes": [], "witness": [1, 2]}, indent=2, sort_keys=True) + "\n"
    assert elapsed < 0.25      # 0.4 s for tree(2,6) with per-candidate joins


def test_analyze_of_pstar_9_is_fast():
    t = time.perf_counter()
    rc, out, _ = _main(["analyze", "pstar(9)"])
    assert time.perf_counter() - t < 2
    assert rc == 0 and json.loads(out)["breadth"] == {
        "breadth": 9, "witness": list(range(9)), "exhaustive": True,
        "nodes": 511, "notes": []}


def test_sweep_breadth_rows():
    rc, out, _ = _main(["sweep", "--family", "pstar", "--range", "2:5",
                        "--op", "breadth"])
    assert rc == 0
    assert _csv_rows(out)[1:] == [
        ["pstar", str(k), str(2**k - 1), "breadth", str(k), "", "", "",
         "True", ""] for k in range(2, 6)]


@pytest.mark.parametrize("family, span", [("prototype", "2:12"),
                                          ("fin({},2)", "4:7")])
def test_sweep_vmap_rows_match_the_per_element_definition(family, span):
    # the singletons found one member mask at a time, and the join as the
    # product of every element: on fin(k,2) the collapsed top
    rc, out, _ = _main(["sweep", "--family", family, "--range", span,
                        "--op", "vmap"])
    lo, hi = map(int, span.split(":"))
    want = [SWEEP_COLUMNS[:9] + SWEEP_COLUMNS[10:]]
    for p in range(lo, hi + 1):
        S, lam = _sweep_instance(family, p)
        singles = [x for x in range(S.n) if S.member_mask(x).bit_count() == 1]
        top = S.product_ids(range(S.n))
        assert family == "prototype" or top == S.top_id is not None
        v = v_value(S, lam, mask_of(singles), top)
        want.append([family, str(p), str(S.n), "vmap", str(v.c),
                     str(float(v.c)), "", "", "True", ""])
    assert rc == 0 and _csv_rows(out) == want


def test_sweep_profile_rows_of_a_template_family():
    rc, out, _ = _main(["sweep", "--family", "fin({},2)", "--range", "3:5",
                        "--op", "profile", "--L", "2"])
    assert rc == 0
    assert _csv_rows(out)[1:] == [
        ["fin({},2)", str(p), str(n), "profile", "2", "2.0", "4", "True",
         "True", ""] for p, n in ((3, 8), (4, 12), (5, 17))]


def test_sweep_breadth_of_a_template_table_family():
    rc, out, _ = _main(["sweep", "--family", "tree({},2)", "--range", "1:3",
                        "--op", "breadth"])
    assert rc == 0
    assert [row[4] for row in _csv_rows(out)[1:]] == ["1", "2", "2"]


def test_profile_of_an_empty_level_set():
    rc, out, _ = _main(["profile", "pstar(3)", "--L", "-1"])
    rep = json.loads(out)
    assert rc == 0 and rep["notes"] == ["empty level set"]
    assert rep["value"]["c"] == {"num": 0, "den": 1}
    assert rep["witness_E"] == [] and rep["witness_z"] is None


def test_vmap_over_a_collapsed_union_is_out_of_budget():
    # two disjoint 8-sets of fin(24,8): their union collapses to the top,
    # whose factors are all 1271627 elements.  To the top, the points of E
    # and z are the whole ground, past the density rule, and the pair pass
    # runs out of budget; to the empty set they are the 16 points of E,
    # whose subsets the integer row answers from
    from slat.core import fin_truncation
    S = fin_truncation(24, 8)
    E = f"{S.id_of_mask(0xFF)},{S.id_of_mask(0xFF00)}"
    rc, out, err = _main(["vmap", "fin(24,8)", "--weight", "cardinality",
                          "--E", E, "--z", str(S.top_id)])
    assert S.top_id == 1271626
    assert rc == 3 and out == ""
    assert err == "budget exhausted: closure universe has 1271627 elements\n"
    rc, out, err = _main(["vmap", "fin(24,8)", "--weight", "cardinality",
                          "--E", E, "--z", "0"])
    assert (rc, err) == (0, "")
    assert json.loads(out)["value"]["c"] == {"num": 8, "den": 1}


@pytest.mark.parametrize("k", [21, 24])
def test_vmap_over_a_one_point_top_takes_the_pair_pass(tmp_path, k,
                                                      monkeypatch):
    # two sets of k - 2 points join to a non-member, which collapses onto
    # the top {0}: the k - 1 points of E and z are past the density rule,
    # so the pair pass answers and no subset world is built
    from slat import propagation
    from slat.core import Semilattice
    obj = one_point_top_json(k)
    S = Semilattice.from_json(obj)
    assert S.product(2, 3) == S.top_id == 1
    expect = propagation._knuth_first_levels(
        S, weights.builtin_logweight(S, "cardinality"), [2, 3], [4],
        S.iter_factors, S.top_id)[4]
    assert expect == k - 2

    def refused(G):
        raise AssertionError(f"a subset world over {G:#x}")

    monkeypatch.setattr(core, "_subset_masks", refused)
    monkeypatch.setattr(propagation, "_subset_masks", refused)
    rc, out, err = _main(["vmap", _instance_file(tmp_path, obj), "--weight",
                          "cardinality", "--E", "2,3", "--z", "4"])
    assert (rc, err) == (0, "")
    assert json.loads(out)["value"]["c"] == {"num": k - 2, "den": 1}


def _instance_file(tmp_path, obj):
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(obj))
    return str(path)


@pytest.mark.parametrize("host", [
    "table file", "collapsed-top file", "pstar(4)", "fin(5,2)", "tree(2,3)",
    "chain(6)"])
def test_analyze_counts_one_filter_per_element(tmp_path, host):
    from slat.core import Semilattice, fin_truncation, generate_instance
    from slat.metrics import enumerate_filters
    obj = None
    if host == "table file":
        obj = {"kind": "table", "product": [
            [0, 0, 0, 0], [0, 1, 0, 1], [0, 0, 2, 2], [0, 1, 2, 3]]}
    elif host == "collapsed-top file":
        obj = fin_truncation(5, 2).to_json()
        del obj["elements"][3]          # a family that is not a truncation
        obj["collapsed_top"] -= 1
    if obj is None:
        ref, S = host, generate_instance(host)
    else:
        ref, S = _instance_file(tmp_path, obj), Semilattice.from_json(obj)
    rc, out, _ = _main(["analyze", ref])
    assert rc == 0
    assert json.loads(out)["filter_count"] == len(enumerate_filters(S)) == S.n


def test_a_collapsed_top_that_does_not_absorb_is_refused(tmp_path):
    # the top {2} is union-closed with the rest, yet its union with {0} is
    # the member {0, 2}: every element would be a factor of the top, so fbp
    # from {2} would step to every element, where the definition reaches {}
    # and {2}; validate reports it, so verify and every command see it
    obj = {"kind": "set_system", "ground": ["a", "b", "c"],
           "elements": [[], [0], [2], [0, 2]], "collapsed_top": 2}
    rep = core.Semilattice.from_json(obj).validate()
    assert [(v.kind, v.witness) for v in rep.violations] == [
        ("NotAbsorbing", (1, 2, 3)), ("NotAbsorbing", (3, 2, 3))]
    path = _instance_file(tmp_path, obj)
    rc, out, err = _main(["fbp", path, "--C", "0", "--set", "2", "--weight",
                          "zero"])
    assert (rc, out) == (2, "")
    assert err == f"error: {path}: not a semilattice: NotAbsorbing at " \
        "[1, 2, 3]\n"
    rc, out, _ = _main(["verify", path])
    suite, = json.loads(out)["suites"]
    assert rc == 1 and not suite["ok"]
    assert suite["instance_valid"]["violations"][0] == {
        "kind": "NotAbsorbing", "witness": [1, 2, 3]}


def _collapsed_top_fixtures():
    """The JSON of every valid collapsed-top host the tests build."""
    from test_breadth import _NOT_A_TRUNCATION
    from test_core import _collapsed_family
    from test_propagation import _PROFILE_HOSTS, _SHORT_TOP, _SPARSE_TOP
    from test_weights import FLAT_70
    hosts = [*(_PROFILE_HOSTS[s] for s in ("fin(6,3)", "fin(7,3)",
                                           "fin(4,2) less {0,1}")),
             _SHORT_TOP, _SPARSE_TOP, _collapsed_family()]
    return [S.to_json() for S in hosts] + [
        FLAT_70, _NOT_A_TRUNCATION, _FUZZ_HOSTS[0], one_point_top_json(6),
        {"kind": "set_system", "ground": ["a", "b"],
         "elements": [[0, 1], [0], [1]], "collapsed_top": 2}]


def test_every_collapsed_top_fixture_loads(tmp_path):
    for obj in _collapsed_top_fixtures():
        assert obj["collapsed_top"] is not None
        rc, out, err = _main(["analyze", _instance_file(tmp_path, obj)])
        assert (rc, err) == (0, "")


# (exit code, sha256 of stdout) of every command in README's CLI block, the
# sweep's without its seconds column: any change to their output shows here
README_PINS = {
    "analyze 'fin(5,2)'": (0, "7ab6c664fe1bee5b0202bbbf918844cc"
                              "ba923c4387779d05d1f9c92aca01bfb4"),
    "breadth 'tree(2,3)'": (0, "f17d315645b91b8538d0994493b7148c"
                               "1d42009b02891671b4c7180e8d09acb6"),
    "defect 'pstar(3)' --weight cardinality --set 0,1": (
        0, "fb16596611d5e52b684f7b73da4f331697cacd1ac093aa9465c772fe5687bed8"),
    "dist 'pstar(3)' --weight cardinality --set 0": (
        0, "413c509b5fa0eb26fb3d459680021a8d6e9c520493e5a6c5ba9ef63d1e00bda0"),
    "fbp 'pstar(3)' --weight cardinality --C 2 --set 0,1": (
        0, "71f644a29867504cd35942141fc1e14717d5f0a3c2e31c50c9690d8650586662"),
    "vmap 'pstar(4)' --weight prototype --E 0,1,2,3 --z 14": (
        0, "88e0cfb69529bff3501f6b6421ab35b2112488383e038e99ff3f568e4965f5f2"),
    "profile 'pstar(3)' --weight prototype --L 1": (
        0, "e22e06bf89549a766ece3e0526bc8e00d51bc86ce46c0487fb9d7a4d08c1150d"),
    "adversary 'fin(24,8)' --nmax 4": (
        0, "c7d0a3efbb8864c776fb5958df6ce75b464bb47d0eded5d613742b553273204d"),
    "adversary 'fin(24,21)' --nmax 6": (
        0, "2a485960f4d517c79144aef7007e5b8821a5cd763e91941f637051ef1dc6bea5"),
    "sweep --family prototype --range 2:8 --op vmap": (
        0, "4e377f111949ae49d67abe40a0f90353c3d63ff947853e79c52b4c37f397819b"),
    "verify --seed 7": (
        0, "a86f7913071ab4748bcaf63550f048b883411945f3a410654977b9fd4cfa57f6"),
}


def _readme_block(section, fence):
    """The first ``fence`` code block under README's ``section`` heading."""
    with open(os.path.join(os.path.dirname(SRC), "README.md"),
              encoding="utf-8") as fh:
        text = fh.read()
    block = text[text.index(fence, text.index(section)) + len(fence):]
    return block[:block.index("```")]


def _readme_commands():
    """The argument lists of the ``slat`` lines in README's CLI block."""
    return [shlex.split(line.split("#")[0])[1:]
            for line in _readme_block("## CLI", "```sh").splitlines()
            if line.startswith("slat ")]


def test_readme_library_block_prints_what_it_says():
    out = io.StringIO()
    with redirect_stdout(out):
        exec(_readme_block("## Library", "```python"), {})
    assert out.getvalue() == "PropagationValue(2)\nPropagationValue(2) True\n"


def test_readme_commands_are_pinned():
    got = {}
    for argv in _readme_commands():
        rc, out, _ = _main(argv)
        if argv[0] == "sweep":          # drop the seconds column
            rows = list(csv.reader(io.StringIO(out)))
            col = rows[0].index("seconds")
            buf = io.StringIO()
            csv.writer(buf).writerows(r[:col] + r[col + 1:] for r in rows)
            out = buf.getvalue()
        got[shlex.join(argv)] = (rc, hashlib.sha256(out.encode()).hexdigest())
    assert got == README_PINS

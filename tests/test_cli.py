"""End-to-end checks of the command-line interface."""

import hashlib
import json
import subprocess
import sys

import pytest

from gorsim.cli import main
from gorsim.residues import canonical_form, group_from_json, group_of_simplex
from gorsim.simplex import simplex_from_json


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_count_known_and_unknown(capsys):
    code, out, _ = run(capsys, "count", "--v", "8")
    assert code == 0
    assert out == "M = 4; N = unknown\n"
    code, out, _ = run(capsys, "count", "--v", "9")
    assert (code, out) == (0, "M = 2; N = 3\n")
    code, out, _ = run(capsys, "count", "--v", "6")
    assert (code, out) == (0, "M = 3; N = 5\n")


def test_delta_from_generators(capsys, tmp_path):
    path = tmp_path / "g.json"
    path.write_text(json.dumps(
        {"ambient": 2, "generators": [["1/2", "1/2"]]}))
    code, out, _ = run(capsys, "delta", "--generators", str(path))
    assert code == 0
    assert out == ("delta = 1 + t\n"
                   "volume = 2\n"
                   "gorenstein = true\n"
                   "index = 1\n")


def test_delta_from_simplex(capsys, tmp_path):
    path = tmp_path / "s.json"
    path.write_text(json.dumps({"vertices": [[0, 0], [1, 0], [0, 1]]}))
    code, out, _ = run(capsys, "delta", "--simplex", str(path))
    assert code == 0
    assert out == ("delta = 1\n"
                   "volume = 1\n"
                   "gorenstein = true\n"
                   "index = 3\n")


def test_delta_not_gorenstein(capsys, tmp_path):
    path = tmp_path / "g.json"
    path.write_text(json.dumps(
        {"generators": [["1/5", "1/5", "1/5", "2/5"]]}))
    code, out, _ = run(capsys, "delta", "--generators", str(path))
    assert code == 0
    assert out == ("delta = 1 + t + 2t^2 + t^3\n"
                   "volume = 5\n"
                   "gorenstein = false\n"
                   "index = none\n")


def test_delta_rejects_fractional_height(capsys, tmp_path):
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"generators": [["1/2", "1/3"]]}))
    code, _, err = run(capsys, "delta", "--generators", str(path))
    assert code == 2
    assert err.startswith("error:")


def test_delta_needs_exactly_one_source(capsys, tmp_path):
    assert run(capsys, "delta")[0] == 2
    path = tmp_path / "x.json"
    path.write_text("{}")
    assert run(capsys, "delta", "--simplex", str(path),
               "--generators", str(path))[0] == 2


def test_delta_missing_file(capsys, tmp_path):
    code, _, err = run(capsys, "delta", "--generators",
                       str(tmp_path / "absent.json"))
    assert code == 2
    assert err.startswith("error:")
    assert err.count("\n") == 1


def test_construct_inline_spec(capsys):
    code, out, _ = run(capsys, "construct", "--family",
                       '{"family": "prime", "params": {"p": 3, "k": 0}}')
    assert code == 0
    assert out.endswith("\n")
    obj = json.loads(out)
    assert obj == {
        "family": "prime",
        "params": {"k": 0, "p": 3},
        "group": {"ambient": 3, "generators": [["1/3", "1/3", "1/3"]]},
    }
    assert out == json.dumps(obj, sort_keys=True) + "\n"


def test_construct_spec_from_file(capsys, tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(
        {"family": "divisor", "params": {"v": 4, "u": 2, "k": 0}}))
    code, out, _ = run(capsys, "construct", "--family", str(path))
    assert code == 0
    obj = json.loads(out)
    assert obj["group"]["ambient"] == 5


def test_construct_vertex_form(capsys):
    code, out, _ = run(capsys, "construct", "--family",
                       '{"family": "pq-case1", "params": {"p": 2, "q": 3, "k": 0}}',
                       "--vertex-form")
    assert code == 0
    obj = json.loads(out)
    s = simplex_from_json(obj["simplex"])
    g = group_from_json(obj["group"])
    assert canonical_form(group_of_simplex(s)) == canonical_form(g)


def test_construct_without_vertex_form_errors(capsys):
    code, _, err = run(capsys, "construct", "--family",
                       '{"family": "divisor", "params": {"v": 4, "u": 2, "k": 0}}',
                       "--vertex-form")
    assert code == 2
    assert err.startswith("error:")


def test_construct_bad_params(capsys):
    code, _, err = run(capsys, "construct", "--family",
                       '{"family": "prime", "params": {"p": 4, "k": 0}}')
    assert code == 2
    assert err.startswith("error:")


def test_classify_matching_volume(capsys):
    code, out, _ = run(capsys, "classify", "--v", "4", "--k", "0")
    assert code == 0
    obj = json.loads(out)
    assert obj["v"] == 4 and obj["k"] == 0
    assert obj["match"] is True
    assert [c["dim"] for c in obj["classes"]] == [3, 4, 5]
    assert all(c["matched_family"] for c in obj["classes"])
    assert obj["classes"][0]["delta"] == [1, 1, 1, 1]
    assert out == json.dumps(obj, sort_keys=True) + "\n"


def test_classify_unknown_volume(capsys):
    code, out, _ = run(capsys, "classify", "--v", "8", "--k", "0")
    assert code == 0
    obj = json.loads(out)
    assert obj["match"] == "unknown"
    assert len(obj["classes"]) == 11
    assert all(c["matched_family"] is None for c in obj["classes"])


def test_classify_budget_flag(capsys):
    code, _, err = run(capsys, "classify", "--v", "6", "--k", "0",
                       "--budget", "5")
    assert code == 1
    assert err.startswith("error:")
    assert err.count("\n") == 1
    code, _, _ = run(capsys, "classify", "--v", "6", "--k", "0",
                     "--budget", "not-a-number")
    assert code == 2


@pytest.mark.parametrize("v,k,digest", [
    (6, 0, "04ac7e68b95826c262a51731c1de0e8ffc8ad6527efd9b39b01f70c8b30b2b6f"),
    (8, 0, "6c773e03e449936722e067cb054313ada0896e682fcd2e10ebb55330d9840d10"),
    (9, 0, "b23aab191e20465f4e0db29fb1300a4d6bf67e8393709d0800328639785a09a2"),
    (12, 1, "c305eaaa3f2a748856002e58b3c5a899484795db9eac516ac7655ccb7ca045a2"),
])
def test_classify_golden_output(capsys, v, k, digest):
    # sha256 of the full stdout; any change to a class list, its order,
    # a generator's text or a matched family shows here
    code, out, _ = run(capsys, "classify", "--v", str(v), "--k", str(k))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_classify_bad_volume(capsys):
    code, _, err = run(capsys, "classify", "--v", "1", "--k", "0")
    assert code == 2
    assert err.startswith("error:")


def test_verify_full_suite(capsys):
    code, out, _ = run(capsys, "verify")
    assert code == 0
    lines = out.splitlines()
    checks = [ln for ln in lines if ln.startswith("criterion ")]
    assert len(checks) == 8
    assert all(": PASS" in ln for ln in checks)
    assert lines[-1] == "8 passed, 0 failed"


def test_verify_rejects_suite_option(capsys):
    assert run(capsys, "verify", "--suite", "everything")[0] == 2


def test_repeated_runs_are_byte_identical():
    cmd = [sys.executable, "-m", "gorsim.cli", "classify", "--v", "4", "--k", "1"]
    first = subprocess.run(cmd, capture_output=True, check=True)
    second = subprocess.run(cmd, capture_output=True, check=True)
    assert first.stdout == second.stdout
    cmd = [sys.executable, "-m", "gorsim.cli", "construct", "--family",
           '{"family": "p2-case3", "params": {"p": 3, "k": 1}}', "--vertex-form"]
    first = subprocess.run(cmd, capture_output=True, check=True)
    second = subprocess.run(cmd, capture_output=True, check=True)
    assert first.stdout == second.stdout


def test_no_arguments_shows_usage(capsys):
    assert run(capsys)[0] == 2

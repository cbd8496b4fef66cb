"""End-to-end checks of the command-line interface."""

import hashlib
import json
import subprocess
import sys

import pytest

from gorsim import residues
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


@pytest.mark.parametrize("flag,obj", [
    ("--generators", {"generators": 5}),
    ("--generators", {"generators": [1]}),
    ("--simplex", {"vertices": 5}),
])
def test_delta_rejects_malformed_json(capsys, tmp_path, flag, obj):
    path = tmp_path / "in.json"
    path.write_text(json.dumps(obj))
    code, out, err = run(capsys, "delta", flag, str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error:")
    assert err.count("\n") == 1


@pytest.mark.parametrize("flag,obj", [
    ("--generators",
     {"generators": [["1/100000000", "99999999/100000000"]]}),
    ("--simplex", {"vertices": [[0, 0], [100000, 0], [0, 100000]]}),
])
def test_delta_rejects_groups_past_the_closure_cap(capsys, tmp_path,
                                                   monkeypatch, flag, obj):
    # both inputs pass the real cap of 100,000 elements only after seconds
    # of closure; a cap of 1,000 exercises the same check quickly
    monkeypatch.setattr(residues, "_MAX_ORDER", 1_000)
    path = tmp_path / "in.json"
    path.write_text(json.dumps(obj))
    code, out, err = run(capsys, "delta", flag, str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error:")
    assert err.count("\n") == 1


def test_construct_rejects_a_join_past_the_closure_cap(capsys, monkeypatch):
    # both factors close under the cap; their join of order 6 does not
    monkeypatch.setattr(residues, "_MAX_ORDER", 5)
    family = json.dumps({"family": "join", "params": {
        "first": {"family": "prime", "params": {"p": 2, "k": 0}},
        "second": {"family": "prime", "params": {"p": 3, "k": 1}}}})
    code, out, err = run(capsys, "construct", "--family", family)
    assert (code, out) == (2, "")
    assert err == "error: generators close to more than 5 elements\n"


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


def test_construct_rejects_non_sequence_chain(capsys):
    code, out, err = run(capsys, "construct", "--family",
                         '{"family": "chain", "params": {"chain": 4, "k": 0}}')
    assert (code, out) == (2, "")
    assert err.startswith("error:")
    assert err.count("\n") == 1


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
    for bad in ("-5", "0"):
        code, out, err = run(capsys, "classify", "--v", "4", "--k", "0",
                             "--budget", bad)
        assert (code, out) == (2, "")
        assert err.startswith("error:")
        assert err.count("\n") == 1


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


def _prime_spec(p, k):
    return {"family": "prime", "params": {"p": p, "k": k}}


def _golden_specs(family):
    primes = (2, 3, 5)
    if family.startswith("pq-"):
        return [{"family": family, "params": {"p": p, "q": q, "k": k}}
                for p in primes for q in primes if p != q for k in (0, 1)]
    if family == "divisor":
        return [{"family": family, "params": {"v": v, "u": u, "k": k}}
                for v, u in ((2, 1), (4, 2), (6, 2), (6, 3), (12, 4), (9, 3))
                for k in (0, 1)]
    if family == "chain":
        return [{"family": family, "params": {"chain": list(c), "k": k}}
                for c in ((2,), (2, 4), (3, 6), (2, 4, 8), (2, 6, 12))
                for k in (0, 1)]
    if family == "join":
        return [{"family": family,
                 "params": {"first": _prime_spec(a, k),
                            "second": _prime_spec(b, a * (k + 1) - 1)}}
                for a, b in ((2, 2), (2, 3), (3, 2), (3, 5)) for k in (0, 1)]
    return [{"family": family, "params": {"p": p, "k": k}}
            for p in primes for k in (0, 1)]


@pytest.mark.parametrize("family,digest", [
    ("prime", "9fed92c32e823d1f1ecb05ab7c44c4cbe4d3394b8244ff2b2d354277290d3c7b"),
    ("p2-case1", "d6f931a0aa8fcb2919d6d842ef0cc4008ba9a62972b20d4de1ba345e26130fe2"),
    ("p2-case2", "6b977234da750d9ab37356987779e588b257bd48edd276a54e2fb2a00e4a3f9d"),
    ("p2-case3", "4c5c64b23dc9d6bce51dd1dffd9e7b3a06671ccea152d9a2bb358745b3c01805"),
    ("pq-case1", "0c938ba86cd0a2e7cf7d4003c26bf60c4e0e9dafde1e9db9581aa67afb7d70f4"),
    ("pq-case2", "099d6ca96a6c3a5c766eb19aa9b0bad86767a962ca2714ff5c95f55f6a3e4f9a"),
    ("pq-case3", "66a01107d78a0e60b3b60a5f09c81222ab38951b74f42908ad76a60d7aa18152"),
    ("pq-case4", "9d9561f3364cdd9733794a6a781250be3af004ba6c4efd64d5926941a9111199"),
    ("pq-case5", "8dd603fb46425ddb54bf3f58acf25a7b2a1a09285080cee3cf0de6bf6822c1fc"),
    ("divisor", "c77e99fc3202812803589a013b56b82a8a3e7d7f7bb9d0f494e2ed51756acd8a"),
    ("chain", "2530cab6457611e1f648bc2c3f6caa0f84d1a009f3be02c48a4257dc219af9d4"),
    ("join", "1cd69865040a04a4c8b21f8aa97fb4a933355289d87f78611bb33b1546f1eedb"),
])
def test_construct_golden_output(capsys, family, digest):
    # sha256 of the concatenated stdout over the family's cases; the named
    # families also emit their vertex form
    vertex_form = [] if family in ("divisor", "chain", "join") else ["--vertex-form"]
    out = ""
    for sp in _golden_specs(family):
        code, text, _ = run(capsys, "construct", "--family", json.dumps(sp),
                            *vertex_form)
        assert code == 0, sp
        out += text
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

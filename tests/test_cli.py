import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from zpbal.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_example_and_check(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, _ = run_cli(capsys, "example", "Nm", "--m", "4", "--field", "F2",
                           "--out", "n4.json")
    assert code == 0 and "n4.json" in out
    code, out, _ = run_cli(capsys, "check", "n4.json")
    assert code == 0
    assert "balanced: NO (witness triple x, x, x)" in out
    assert "determined: NO" in out
    assert "dim 6 (EXACT)" in out and "kernel: dim 7" in out
    assert os.path.exists("n4.certs.json")


def test_check_json_report(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    run_cli(capsys, "example", "Mn", "--n", "2", "--field", "F2", "--out", "m2.json")
    code, out, _ = run_cli(capsys, "check", "m2.json", "--json")
    assert code == 0
    report = json.loads(out)
    assert report["balanced"] == "YES" and report["determined"] == "YES"
    assert report["zero_product_span"] == {"dim": 12, "kernel_dim": 12, "status": "EXACT"}
    assert report["predicates"]["unital"] is True


def test_verify_roundtrip(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    run_cli(capsys, "example", "Mn", "--n", "2", "--field", "F3", "--out", "m2f3.json")
    run_cli(capsys, "check", "m2f3.json", "--out", "certs.json")
    code, out, _ = run_cli(capsys, "verify", "certs.json", "m2f3.json")
    assert code == 0
    assert "all certificates: true" in out


def test_verify_rejects_corruption(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    run_cli(capsys, "example", "Kn", "--n", "2", "--field", "F2", "--out", "kk.json")
    run_cli(capsys, "check", "kk.json", "--out", "certs.json")
    with open("certs.json") as fh:
        data = json.load(fh)
    # corrupt the first nonempty membership decomposition
    for cert in data["certificates"]:
        if cert.get("terms"):
            cert["terms"][0]["lambda"] = 0
            break
    with open("bad.json", "w") as fh:
        json.dump(data, fh)
    code, out, _ = run_cli(capsys, "verify", "bad.json", "kk.json")
    assert code == 0
    assert "false" in out


def test_factorize_map_file(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    run_cli(capsys, "example", "Kn", "--n", "2", "--field", "Q", "--out", "qq.json")
    mapfile = {
        "source": "qq.json",
        "target": "qq.json",
        "matrix": [["2", "0"], ["0", "3"]],
    }
    with open("scale.json", "w") as fh:
        json.dump(mapfile, fh)
    code, out, _ = run_cli(capsys, "factorize", "scale.json")
    assert code == 0
    assert "semimultiplicative: yes" in out
    assert "factorization: map = S ∘ pi0" in out
    code, out, _ = run_cli(capsys, "factorize", "scale.json", "--json")
    report = json.loads(out)
    assert report["factorization"]["T"] == [["1/2", "0"], ["0", "1/3"]]
    assert report["factorization"]["S"] == [["2", "0"], ["0", "3"]]


def test_factorize_non_surjective(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    run_cli(capsys, "example", "Kn", "--n", "2", "--field", "Q", "--out", "qq.json")
    mapfile = {"source": "qq.json", "target": "qq.json",
               "matrix": [["1", "0"], ["0", "0"]]}
    with open("proj.json", "w") as fh:
        json.dump(mapfile, fh)
    code, out, _ = run_cli(capsys, "factorize", "proj.json")
    assert code == 0
    assert "failed" in out and "surjective" in out


def test_fn2_report(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    run_cli(capsys, "example", "Mn", "--n", "2", "--field", "F2", "--out", "m2.json")
    code, out, _ = run_cli(capsys, "fn2", "m2.json")
    assert code == 0
    assert "commutator span: dim 3" in out
    assert "factorizable square-zero span: dim 3 (EXACT)" in out
    assert "spans equal: True" in out


def test_structure_report(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    run_cli(capsys, "example", "KxNm", "--m", "3", "--field", "F2", "--out", "kxn3.json")
    code, out, _ = run_cli(capsys, "structure", "kxn3.json", "--element", "1,1,0")
    assert code == 0
    assert "nilradical: dim 2" in out
    assert "characters: 1 (EXACT)" in out
    assert "decompose [1, 1, 0]: nil [0, 1, 0] + 1*[1, 0, 0]" in out
    assert "dichotomy: HAS_CHARACTER" in out


def test_structure_noncommutative(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    run_cli(capsys, "example", "Mn", "--n", "2", "--field", "F2", "--out", "m2.json")
    code, out, _ = run_cli(capsys, "structure", "m2.json")
    assert code == 0
    assert "commutative: no" in out
    assert "RADICAL_OVER_COMMUTATOR_IDEAL" in out


def test_parse_error_exit_code(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    with open("broken.json", "w") as fh:
        fh.write("{not json")
    code, _, err = run_cli(capsys, "check", "broken.json")
    assert code == 1
    assert "invalid JSON" in err
    code, _, err = run_cli(capsys, "check", "missing.json")
    assert code == 1


MALFORMED = {  # file stem -> (algebra object, expected message)
    "coords-not-list": ({"field": "F2", "dim": 1, "basis": ["a"],
                         "products": [{"i": 0, "j": 0, "coords": 5}]}, "must be a list of 1 scalars"),
    "index-string": ({"field": "F2", "dim": 1, "basis": ["a"],
                      "products": [{"i": "0", "j": 0, "coords": [1]}]}, "indices must be integers"),
    "products-not-list": ({"field": "F2", "dim": 1, "basis": ["a"], "products": 5},
                          "products must be a list"),
    "dim-bool": ({"field": "F2", "dim": True, "basis": ["a"], "products": []},
                 "dim must be a nonnegative integer"),
    "float-scalar": ({"field": "Q", "dim": 1, "basis": ["a"],
                      "products": [{"i": 0, "j": 0, "coords": [0.1]}]}, "invalid rational scalar 0.1"),
}


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimized"])
def test_malformed_algebra_files_exit_1(tmp_path, flags):
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    for stem, (data, message) in MALFORMED.items():
        path = tmp_path / f"{stem}.json"
        path.write_text(json.dumps(data))
        proc = subprocess.run([sys.executable, *flags, "-m", "zpbal.cli", "check", str(path),
                               "--out", str(tmp_path / "certs.json")],
                              capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 1, (stem, proc.stderr)
        assert message in proc.stderr, (stem, proc.stderr)
        assert "Traceback" not in proc.stderr, stem


def test_non_associative_rejected(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    table = {
        "field": "F2", "dim": 2, "basis": ["a", "b"],
        "products": [{"i": 0, "j": 0, "coords": [0, 1]},
                     {"i": 1, "j": 0, "coords": [1, 0]}],
    }
    with open("bad.json", "w") as fh:
        json.dump(table, fh)
    code, _, err = run_cli(capsys, "check", "bad.json")
    assert code == 1
    assert "associativity" in err


def test_corpus_run(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, _ = run_cli(capsys, "corpus", "run", "--filter", "N3",
                           "--out", "junit.xml")
    assert code == 0
    assert "FAIL" not in out.replace("0 FAIL", "")
    assert os.path.exists("junit.xml")
    with open("junit.xml") as fh:
        content = fh.read()
    assert content.startswith("<?xml") and "testsuite" in content


def test_determinism_byte_identical(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    run_cli(capsys, "example", "Nm", "--m", "4", "--field", "F3", "--out", "n4f3.json")
    code1, out1, _ = run_cli(capsys, "check", "n4f3.json", "--json", "--out", "c1.json")
    code2, out2, _ = run_cli(capsys, "check", "n4f3.json", "--json", "--out", "c2.json")
    assert out1.replace("c1.json", "X") == out2.replace("c2.json", "X")
    with open("c1.json", "rb") as fh:
        b1 = fh.read()
    with open("c2.json", "rb") as fh:
        b2 = fh.read()
    assert b1 == b2


def test_example_families(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for args, dim in [(("Nm", "--m", "5", "--field", "F3"), 4),
                      (("MnNm", "--n", "2", "--m", "3", "--field", "F2"), 8),
                      (("DN3", "--field", "F2"), 4),
                      (("DN3", "--field", "Q"), 4),
                      (("Kn", "--n", "3", "--field", "Q"), 3),
                      (("zero", "--n", "2", "--field", "F2"), 2)]:
        code, out, _ = run_cli(capsys, "example", *args)
        assert code == 0 and f"dim {dim}" in out

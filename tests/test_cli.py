import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from zpbal import linmaps, serialize
from zpbal.algebra import direct_sum, function_algebra, nilpotent_algebra
from zpbal.cli import main
from zpbal.errors import NotSemimultiplicative
from zpbal.fields import PrimeField
from zpbal.serialize import save_algebra
from zpbal.tensorsquare import TensorSquare


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


def _tampered(capsys, example, change):
    """verify's output on the certificate file of `example` after `change(data)`."""
    run_cli(capsys, "example", *example, "--out", "alg.json")
    run_cli(capsys, "check", "alg.json", "--out", "certs.json")
    with open("certs.json") as fh:
        data = json.load(fh)
    change(data)
    with open("bad.json", "w") as fh:
        json.dump(data, fh)
    code, out, err = run_cli(capsys, "verify", "bad.json", "alg.json")
    assert code == 0 and "Traceback" not in err
    return out


def test_verify_requires_every_triple_once(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    m2 = ("Mn", "--n", "2", "--field", "F2")
    out = _tampered(capsys, m2, lambda data: data["certificates"].pop(5))
    assert "triple coverage: false (1 of 64 triples missing, 0 repeated)" in out
    assert "all certificates: false" in out
    out = _tampered(capsys, m2, lambda data: data["certificates"].append(data["certificates"][5]))
    assert "triple coverage: false (0 of 64 triples missing, 1 repeated)" in out
    assert "all certificates: false" in out

    def move(data):  # a certificate of a nonzero defect moved to a triple whose defect is zero
        certs = data["certificates"]
        nonzero = next(n for n, c in enumerate(certs) if "target" in c)
        zero = next(c for c in certs if "target" not in c)
        certs[nonzero]["meta"]["triple"] = zero["meta"]["triple"]

    out = _tampered(capsys, m2, move)
    assert "membership-decomposition): false" in out
    assert "all certificates: false" in out


def test_verify_holds_the_file_to_its_balanced_claim(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    out = _tampered(capsys, ("Mn", "--n", "2", "--field", "F2"),
                    lambda data: data["certificates"].clear())
    assert "triple coverage: false (64 of 64 triples missing, 0 repeated)" in out
    assert "all certificates: false" in out

    def drop_refutation(data):
        certs = data["certificates"]
        certs[:] = [c for c in certs if c["meta"]["claim"] != "not-zero-product-balanced"]

    n4 = ("Nm", "--m", "4", "--field", "F2")
    out = _tampered(capsys, n4, drop_refutation)
    assert "certificate 0 (separating-functional): true" in out
    assert "balanced NO: false (no verified not-zero-product-balanced certificate)" in out
    assert "all certificates: false" in out
    out = _tampered(capsys, n4, lambda data: None)
    assert "balanced NO" not in out and "all certificates: true" in out


def test_verify_requires_a_kernel_witness(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    alg = nilpotent_algebra(PrimeField(2), 4)
    ts = TensorSquare(alg)

    def outside_kernel(data):
        cert = next(c for c in data["certificates"]
                    if c["meta"]["claim"] == "not-zero-product-determined")
        phi = cert["functional"]
        for n in range(ts.ambient):  # witness + e_i⊗e_j with e_i e_j != 0
            t = list(cert["target"])
            t[n] = (t[n] + 1) % 2
            if any(ts.apply_mul(t)) and sum(a * b for a, b in zip(phi, t)) % 2:
                cert["target"] = t
                return
        raise AssertionError("no tensor outside the kernel that phi does not kill")

    out = _tampered(capsys, ("Nm", "--m", "4", "--field", "F2"), outside_kernel)
    assert "certificate 0 (separating-functional): true" in out
    assert "certificate 1 (separating-functional): false" in out
    assert "all certificates: false" in out


def _forge(data, how):
    """Forge the first membership of an F3 certificate file that can take `how`.

    Only nonzero defects with two or more entries are forged.  The term that
    zeroes an entry is a generator whose u⊗v has a single nonzero entry, at a
    nonzero entry of the defect, weighted to cancel it.
    """
    d = len(data["generators"][0]["u"])
    single = {}  # flat index -> (generator, its one entry)
    for g, pair in enumerate(data["generators"]):
        (su, sv) = ([(n, a) for n, a in enumerate(pair[s]) if a] for s in ("u", "v"))
        if len(su) == len(sv) == 1:
            single[su[0][0] * d + sv[0][0]] = (g, su[0][1] * sv[0][1] % 3)
    for cert in data["certificates"]:
        target = cert.get("target")
        if target is None or sum(map(bool, target)) < 2:
            continue
        hit = [pos for pos, a in enumerate(target) if a and pos in single]
        if how == "zero-lambda":
            cert["terms"][0]["lambda"] = 0
        elif how == "cancelling-terms":
            term = cert["terms"][0]
            cert["terms"] = [term, {"generator": term["generator"], "lambda": -term["lambda"] % 3}]
        elif how == "term-zeroes-an-entry":
            if not hit:
                continue
            g, entry = single[hit[0]]
            cert["terms"].append({"generator": g, "lambda": -target[hit[0]] * pow(entry, -1, 3) % 3})
        elif how == "target-extra-entry":
            target[target.index(0)] = 1
        elif how == "target-wrong-length":
            target.append(0)
        return
    raise AssertionError(f"no membership to forge by {how}")


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimized"])
def test_forged_memberships_verify_false(tmp_path, capsys, monkeypatch, flags):
    """A forged decomposition or target prints false, and a target of the wrong
    length is a malformed file; never a traceback."""
    monkeypatch.chdir(tmp_path)
    run_cli(capsys, "example", "DN3", "--field", "F3", "--out", "dn3.json")
    run_cli(capsys, "check", "dn3.json", "--out", "certs.json")
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    for how in ("zero-lambda", "cancelling-terms", "term-zeroes-an-entry", "target-extra-entry",
                "target-wrong-length"):
        data = json.loads(Path("certs.json").read_text())
        _forge(data, how)
        Path(f"{how}.json").write_text(json.dumps(data))
        argv = ["-m", "zpbal.cli", "verify", f"{how}.json", "dn3.json"]
        proc = subprocess.run([sys.executable, *flags, *argv], capture_output=True, text=True, env=env,
                              timeout=60)
        assert "Traceback" not in proc.stderr, (how, proc.stderr)
        if how == "target-wrong-length":
            assert proc.returncode == 1 and "target has wrong length" in proc.stderr, (how, proc.stderr)
            continue
        assert proc.returncode == 0, (how, proc.stderr)
        lines = proc.stdout.splitlines()
        assert sum(line.endswith("(membership-decomposition): false") for line in lines) == 1, (how, lines)
        assert lines[-1] == "all certificates: false", (how, lines)


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


def test_factorize_alarms_when_the_weighted_theorem_fails(tmp_path, capsys, monkeypatch):
    # a zero-product preserving surjection out of a balanced algebra must factor
    monkeypatch.chdir(tmp_path)
    run_cli(capsys, "example", "Kn", "--n", "2", "--field", "Q", "--out", "qq.json")
    for name, matrix in (("scale.json", [["2", "0"], ["0", "3"]]),
                         ("shear.json", [["1", "1"], ["0", "1"]])):
        with open(name, "w") as fh:
            json.dump({"source": "qq.json", "target": "qq.json", "matrix": matrix}, fh)

    def refuse(amap):
        raise NotSemimultiplicative((0, 0, 0))

    monkeypatch.setattr(linmaps, "weighted_factorization", refuse)
    code, _, err = run_cli(capsys, "factorize", "scale.json")
    assert code == 2 and "SOUNDNESS ALARM" in err
    # the shear does not preserve zero products: no theorem applies, as before
    code, out, _ = run_cli(capsys, "factorize", "shear.json")
    assert code == 0
    assert "zero-product preserving: NO" in out and "factorization: failed" in out


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


def test_structure_beyond_the_enumeration_cap(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    f2 = PrimeField(2)
    save_algebra(direct_sum(function_algebra(f2, 6), nilpotent_algebra(f2, 12)), "f2_6_n12.json")
    code, out, err = run_cli(capsys, "structure", "f2_6_n12.json")  # dim 17, 2^17 elements
    assert code == 0, err
    assert "nilradical: dim 11" in out
    assert "characters: 6 (EXACT)" in out
    assert "atoms of the reduced quotient: 6" in out


def test_structure_clean_without_enumeration(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for field, n in (("F2", "13"), ("Q", "3")):  # 2^13 elements is over the default cap
        run_cli(capsys, "example", "Kn", "--n", n, "--field", field, "--out", "kn.json")
        code, out, err = run_cli(capsys, "structure", "kn.json")
        assert code == 0, err
        assert "clean: YES" in out


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
    "dim-too-large": ({"field": "F2", "dim": 100, "basis": [f"b{i}" for i in range(100)],
                       "products": []}, "dim 100 exceeds the limit 64"),
}


def _assert_exit_1(tmp_path, flags, cases, argv):
    """Each malformed file gives exit code 1 and its message, never a traceback."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    for stem, (data, message) in cases.items():
        path = tmp_path / f"{stem}.json"
        path.write_text(json.dumps(data))
        proc = subprocess.run([sys.executable, *flags, "-m", "zpbal.cli", *argv(str(path))],
                              capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 1, (stem, proc.stderr)
        assert message in proc.stderr, (stem, proc.stderr)
        assert "Traceback" not in proc.stderr, stem


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimized"])
def test_malformed_algebra_files_exit_1(tmp_path, flags):
    _assert_exit_1(tmp_path, flags, MALFORMED,
                   lambda path: ["check", path, "--out", str(tmp_path / "certs.json")])


K2 = {"field": "F2", "dim": 2, "basis": ["a", "b"],
      "products": [{"i": 0, "j": 0, "coords": [1, 0]}, {"i": 1, "j": 1, "coords": [0, 1]}]}


def _certificate_file(**changes):
    data = {"balanced": "YES", "field": "F2", "label": "", "seed": 0, "convention": "row-major i*d+j",
            "generators": [{"u": [1, 0], "v": [0, 1]}],
            "certificates": [{"kind": "membership-decomposition", "meta": {"triple": [0, 0, 0]},
                              "terms": [{"generator": 0, "lambda": 1}]}]}
    data.update(changes)
    return data


def _term(generator=0, lam=1):
    return [{"kind": "membership-decomposition", "terms": [{"generator": generator, "lambda": lam}],
             "target": [0, 1, 0, 0]}]


MALFORMED_CERTIFICATES = {  # file stem -> (certificate file object, expected message)
    "certificates-int": ({"certificates": 5}, "certificate file missing field"),
    "certificates-not-list": (_certificate_file(certificates=5), "must be lists"),
    "index-out-of-range": (_certificate_file(certificates=_term(generator=1)), "generator index 1"),
    "index-not-int": (_certificate_file(certificates=_term(generator="0")), "generator index '0'"),
    "index-bool": (_certificate_file(certificates=_term(generator=False)), "generator index False"),
    "vectors-differ": (_certificate_file(generators=[{"u": [1, 0], "v": [0, 1]}, {"u": [1], "v": [0]}]),
                       "must be a list of 2 scalars"),
    "vectors-too-short": (_certificate_file(generators=[{"u": [1], "v": [0]}]), "wrong length"),
    "float-lambda": (_certificate_file(certificates=_term(lam=1.0)), "invalid residue 1.0"),
    "bool-vector": (_certificate_file(generators=[{"u": [True, 0], "v": [0, 1]}]), "invalid residue True"),
    "other-field": (_certificate_file(field="F3"), "certificates are over 'F3'"),
    "balanced-missing": ({k: v for k, v in _certificate_file().items() if k != "balanced"},
                         "certificate file missing field: 'balanced'"),
    "balanced-unknown-value": (_certificate_file(balanced="yes"), "balanced must be"),
}
MALFORMED_MAPS = {  # file stem -> (map file object, expected message)
    "matrix-int": ({"source": K2, "target": K2, "matrix": 5}, "matrix must be 2 rows x 2 cols"),
    "row-int": ({"source": K2, "target": K2, "matrix": [5, [0, 1]]}, "matrix row 0 must be a list"),
    "float-entry": ({"source": K2, "target": K2, "matrix": [[1.5, 0], [0, 1]]}, "invalid residue 1.5"),
    "map-list": ([K2, K2], "map must be a JSON object"),
    "null-byte-path": ({"source": "k\u0000.json", "target": K2, "matrix": [[1, 0], [0, 1]]},
                       "cannot read"),
}


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimized"])
def test_malformed_certificate_and_map_files_exit_1(tmp_path, flags):
    k2 = tmp_path / "k2.json"
    k2.write_text(json.dumps(K2))
    _assert_exit_1(tmp_path, flags, MALFORMED_CERTIFICATES, lambda path: ["verify", path, str(k2)])
    _assert_exit_1(tmp_path, flags, MALFORMED_MAPS, lambda path: ["factorize", path])


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


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimized"])
def test_example_refuses_a_dimension_above_the_limit(tmp_path, flags):
    """The limit `check` holds files to, applied before the table is built."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    for argv, code, dim in [(["Kn", "--n", "65"], 1, 65), (["Mn", "--n", "9"], 1, 81),
                            (["MnNm", "--n", "3", "--m", "9"], 1, 72), (["Kn", "--n", "64"], 0, 64)]:
        out = tmp_path / "example.json"
        proc = subprocess.run([sys.executable, *flags, "-m", "zpbal.cli", "example", *argv,
                               "--out", str(out)], capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == code, (argv, proc.stderr)
        assert "Traceback" not in proc.stderr, argv
        if code:
            assert f"dim {dim} exceeds the limit {serialize.MAX_DIM}" in proc.stderr, argv
            assert not out.exists(), argv
        else:
            assert f"dim {dim}" in proc.stdout
            out.unlink()


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimized"])
def test_example_refuses_negative_sizes(tmp_path, flags):
    """A negative --n or --m, or --m 0 (Nm and MnNm have dimension m - 1),
    exits 1 with a message naming the flag and writes no file."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    for argv, flag in [(["Kn", "--n", "-1"], "--n"), (["zero", "--n", "-1"], "--n"),
                       (["Mn", "--n", "-9"], "--n"), (["MnNm", "--n", "-2"], "--n"),
                       (["Nm", "--m", "0"], "--m"), (["Nm", "--m", "-3"], "--m"),
                       (["MnNm", "--n", "2", "--m", "0"], "--m"), (["KxNm", "--m", "-2"], "--m")]:
        out = tmp_path / "example.json"
        proc = subprocess.run([sys.executable, *flags, "-m", "zpbal.cli", "example", *argv,
                               "--out", str(out)], capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 1, (argv, proc.stderr)
        assert "Traceback" not in proc.stderr, argv
        assert proc.stderr.startswith(f"error: {flag} must be at least"), (argv, proc.stderr)
        assert not out.exists(), argv


def test_cli_import_leaves_the_other_subcommands_unloaded():
    """`check` and `verify` load only what they run; the other subcommands
    import their modules when called."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    lazy = ["zpbal.structure", "zpbal.linmaps", "zpbal.squarezero", "zpbal.corpus", "xml.etree"]
    code = f"import sys, zpbal.cli\nprint([m for m in {lazy!r} if m in sys.modules])"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"

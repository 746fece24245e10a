import ast
import gc
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from references import DenseTensorSquare, one_dimension_short
from zpbal import cli, linmaps, serialize, squarezero
from zpbal.constructions import direct_sum, function_algebra, matrix_algebra, nilpotent_algebra, poly_quotient_algebra
from zpbal.cli import main
from zpbal.errors import NotSemimultiplicative, SoundnessAlarm
from zpbal.fields import PrimeField
from zpbal.serialize import save_algebra
from zpbal.tensorsquare import compute_zero_product_span


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def _value(out, key):
    """The rendered value on the one text line that `key` starts."""
    (value,) = [line[len(key) + 2:] for line in out.splitlines() if line.startswith(f"{key}: ")]
    return value


def test_example_and_check(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, _ = run_cli(capsys, "example", "Nm", "--m", "4", "--field", "F2",
                           "--out", "n4.json")
    assert code == 0 and "n4.json" in out
    code, out, _ = run_cli(capsys, "check", "n4.json")
    assert code == 0
    assert "balanced: NO\n" in out and "balanced_witness: [x, x, x]\n" in out
    assert "determined: NO" in out
    assert "zero_product_span: {dim: 6, status: EXACT, kernel_dim: 7, stopped: exhausted}" in out
    assert os.path.exists("n4.certs.json")


def test_check_names_a_witness_only_for_no(tmp_path, capsys, monkeypatch):
    """An UNKNOWN's first failed triple is no witness; each UNKNOWN verdict
    carries its decider's note, and a NO has its witness and no note."""
    monkeypatch.chdir(tmp_path)
    run_cli(capsys, "example", "Nm", "--m", "5", "--field", "Q", "--out", "n5q.json")
    code, out, _ = run_cli(capsys, "check", "n5q.json", "--json")
    assert code == 0
    report = json.loads(out)
    assert (report["balanced"], report["determined"]) == ("UNKNOWN", "UNKNOWN")
    assert report["balanced_witness"] is None
    assert "lower-bound span" in report["balanced_note"]
    assert "lower bound below the kernel ceiling" in report["determined_note"]
    code, out, _ = run_cli(capsys, "check", "n5q.json")
    assert "balanced_witness: null\n" in out and "balanced_note: membership failed" in out
    run_cli(capsys, "example", "Nm", "--m", "4", "--field", "F2", "--out", "n4.json")
    code, out, _ = run_cli(capsys, "check", "n4.json", "--json")
    report = json.loads(out)
    assert (report["balanced"], report["balanced_witness"]) == ("NO", ["x", "x", "x"])
    assert (report["balanced_note"], report["determined_note"]) == (None, None)


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimized"])
def test_check_refuses_nonpositive_caps(tmp_path, flags):
    """A zero `--cap` or `--stall` is refused by a raise, not an assert, in a
    message that names the flag."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    alg = tmp_path / "n4.json"
    save_algebra(nilpotent_algebra(PrimeField(2), 4), str(alg))
    for option in ("--cap", "--stall"):
        proc = subprocess.run([sys.executable, *flags, "-m", "zpbal.cli", "check", str(alg),
                               option, "0", "--out", str(tmp_path / "certs.json")],
                              capture_output=True, text=True, env=env, timeout=60)
        assert (proc.returncode, proc.stderr) == (1, f"error: {option} must be at least 1, got 0\n")
        assert not (tmp_path / "certs.json").exists()


def test_check_json_report(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    run_cli(capsys, "example", "Mn", "--n", "2", "--field", "F2", "--out", "m2.json")
    code, out, _ = run_cli(capsys, "check", "m2.json", "--json")
    assert code == 0
    report = json.loads(out)
    assert report["balanced"] == "YES" and report["determined"] == "YES"
    assert report["zero_product_span"] == {"dim": 12, "kernel_dim": 12, "status": "EXACT", "stopped": "ceiling"}
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


def _malformed_certificate_file(path, certs):
    """`certs` with certificate 3 naming a triple outside M2: verify exits 1
    after printing the lines of certificates 0-2."""
    data = json.loads(Path(certs).read_text())
    data["certificates"][3]["meta"]["triple"] = [0, 0, 9]
    Path(path).write_text(json.dumps(data))


def test_verify_prints_the_lines_before_a_malformed_certificate(tmp_path, capsys, monkeypatch):
    """verify writes its report in one call; a certificate that raises
    MalformedCertificate still leaves the lines of the ones before it."""
    monkeypatch.chdir(tmp_path)
    run_cli(capsys, "example", "Mn", "--n", "2", "--field", "F2", "--out", "m2.json")
    run_cli(capsys, "check", "m2.json", "--out", "certs.json")
    _malformed_certificate_file("bad.json", "certs.json")
    code, out, err = run_cli(capsys, "verify", "bad.json", "m2.json")
    assert code == 1 and err.startswith("error: triple [0, 0, 9]")
    assert out == "".join(f"certificate {n} (membership-decomposition): true\n" for n in range(3))


@pytest.mark.parametrize("collecting", [True, False])
def test_verify_leaves_the_collector_as_it_found_it(tmp_path, capsys, monkeypatch, collecting):
    """verify pauses the cyclic collector over load and verify, and restores
    its state after a good file and after a malformed one."""
    monkeypatch.chdir(tmp_path)
    run_cli(capsys, "example", "Mn", "--n", "2", "--field", "F2", "--out", "m2.json")
    run_cli(capsys, "check", "m2.json", "--out", "certs.json")
    _malformed_certificate_file("bad.json", "certs.json")
    seen = []
    real_verify_file = cli.verify_file
    monkeypatch.setattr(cli, "verify_file", lambda *a: seen.append(gc.isenabled()) or real_verify_file(*a))
    was = gc.isenabled()
    try:
        (gc.enable if collecting else gc.disable)()
        assert run_cli(capsys, "verify", "certs.json", "m2.json")[0] == 0
        assert gc.isenabled() is collecting
        assert run_cli(capsys, "verify", "bad.json", "m2.json")[0] == 1
        assert gc.isenabled() is collecting
        with open("broken.json", "w") as fh:
            fh.write("{")
        assert run_cli(capsys, "verify", "broken.json", "m2.json")[0] == 1
        assert gc.isenabled() is collecting
    finally:
        (gc.enable if was else gc.disable)()
    assert seen == [False, False]


def test_verify_exits_1_on_the_retired_not_verified_kind(tmp_path, capsys, monkeypatch):
    """No certificate kind "not-verified" exists: a file that uses it is malformed."""
    monkeypatch.chdir(tmp_path)
    run_cli(capsys, "example", "Mn", "--n", "2", "--field", "F2", "--out", "m2.json")
    run_cli(capsys, "check", "m2.json", "--out", "certs.json")
    with open("certs.json") as fh:
        data = json.load(fh)
    data["certificates"][1]["kind"] = "not-verified"
    with open("bad.json", "w") as fh:
        json.dump(data, fh)
    code, out, err = run_cli(capsys, "verify", "bad.json", "m2.json")
    assert code == 1 and "unknown certificate kind 'not-verified'" in err
    assert out == "certificate 0 (membership-decomposition): true\n"


def test_verify_refuses_a_balanced_refutation_that_names_no_triple(tmp_path, capsys, monkeypatch):
    """M2/F2 is balanced.  A NO file whose one refutation separates e_0⊗e_0 from
    every generator in the file is refused: e_0⊗e_0 is no defect tensor."""
    monkeypatch.chdir(tmp_path)

    def forge(data):
        alg = serialize.load_algebra("alg.json")
        span = compute_zero_product_span(alg)
        phi = next(phi for phi in span.subspace.complement_functionals() if phi[0])
        data["balanced"] = "NO"
        data["certificates"] = [{
            "kind": "separating-functional", "target": [1] + [0] * 15, "functional": phi,
            "generators": list(range(len(data["generators"]))),
            "meta": {"claim": "not-zero-product-balanced"}}]

    out = _tampered(capsys, ("Mn", "--n", "2", "--field", "F2"), forge)
    assert "certificate 0 (separating-functional): false" in out
    assert "all certificates: false" in out


def test_verify_refuses_a_refutation_that_states_no_claim(tmp_path, capsys, monkeypatch):
    """Two separating certificates appended to the M2/F2 file, one with an
    unknown claim and one with no meta: φ = e_0 separates e_0⊗e_0 from the
    empty generator list, but e_0⊗e_0 is neither a defect nor a kernel tensor."""
    monkeypatch.chdir(tmp_path)
    e0 = [1] + [0] * 15

    def forge(data):
        forged = {"kind": "separating-functional", "functional": e0, "generators": [], "target": e0}
        data["certificates"] += [dict(forged, meta={"claim": "anything"}), forged]

    out = _tampered(capsys, ("Mn", "--n", "2", "--field", "F2"), forge)
    assert "certificate 64 (separating-functional): false" in out
    assert "certificate 65 (separating-functional): false" in out
    assert "all certificates: false" in out


@pytest.mark.parametrize("argv", [
    ("check", "{alg}", "--out", "{out}"),
    ("example", "Nm", "--out", "{out}"),
    ("corpus", "run", "--filter", "zero(1)/F2", "--out", "{out}"),
], ids=["check", "example", "corpus"])
def test_an_unwritable_output_path_exits_1_with_a_message(tmp_path, capsys, argv):
    alg, out = tmp_path / "n4.json", tmp_path / "missing" / "x.out"
    save_algebra(nilpotent_algebra(PrimeField(2), 4), str(alg))
    code, _, err = run_cli(capsys, *(a.format(alg=alg, out=out) for a in argv))
    assert (code, err) == (1, f"error: cannot write {out}: No such file or directory\n")
    assert not out.parent.exists()

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
        zero = next(c for c in certs if "target" not in c and not c["terms"])
        certs[nonzero]["meta"]["triple"] = zero["meta"]["triple"]

    out = _tampered(capsys, m2, move)
    assert "membership-decomposition): false" in out
    assert "all certificates: false" in out


def test_verify_reads_a_repeated_defect_from_its_triple(tmp_path, capsys, monkeypatch):
    """Only the first certificate of a defect stores its target.  A file that
    stores every nonzero target, as files did before, verifies too; a flipped
    target entry or a repeated-defect certificate without terms does not."""
    monkeypatch.chdir(tmp_path)
    m2, f3 = ("Mn", "--n", "2", "--field", "F3"), PrimeField(3)
    ts = DenseTensorSquare(matrix_algebra(f3, 2))

    def defect(cert):
        return ts.defect_tensor(*cert["meta"]["triple"])

    def triples(data):
        return [c for c in data["certificates"] if "triple" in c["meta"]]

    def every_target(data):
        stored = [c for c in triples(data) if any(defect(c))]
        assert 0 < sum("target" in c for c in stored) < len(stored)  # some defect repeats
        for cert in stored:
            cert["target"] = f3.format_vector(defect(cert))

    out = _tampered(capsys, m2, every_target)
    assert "false" not in out and "all certificates: true" in out

    def flip(data):
        cert = next(c for c in triples(data) if "target" in c)
        cert["target"][0] = (cert["target"][0] + 1) % 3

    def empty_repeat(data):
        next(c for c in triples(data) if "target" not in c and c["terms"])["terms"] = []

    for change in (flip, empty_repeat):
        out = _tampered(capsys, m2, change)
        assert out.count(": false") == 2 and "all certificates: false" in out, change.__name__


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
    ts = DenseTensorSquare(alg)

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
    assert out.startswith("map: scale.json\nfield: Q\n")
    assert "semimultiplicative: true" in out
    assert "factorization: {T: [[1/2, 0], [0, 1/3]], S: [[2, 0], [0, 3]], pi0: " in out
    code, out, _ = run_cli(capsys, "factorize", "scale.json", "--json")
    report = json.loads(out)
    assert report["map"] == "scale.json" and report["field"] == "Q"
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
    assert "zero_product_preserving: NO" in out and "factorization: failed" in out


def test_factorize_decides_balancedness_only_when_the_factorization_fails(tmp_path, capsys, monkeypatch):
    # a map that factors, or one that does not preserve zero products, cannot
    # raise the weighted-epimorphism alarm, so balancedness is never decided
    from zpbal import reports

    monkeypatch.chdir(tmp_path)
    run_cli(capsys, "example", "Kn", "--n", "2", "--field", "Q", "--out", "qq.json")
    for name, matrix in (("scale.json", [["2", "0"], ["0", "3"]]),
                         ("shear.json", [["1", "1"], ["0", "1"]])):
        with open(name, "w") as fh:
            json.dump({"source": "qq.json", "target": "qq.json", "matrix": matrix}, fh)
    runs = [("factorize", name, *flags) for name in ("scale.json", "shear.json") for flags in ([], ["--json"])]
    expected = [run_cli(capsys, *argv) for argv in runs]

    def refuse(*args):
        raise AssertionError("factorize decided balancedness")

    monkeypatch.setattr(reports, "is_zero_product_balanced", refuse)
    assert [run_cli(capsys, *argv) for argv in runs] == expected
    assert expected[0][0] == 0 and "factorization: {T: " in expected[0][1]
    assert expected[2][0] == 0 and "factorization: failed" in expected[2][1]


def test_fn2_report(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    run_cli(capsys, "example", "Mn", "--n", "2", "--field", "F2", "--out", "m2.json")
    code, out, _ = run_cli(capsys, "fn2", "m2.json")
    assert code == 0
    assert "commutator_span_dim: 3" in out
    assert "factorizable_span_dim: 3\nfactorizable_status: EXACT" in out
    assert "equal: true" in out
    code, out, _ = run_cli(capsys, "fn2", "m2.json", "--json")
    report = json.loads(out)
    assert set(report) == {"algebra", "field", "dim", "seed", "commutator_span_dim", "factorizable_span_dim",
                           "factorizable_status", "containment", "equal"}
    assert (report["field"], report["dim"]) == ("F2", 4)
    code, out, _ = run_cli(capsys, "fn2", "m2.json")
    assert out.startswith("algebra: m2.json\nfield: F2\ndim: 4\nseed: 0\n")  # as in check


def test_structure_report(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    run_cli(capsys, "example", "KxNm", "--m", "3", "--field", "F2", "--out", "kxn3.json")
    code, out, _ = run_cli(capsys, "structure", "kxn3.json", "--element", "1,1,0")
    assert code == 0
    assert out.startswith("algebra: kxn3.json\nfield: F2\ndim: 3\nseed: 0\n")  # as in check
    assert "nilradical: {dim: 2, " in out
    assert "characters: {status: EXACT, table: [[1, 0, 0]]}" in out
    assert ("decompositions: [{element: [1, 1, 0], nil_part: [0, 1, 0], "
            "terms: [{coefficient: 1, idempotent: [1, 0, 0]}]}]") in out
    assert "dichotomy: HAS_CHARACTER" in out


def test_structure_beyond_the_enumeration_cap(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    f2 = PrimeField(2)
    save_algebra(direct_sum(function_algebra(f2, 6), nilpotent_algebra(f2, 12)), "f2_6_n12.json")
    code, out, err = run_cli(capsys, "structure", "f2_6_n12.json")  # dim 17, 2^17 elements
    assert code == 0, err
    assert "nilradical: {dim: 11, " in out
    chars = _value(out, "characters")
    assert chars.startswith("{status: EXACT, table: [[") and chars.count("[") - 1 == 6
    assert _value(out, "atoms").count("[") - 1 == 6


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
    assert "commutative: false" in out
    assert "general_dichotomy: {kind: RADICAL_OVER_COMMUTATOR_IDEAL, " in out


def test_structure_refuses_an_element_of_a_noncommutative_algebra(tmp_path, capsys, monkeypatch):
    """Decompositions need a commutative algebra: an `--element` of M2/F2 is an
    input error, not a report without its decomposition."""
    monkeypatch.chdir(tmp_path)
    run_cli(capsys, "example", "Mn", "--n", "2", "--field", "F2", "--out", "m2.json")
    for flags in ([], ["--json"]):
        code, out, err = run_cli(capsys, "structure", "m2.json", "--element", "1,0,0,0", *flags)
        assert (code, out) == (1, "")
        assert err == ("error: --element: decompositions need a commutative algebra, "
                       "and m2.json is not commutative\n")


def test_structure_computes_no_zero_product_span_when_a_branch_holds(tmp_path, capsys, monkeypatch):
    # a character or an all-nilpotent algebra settles the dichotomy without
    # the balanced verdict
    from zpbal import structure

    def refuse(*args):
        raise AssertionError("structure computed the zero-product span")

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(structure, "compute_zero_product_span", refuse)
    for example, kind in ((("Kn", "--n", "3", "--field", "F3"), "HAS_CHARACTER"),
                          (("KxNm", "--m", "3"), "HAS_CHARACTER"),
                          (("Nm", "--m", "5", "--field", "F2"), "NILRADICAL")):
        run_cli(capsys, "example", *example, "--out", "a.json")
        code, out, err = run_cli(capsys, "structure", "a.json")
        assert code == 0, err
        assert f"dichotomy: {kind}" in out


def test_structure_alarms_when_a_balanced_algebra_fits_neither_branch(tmp_path, capsys, monkeypatch):
    # F4 over F2 is a field with no character: neither branch holds, so a
    # balanced YES would contradict the theorem
    from zpbal import structure

    monkeypatch.chdir(tmp_path)
    save_algebra(poly_quotient_algebra(PrimeField(2), [1, 1, 1]), "f4.json")
    code, out, err = run_cli(capsys, "structure", "f4.json")
    assert code == 0, err
    assert "dichotomy: INAPPLICABLE" in out
    monkeypatch.setattr(structure, "is_zero_product_balanced", lambda *a: SimpleNamespace(status="YES"))
    code, out, err = run_cli(capsys, "structure", "f4.json")
    assert (code, out) == (2, "")
    assert "SOUNDNESS ALARM: balanced commutative algebra with neither character nor nilradical" in err


def test_structure_reports_inapplicable_when_neither_general_branch_holds(tmp_path, capsys, monkeypatch):
    # F4 ⊕ M2 over F2: an exact search finds no character of the quotient F4,
    # and F4 is not radical, so the general dichotomy does not apply
    monkeypatch.chdir(tmp_path)
    f2 = PrimeField(2)
    save_algebra(direct_sum(poly_quotient_algebra(f2, [1, 1, 1]), matrix_algebra(f2, 2)), "f4m2.json")
    code, out, err = run_cli(capsys, "structure", "f4m2.json", "--json")
    assert code == 0, err
    assert json.loads(out)["general_dichotomy"] == {"kind": "INAPPLICABLE", "exponents": None}


KXN3Q = ("KxNm", "--m", "3", "--field", "Q")
KXN3F2 = ("KxNm", "--m", "3", "--field", "F2")
M2F2 = ("Mn", "--n", "2", "--field", "F2")


def test_fn2_reads_no_balanced_verdict_when_the_spans_are_equal(tmp_path, capsys, monkeypatch):
    # equal spans cannot raise the alarm, so balancedness is never decided
    def refuse(*args):
        raise AssertionError("fn2 computed the zero-product span")

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(squarezero, "compute_zero_product_span", refuse)
    for example, path in ((M2F2, "m2.json"), (("Nm", "--m", "3", "--field", "F2"), "n3.json")):
        run_cli(capsys, "example", *example, "--out", path)
        code, out, err = run_cli(capsys, "fn2", path)
        assert code == 0, err
        assert "equal: true" in out


@pytest.mark.parametrize("example, idempotent", [
    (M2F2, True),
    (("MnNm", "--n", "2", "--m", "3", "--field", "F2"), False),  # M2(N3): nilpotent, so not idempotent
], ids=["M2/F2", "M2(N3)/F2"])
def test_fn2_decides_balancedness_only_for_unequal_exact_spans(tmp_path, capsys, monkeypatch, example,
                                                                idempotent):
    # an EXACT factorizable span one dimension short of the commutator span
    spans = []
    real_factorizable = squarezero.factorizable_square_zero_span
    real_span = squarezero.compute_zero_product_span
    monkeypatch.setattr(squarezero, "factorizable_square_zero_span",
                        lambda *a: one_dimension_short(real_factorizable(*a)))
    monkeypatch.setattr(squarezero, "compute_zero_product_span",
                        lambda *a: spans.append(a) or real_span(*a))
    monkeypatch.chdir(tmp_path)
    run_cli(capsys, "example", *example, "--out", "a.json")
    code, out, err = run_cli(capsys, "fn2", "a.json")
    if idempotent:  # M2 is balanced: the theorem fails, so the alarm fires
        assert (code, out, len(spans)) == (2, "", 1)
        assert "SOUNDNESS ALARM: balanced idempotent algebra" in err
    else:
        assert (code, spans) == (0, []), err
        assert "equal: false" in out


def test_structure_reads_an_empty_element_of_a_zero_dimensional_algebra(tmp_path, capsys, monkeypatch):
    """The one vector of dimension 0 is written as the empty text."""
    monkeypatch.chdir(tmp_path)
    run_cli(capsys, "example", "zero", "--n", "0", "--out", "zero.json")
    code, out, err = run_cli(capsys, "structure", "zero.json", "--element=")
    assert (code, err) == (0, "")
    assert "decompositions: [{element: [], nil_part: [], terms: []}]" in out


@pytest.mark.parametrize("example, elements, message", [
    (KXN3Q, ["a,0,0"], "--element 'a,0,0': invalid rational scalar 'a'"),
    (KXN3Q, ["1,0,0", "a,0,0"], "--element 'a,0,0': invalid rational scalar 'a'"),
    (KXN3Q, ["1/0,0,0"], "--element '1/0,0,0': invalid rational scalar"),
    (KXN3Q, ["1,1"], "--element '1,1': expected 3 comma-separated coordinates, got 2"),
    (KXN3F2, ["1,1,0,0"], "expected 3 comma-separated coordinates, got 4"),
    (KXN3F2, ["1,x,0"], "--element '1,x,0': invalid residue 'x' for F2"),
    (KXN3F2, [""], "--element '': expected 3 comma-separated coordinates, got 0"),
    (M2F2, ["zz"], "--element 'zz': expected 4 comma-separated coordinates, got 1"),
    (M2F2, ["1,0,0,z"], "invalid residue 'z' for F2"),
], ids=["letter-Q", "after-a-valid-one", "zero-denominator-Q", "too-few", "too-many", "letter-F2", "empty",
        "noncommutative-too-few", "noncommutative-letter"])
def test_structure_rejects_a_malformed_element(tmp_path, capsys, monkeypatch, example, elements, message):
    """Every --element is parsed against the field and the dimension before
    any computation: exit 1 with a message and no report."""
    monkeypatch.chdir(tmp_path)
    run_cli(capsys, "example", *example, "--out", "alg.json")
    argv = [arg for e in elements for arg in ("--element", e)]
    for flags in ([], ["--json"]):
        code, out, err = run_cli(capsys, "structure", "alg.json", *argv, *flags)
        assert code == 1, err
        assert err.startswith("error: ") and message in err, err
        assert out == ""


def test_structure_exits_2_on_an_alarm_while_decomposing(tmp_path, capsys, monkeypatch):
    """An alarm while decomposing an element is never reported as a
    splitting that is not available."""
    from zpbal import structure

    monkeypatch.chdir(tmp_path)
    run_cli(capsys, "example", *KXN3F2, "--out", "alg.json")

    def alarm(*args):
        raise SoundnessAlarm("forced")

    monkeypatch.setattr(structure, "decompose", alarm)
    code, out, err = run_cli(capsys, "structure", "alg.json", "--element", "1,1,0")
    assert code == 2 and "SOUNDNESS ALARM: forced" in err and out == "", err


def test_text_renders_every_key_of_the_json_report(tmp_path, capsys, monkeypatch):
    """Text and --json come from one report: each top-level key of the JSON
    starts exactly one text line, no other line is printed, and a string
    value is printed as it is."""
    monkeypatch.chdir(tmp_path)
    for example, path in ((("Nm", "--m", "4", "--field", "F2"), "n4.json"), (M2F2, "m2.json"),
                          (KXN3Q, "kxn3q.json"), (("Kn", "--n", "2", "--field", "F3"), "k2f3.json"),
                          (("Kn", "--n", "2", "--field", "Q"), "qq.json")):
        run_cli(capsys, "example", *example, "--out", path)
    for name, matrix in (("scale.json", [["2", "0"], ["0", "3"]]), ("proj.json", [["1", "0"], ["0", "0"]])):
        Path(name).write_text(json.dumps({"source": "qq.json", "target": "qq.json", "matrix": matrix}))
    for argv in (["check", "n4.json"], ["check", "m2.json"], ["factorize", "scale.json"],
                 ["factorize", "proj.json"], ["structure", "kxn3q.json", "--element", "1/2,1,0"],
                 ["structure", "k2f3.json", "--cap", "2", "--element", "1,2"],  # splitting not available
                 ["structure", "m2.json"], ["fn2", "m2.json"]):
        code, text, _ = run_cli(capsys, *argv)
        assert code == 0
        code, out, _ = run_cli(capsys, *argv, "--json")
        assert code == 0
        report = json.loads(out)
        lines = text.splitlines()
        for key, value in report.items():
            assert sum(line.startswith(f"{key}: ") for line in lines) == 1, (argv, key, text)
            if isinstance(value, str):
                assert f"{key}: {value}" in lines, (argv, key, text)
        assert len(lines) == len(report), (argv, text)


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
    "vectors-too-short": (_certificate_file(generators=[{"u": [1], "v": [0]}]),
                          "generator u must be a list of 2 scalars, got [1]"),
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


@pytest.mark.parametrize("name,dim", [("Nm", 1), ("MnNm", 4), ("KxNm", 2)])
def test_example_bounds_the_nilpotent_order_at_2(tmp_path, capsys, name, dim):
    """Nm, MnNm and KxNm are built on N_m, whose order m is at least 2: --m 1
    exits 1 with a message naming --m and writes no file, and --m 2 works."""
    out = tmp_path / "example.json"
    code, _, err = run_cli(capsys, "example", name, "--m", "1", "--out", str(out))
    assert (code, err) == (1, "error: --m must be at least 2, got 1\n")
    assert not out.exists()
    code, stdout, _ = run_cli(capsys, "example", name, "--m", "2", "--out", str(out))
    assert code == 0 and f"(dim {dim} over F2)" in stdout
    code, _, _ = run_cli(capsys, "example", "Kn", "--m", "1", "--out", str(out))  # Kn ignores --m
    assert code == 0


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


# --- the process entry point ---------------------------------------------------
#
# `run` is what `python -m zpbal.cli` and the `zpbal` script execute: it calls
# `main` and freezes the collector before the process exits.  `main` itself
# leaves the collector alone, since tests and the benchmark's tracer call it
# many times in one process.

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.mark.parametrize("collecting", [True, False])
def test_main_leaves_the_collector_as_it_found_it(tmp_path, capsys, monkeypatch, collecting):
    """No command freezes the collector or leaves it switched on or off."""
    monkeypatch.chdir(tmp_path)
    was = gc.isenabled()
    frozen = gc.get_freeze_count()

    def step(code, *argv):
        assert run_cli(capsys, *argv)[0] == code, argv
        assert gc.isenabled() is collecting, argv
        assert gc.get_freeze_count() == frozen, argv

    try:
        (gc.enable if collecting else gc.disable)()
        step(0, "example", "Mn", "--n", "2", "--field", "F2", "--out", "m2.json")
        step(0, "check", "m2.json", "--out", "certs.json")
        step(0, "verify", "certs.json", "m2.json")
        _malformed_certificate_file("bad.json", "certs.json")
        step(1, "verify", "bad.json", "m2.json")
        step(0, "example", "Kn", "--n", "3", "--field", "F3", "--out", "k3.json")
        step(0, "structure", "k3.json", "--json")
    finally:
        (gc.enable if was else gc.disable)()


def _in_process(capsys, argv):
    """Exit code, stdout and stderr of `main(argv)`; argparse's exit included."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimized"])
def test_a_child_gives_what_main_gives_in_process(tmp_path, capsys, monkeypatch, flags):
    """`python -m zpbal.cli` prints, writes and exits as `main` does in process:
    check and verify on N4/F2 and M2/Q, a malformed certificate file and an
    unknown command."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    here, child = tmp_path / "in-process", tmp_path / "child"
    here.mkdir()
    child.mkdir()
    monkeypatch.chdir(here)
    codes = []

    def compare(*argv):
        want = _in_process(capsys, list(argv))
        proc = subprocess.run([sys.executable, *flags, "-m", "zpbal.cli", *argv], cwd=child,
                              capture_output=True, text=True, env=env, timeout=60)
        assert (proc.returncode, proc.stdout, proc.stderr) == want, argv
        codes.append(want[0])

    for stem, example in (("n4f2", ["Nm", "--m", "4", "--field", "F2"]),
                          ("m2q", ["Mn", "--n", "2", "--field", "Q"])):
        alg = str(tmp_path / f"{stem}.json")
        assert main(["example", *example, "--out", alg]) == 0
        capsys.readouterr()
        compare("check", alg, "--out", f"{stem}.certs.json")
        compare("check", alg, "--json", "--seed", "3", "--out", f"{stem}.json.certs.json")
        compare("verify", str(here / f"{stem}.certs.json"), alg)
    _malformed_certificate_file(tmp_path / "bad.json", here / "m2q.certs.json")
    compare("verify", str(tmp_path / "bad.json"), alg)
    compare("no-such-command")
    assert codes == [0] * 6 + [1, 2]
    written = sorted(p.name for p in here.iterdir())
    assert written == sorted(p.name for p in child.iterdir()) and len(written) == 4
    for name in written:
        assert (here / name).read_bytes() == (child / name).read_bytes(), name


@pytest.mark.parametrize("argv, code", [(["example", "Kn", "--n", "1"], 0),
                                        (["verify", "none.json", "none.json"], 1),
                                        (["no-such-command"], 2)])
def test_run_exits_with_mains_status_and_the_collector_frozen(tmp_path, argv, code):
    """An atexit handler, which runs after `run` has returned control to the
    interpreter, sees the collector frozen, whatever the exit status."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    program = ("import atexit, gc, sys\n"
               "from zpbal import cli\n"
               "atexit.register(lambda: print('frozen:', gc.get_freeze_count() > 0))\n"
               f"sys.argv = ['zpbal', *{argv!r}]\n"
               "cli.run()\n")
    proc = subprocess.run([sys.executable, "-c", program], cwd=tmp_path, capture_output=True,
                          text=True, env=env, timeout=60)
    assert proc.returncode == code, proc.stderr
    assert proc.stdout.endswith("frozen: True\n")


def test_the_console_script_and_the_main_block_run_the_same_function():
    """pyproject's `zpbal` script names the function cli.py's `__main__` block
    calls, so the installed command freezes as `python -m zpbal.cli` does."""
    tomllib = pytest.importorskip("tomllib")
    with open(SRC.parent / "pyproject.toml", "rb") as fh:
        module, _, name = tomllib.load(fh)["project"]["scripts"]["zpbal"].partition(":")
    script = getattr(importlib.import_module(module), name)
    (block,) = [node for node in ast.parse(Path(cli.__file__).read_text()).body
                if isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'"]
    (statement,) = block.body
    assert isinstance(statement, ast.Expr) and isinstance(statement.value, ast.Call)
    assert not statement.value.args and not statement.value.keywords
    assert getattr(cli, ast.unparse(statement.value.func)) is script is cli.run

"""The loaders are a trust boundary: malformed input is a ParseError, never a crash.

Certificate files also round-trip: what `check` writes loads back as the
certificates it was built from, and every one of them verifies.
"""

import hashlib
import json
import random
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from oracles import certificates_to_dict, random_change_of_basis, reference_certificate_text
from references import SHAPES, DenseTensorSquare, random_algebra
from zpbal import serialize
from zpbal.algebra import Algebra
from zpbal.cli import main
from zpbal.constructions import (
    function_algebra,
    matrix_algebra,
    nilpotent_algebra,
    poly_quotient_algebra,
    tensor_product,
)
from zpbal.config import DEFAULT_CONFIG, SweepConfig
from zpbal.corpus import golden_corpus
from zpbal.errors import MalformedCertificate, ParseError
from zpbal.fields import PrimeField
from zpbal.linmaps import AlgMap
from zpbal.rationals import QQ
from zpbal.serialize import (
    algebra_from_dict,
    certificates_from_dict,
    load_certificates,
    map_from_dict,
    save_certificates,
)
from zpbal.tensorsquare import (
    MEMBERSHIP,
    SEPARATING,
    Certificate,
    compute_zero_product_span,
    is_zero_product_balanced,
    is_zero_product_determined,
    verify_certificate,
)

F2, F3 = PrimeField(2), PrimeField(3)

# Any value json.load can return; short strings keep field names like "F<p>" cheap to test.
json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 5) | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=12,
)
# Near-valid objects, so that the checks behind the first few are reached too.
scalars = st.integers(-2, 3) | st.sampled_from(["1", "2/3", "1/0", "x"]) | json_values
coords = st.lists(scalars, max_size=3) | json_values
entries = st.fixed_dictionaries({
    "i": st.integers(-1, 3) | json_values,
    "j": st.integers(-1, 3) | json_values,
    "coords": coords,
}) | json_values
algebra_like = st.fixed_dictionaries(
    {
        "field": st.sampled_from(["F2", "F3", "Q", "F4", "R"]) | json_values,
        "dim": st.integers(-1, 3) | json_values,
        "basis": st.lists(st.text(max_size=2), max_size=3) | json_values,
        "products": st.lists(entries, max_size=5) | json_values,
    },
    optional={"idempotents": st.lists(coords, max_size=2) | json_values},
)


@settings(max_examples=300, deadline=None)
@given(json_values | algebra_like)
def test_algebra_loader_returns_algebra_or_parse_error(data):
    try:
        alg = algebra_from_dict(data)
    except ParseError:
        return
    assert isinstance(alg, Algebra)


# --- mutational fuzzing of the map and certificate loaders -------------------

# Mutants of valid files: one to three nodes replaced or deleted.  Almost
# every mutant gets past the first checks, so the later ones are reached too.
DELETE = object()
leaves = st.just(DELETE) | st.integers(-1, 3) | st.sampled_from(["1", "x", "1e99999"]) | json_values


def _paths(node, prefix=()):
    yield prefix
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield from _paths(child, prefix + (key,))


def _mutated(doc, path, value):
    if not path:
        return {} if value is DELETE else value
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if value is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


def mutant(data, doc):
    doc = json.loads(json.dumps(doc))
    for _ in range(data.draw(st.integers(1, 3))):
        doc = _mutated(doc, data.draw(st.sampled_from(list(_paths(doc)))), data.draw(leaves))
    return doc


K2 = {"field": "F2", "dim": 2, "basis": ["a", "b"],
      "products": [{"i": 0, "j": 0, "coords": [1, 0]}, {"i": 1, "j": 1, "coords": [0, 1]}]}
MAP = {"source": "k2.json", "target": K2, "matrix": [[1, 0], ["0", 1]]}


@pytest.fixture(scope="module")
def map_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("maps")
    (path / "k2.json").write_text(json.dumps(K2))
    return str(path)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_map_loader_returns_map_or_parse_error(map_dir, data):
    try:
        amap = map_from_dict(mutant(data, MAP), base_dir=map_dir)
    except ParseError:
        return
    assert isinstance(amap, AlgMap)


@pytest.fixture(scope="module")
def cert_files():
    """Algebra and certificate-file object for a balanced and an unbalanced algebra."""
    files = []
    for alg in (function_algebra(F2, 2), nilpotent_algebra(F3, 4)):
        certs, claim = check_certificates(alg, DEFAULT_CONFIG)
        files.append((alg, certificates_to_dict(certs, alg.field, 0, balanced=claim)))
    return files


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(which=st.integers(0, 1), data=st.data())
def test_certificate_loader_and_verifier_never_crash(cert_files, which, data):
    alg, doc = cert_files[which]
    try:
        claim, certs = certificates_from_dict(mutant(data, doc), alg.field, alg.dim)
    except (ParseError, MalformedCertificate):
        return
    assert claim in ("YES", "NO", "UNKNOWN")
    for cert in certs:
        assert isinstance(cert, Certificate)
        try:
            assert verify_certificate(alg, cert) in (True, False)
        except MalformedCertificate:
            pass


# --- round trip against the in-memory certificates ----------------------------

def check_certificates(alg, config):
    """The certificates `zpbal check` writes, in its order, and the balanced verdict."""
    span = compute_zero_product_span(alg, config)
    balanced = is_zero_product_balanced(alg, span)
    determined = is_zero_product_determined(alg, span)
    return balanced.certificates + determined.certificates, balanced.status


def assert_round_trip(alg, config, tmp_path):
    certs, claim = check_certificates(alg, config)
    first, second = tmp_path / "a.certs.json", tmp_path / "b.certs.json"
    save_certificates(certs, alg.field, config.seed, str(first), label="x", balanced=claim)
    save_certificates(certs, alg.field, config.seed, str(second), label="x", balanced=claim)
    assert first.read_bytes() == second.read_bytes()
    assert first.read_text() == reference_certificate_text(certs, alg.field, config.seed, "x", balanced=claim)
    loaded_claim, loaded = load_certificates(str(first), alg.field, alg.dim)
    assert loaded_claim == claim
    assert len(loaded) == len(certs)
    ts = DenseTensorSquare(alg)
    shown = set()  # defects whose target an earlier certificate stores
    for cert, back in zip(certs, loaded):
        triple = cert.meta.get("triple")
        assert back.kind == cert.kind and back.meta == cert.meta
        if triple is not None:
            defect = tuple(ts.defect_tensor(*triple))
            if cert.target is not None:  # each defect's target is stored once
                assert list(defect) == cert.target and any(defect) and defect not in shown
                shown.add(defect)
            else:  # a zero defect, or one an earlier certificate stores
                assert not any(defect) or defect in shown
        assert back.target == cert.target
        assert back.terms == [(lam, tuple(u), tuple(v)) for lam, u, v in cert.terms]
        assert back.functional == cert.functional
        assert back.generators == cert.generators
        assert verify_certificate(alg, back)
    return len(loaded)


@pytest.mark.parametrize("entry", [e for e in golden_corpus() if e.algebra.field.is_finite()],
                         ids=lambda e: e.name)
def test_certificate_file_round_trip_on_finite_corpus(entry, tmp_path):
    assert assert_round_trip(entry.algebra, entry.config, tmp_path) > 0


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("field", [F2, F3], ids=["F2", "F3"])
def test_certificate_file_round_trip_on_random_algebras(field, shape, tmp_path):
    for seed in range(3):
        assert_round_trip(random_algebra(seed, field, shape), DEFAULT_CONFIG, tmp_path)


# --- the token-table writer against the reference encoding ---------------------

@lru_cache(maxsize=None)
def writer_cases():
    """(name, field, certificates, claim) of the files `check` writes for the
    corpus, random algebras and the same in random bases, each over F2, F3 and
    Q, plus lower-bound UNKNOWNs and the corpus's hand certificates."""
    algebras = [(e.name, e.algebra, e.config) for e in golden_corpus()]
    rng = random.Random(19)
    for field in (F2, F3, QQ):
        for shape in SHAPES:
            alg = random_algebra(1, field, shape)
            algebras.append((f"{shape}/{field.name}", alg, DEFAULT_CONFIG))
            algebras.append((f"{shape}/{field.name} rebased", random_change_of_basis(alg, rng), DEFAULT_CONFIG))
    algebras.append(("M2/Q rebased", random_change_of_basis(matrix_algebra(QQ, 2), rng), DEFAULT_CONFIG))
    algebras.append(("N8/Q", nilpotent_algebra(QQ, 8), SweepConfig(seed=7)))
    algebras.append(("N9/F3 cap 3^7", nilpotent_algebra(F3, 9), SweepConfig(enumeration_cap=3 ** 7, seed=7)))
    cases = []
    for name, alg, config in algebras:
        certs, claim = check_certificates(alg, config)
        cases.append((name, alg.field, tuple(certs), claim))
    for e in golden_corpus():
        for label, cert, _ in e.hand_certificates:
            cases.append((f"{e.name} {label}", e.algebra.field, (cert,), "NO"))
    return cases


def _written_text(tmp_path, certs, fld, seed, label, claim) -> str:
    path = tmp_path / "w.certs.json"
    save_certificates(list(certs), fld, seed, str(path), label=label, balanced=claim)
    return path.read_bytes().decode()


def test_writer_cases_cover_every_kind_of_file():
    cases = writer_cases()
    assert {fld.name for _, fld, _, _ in cases} == {"F2", "F3", "Q"}
    assert {claim for _, _, _, claim in cases} == {"YES", "NO", "UNKNOWN"}
    certs = [c for _, _, file, _ in cases for c in file]
    assert any(c.kind == MEMBERSHIP and c.target is None for c in certs)  # a zero-defect triple
    assert {c.meta.get("claim") for c in certs if c.kind == SEPARATING} == \
        {"not-zero-product-balanced", "not-zero-product-determined"}
    lams = [lam for _, fld, file, _ in cases if fld == QQ for c in file for lam, _, _ in c.terms]
    assert any(Fraction(lam).denominator > 1 for lam in lams)
    assert any(lam < 0 for lam in lams)


def test_writer_matches_the_reference_on_every_case(tmp_path):
    for name, fld, certs, claim in writer_cases():
        want = reference_certificate_text(list(certs), fld, 5, name, balanced=claim)
        assert _written_text(tmp_path, certs, fld, 5, name, claim) == want, name


metas = st.fixed_dictionaries({"triple": st.lists(st.integers(0, 3) | st.booleans(), min_size=3, max_size=3)
                                         | st.lists(st.integers(-1, 70), max_size=4)
                                         | st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3))}) \
    | st.dictionaries(st.text(max_size=3), st.integers(-5, 5) | st.text(max_size=3) | st.booleans()
                      | st.none() | st.lists(st.integers(0, 9), max_size=3), max_size=3)


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data(), seed=st.integers(-2 ** 40, 2 ** 40), label=st.text(max_size=6))
def test_writer_writes_the_reference_bytes(tmp_path, data, seed, label):
    """Any seed and label, any choice of a file's certificates in any order, odd
    meta objects and zero targets, and over Q λ and targets scaled by any
    nonzero rational."""
    name, fld, certs, claim = data.draw(st.sampled_from(writer_cases()), label="case")
    certs = data.draw(st.lists(st.sampled_from(certs), max_size=8) if certs else st.just([]), label="certs")
    if fld == QQ and certs:
        c = data.draw(st.fractions(min_value=-5, max_value=5, max_denominator=9).filter(bool), label="scale")
        certs = [Certificate(x.kind, None if x.target is None else [QQ.mul(c, a) for a in x.target],
                             [(QQ.mul(c, lam), u, v) for lam, u, v in x.terms], x.functional,
                             x.generators, x.meta) for x in certs]
    if certs and data.draw(st.booleans(), label="odd meta or zero target"):
        n = data.draw(st.integers(0, len(certs) - 1))
        x = certs[n]
        target = x.target if x.target is None or data.draw(st.booleans()) else [fld.zero] * len(x.target)
        certs[n] = Certificate(x.kind, target, x.terms, x.functional, x.generators, data.draw(metas))
    want = reference_certificate_text(certs, fld, seed, label, balanced=claim)
    assert _written_text(tmp_path, certs, fld, seed, label, claim) == want, name


# sha256 of the certificate file `check --seed 7` writes for each `example`,
# and of the same file with its membership lines naming their kind, which the
# writer leaves off; any change to these bytes must be deliberate and update
# the digests.
GOLDEN_CERTIFICATES = {
    "m2f2": (("Mn", "--n", "2", "--field", "F2"),
             "61128d69e00f2aa5742898a2394402d627e56fc40c864f50b5a3032eaf5b724a",
             "fdbb0064d6760ebb5c55040a55c4f059ea9fda06336d6d06b0e1bfbf19c3a351"),
    "n4f3": (("Nm", "--m", "4", "--field", "F3"),
             "0b192400898c28677a840dc526d4d9787f50fdcc397a18bd79891ca8501c7532",
             "0b192400898c28677a840dc526d4d9787f50fdcc397a18bd79891ca8501c7532"),
    "m2q": (("Mn", "--n", "2", "--field", "Q"),
            "cacfed5e48ebec0b0e0f153ad2d66bc117ce7e5b77ac44175f65f05f19881874",
            "f2e1e03f64dfeaafd1f781ceaf0b241f47f1f2590d1186b2256b568a4bc545f8"),
    "dn3q": (("DN3", "--field", "Q"),
             "8554595d2366e4c5aac464512cb9152f75a989d2b03f5e54f1aa40378dc60731",
             "38a1cdeff88df9cc7232e9c4880df16939c338d045f606c1f65d0a6f43a12fa6"),
}


def _checked_file(stem, tmp_path, capsys, monkeypatch) -> bytes:
    """The bytes of the certificate file `check --seed 7` writes for a golden example."""
    monkeypatch.chdir(tmp_path)  # the file name is the label inside the file
    assert main(["example", *GOLDEN_CERTIFICATES[stem][0], "--out", f"{stem}.json"]) == 0
    assert main(["check", f"{stem}.json", "--seed", "7", "--out", f"{stem}.certs.json"]) == 0
    capsys.readouterr()
    return (tmp_path / f"{stem}.certs.json").read_bytes()


@pytest.mark.parametrize("stem", GOLDEN_CERTIFICATES)
def test_check_writes_the_golden_certificate_bytes(stem, tmp_path, capsys, monkeypatch):
    digest = GOLDEN_CERTIFICATES[stem][1]
    assert hashlib.sha256(_checked_file(stem, tmp_path, capsys, monkeypatch)).hexdigest() == digest


def _verify_output(capsys, certs, alg):
    code = main(["verify", str(certs), str(alg)])
    out, err = capsys.readouterr()
    return code, out, err


@pytest.mark.parametrize("stem", GOLDEN_CERTIFICATES)
def test_a_membership_line_names_no_kind(stem, tmp_path, capsys, monkeypatch):
    """`check` leaves "kind" off every membership and names it on every
    separating certificate.  Put back after the `{` of each membership line,
    the kind gives the golden bytes of a file that names every kind, and
    `verify` prints the same and exits alike on both files."""
    text = _checked_file(stem, tmp_path, capsys, monkeypatch).decode()
    lines = text.split("\n")
    entries = [json.loads(line.rstrip(",")) for line in lines[1:-2]]  # one certificate a line
    assert entries == json.loads(text)["certificates"]
    assert '"kind":"membership-decomposition"' not in text
    for n, entry in enumerate(entries, 1):
        if "terms" in entry:
            assert "kind" not in entry
            lines[n] = '{"kind":"membership-decomposition",' + lines[n][1:]
        else:
            assert entry["kind"] == SEPARATING
    explicit = "\n".join(lines)
    assert hashlib.sha256(explicit.encode()).hexdigest() == GOLDEN_CERTIFICATES[stem][2]
    (tmp_path / "explicit.certs.json").write_text(explicit)
    alg = tmp_path / f"{stem}.json"
    assert _verify_output(capsys, tmp_path / "explicit.certs.json", alg) == \
        _verify_output(capsys, tmp_path / f"{stem}.certs.json", alg)

# --- the representation of a rational never shows in an artifact --------------

Q_ALGEBRAS = {
    "M2/Q": lambda: matrix_algebra(QQ, 2),
    "Q(i)xN3/Q": lambda: tensor_product(poly_quotient_algebra(QQ, [1, 0, 1]), nilpotent_algebra(QQ, 3)),
    "DxN3/Q": lambda: tensor_product(poly_quotient_algebra(QQ, [-2, 0, 1]), nilpotent_algebra(QQ, 3)),
}


def _check_artifacts(tmp_path, capsys, monkeypatch, name, alg):
    """`check --json` and `verify` on alg as file <name>/a.json: the report with
    its certificate path dropped, the certificate file bytes and the verify output."""
    where = tmp_path / name
    where.mkdir()
    path, certs = where / "a.json", where / "a.certs.json"
    with monkeypatch.context() as m:
        if isinstance(alg, Algebra):  # held in memory, not read from a file
            m.setattr(serialize, "load_algebra", lambda _: alg)
        else:
            path.write_text(json.dumps(alg))
        assert main(["check", str(path), "--json", "--seed", "7", "--out", str(certs)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report.pop("certificates") == str(certs)
        assert main(["verify", str(certs), str(path)]) == 0
    return report, certs.read_bytes(), capsys.readouterr().out.replace(str(where), "")


@pytest.mark.parametrize("build", Q_ALGEBRAS.values(), ids=Q_ALGEBRAS.keys())
def test_check_output_does_not_depend_on_how_a_rational_is_held(build, tmp_path, capsys, monkeypatch):
    alg = build()
    assert all(Fraction(c).denominator == 1 for row in alg.table for v in row for c in v)
    ints = [[[int(c) for c in v] for v in row] for row in alg.table]
    fracs = [[[Fraction(c) for c in v] for v in row] for row in alg.table]
    spelled = serialize.algebra_to_dict(alg)  # each constant n as "2n/2" or "4n/4", so ±1 as "2/2", "-4/4"
    for p, entry in enumerate(spelled["products"]):
        k = 2 if p % 2 == 0 else 4
        entry["coords"] = [f"{int(c) * k}/{k}" for c in entry["coords"]]
    assert any(c in ("2/2", "4/4", "-2/2", "-4/4") for e in spelled["products"] for c in e["coords"])
    runs = [
        _check_artifacts(tmp_path, capsys, monkeypatch, "ints", Algebra(QQ, alg.names, ints)),
        _check_artifacts(tmp_path, capsys, monkeypatch, "fractions", Algebra(QQ, alg.names, fracs)),
        _check_artifacts(tmp_path, capsys, monkeypatch, "spelled", spelled),
    ]
    assert runs[0] == runs[1] == runs[2]

"""The loaders are a trust boundary: malformed input is a ParseError, never a crash.

Certificate files also round-trip: what `check` writes loads back as the
certificates it was built from, and every one of them verifies.
"""

import json

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from references import SHAPES, random_algebra
from zpbal.algebra import Algebra, function_algebra, nilpotent_algebra
from zpbal.config import DEFAULT_CONFIG
from zpbal.corpus import golden_corpus
from zpbal.errors import MalformedCertificate, ParseError
from zpbal.fields import PrimeField
from zpbal.linmaps import AlgMap
from zpbal.serialize import (
    algebra_from_dict,
    certificates_from_dict,
    certificates_to_dict,
    load_certificates,
    map_from_dict,
    save_certificates,
)
from zpbal.tensorsquare import (
    Certificate,
    TensorSquare,
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
        claim, certs = certificates_from_dict(mutant(data, doc), alg.field)
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
    balanced = is_zero_product_balanced(alg, span, with_certificates=True)
    determined = is_zero_product_determined(alg, span)
    certs = list(balanced.certificates or [])
    certs += [c for c in (balanced.certificate, determined.certificate) if c is not None]
    return certs, balanced.status


def assert_round_trip(alg, config, tmp_path):
    certs, claim = check_certificates(alg, config)
    first, second = tmp_path / "a.certs.json", tmp_path / "b.certs.json"
    save_certificates(certs, alg.field, config.seed, str(first), label="x", balanced=claim)
    save_certificates(certs, alg.field, config.seed, str(second), label="x", balanced=claim)
    assert first.read_bytes() == second.read_bytes()
    assert json.loads(first.read_text()) == certificates_to_dict(
        certs, alg.field, config.seed, "x", balanced=claim)
    loaded_claim, loaded = load_certificates(str(first), alg.field)
    assert loaded_claim == claim
    assert len(loaded) == len(certs)
    ts = TensorSquare(alg)
    for cert, back in zip(certs, loaded):
        triple = cert.meta.get("triple")
        assert back.kind == cert.kind and back.meta == cert.meta
        if triple is not None:
            assert ts.defect_tensor(*triple) == cert.target
        if triple is not None and not any(cert.target):
            assert back.target is None  # a zero defect is stored by its triple alone
        else:
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

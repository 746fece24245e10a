"""The reader of certificate files against the reference that checks every
certificate on its own.

`serialize.certificates_from_dict` parses each distinct term once and
`tensorsquare.verify_file` computes each distinct pair product and term-list
sum once.  Each case takes a file written by `check`, tampers with it the way
a forger or a disk might, and requires the same printed lines and the same
error as `oracles.reference_certificates_from_dict` followed by
`oracles.reference_verify_file`.
"""

import copy
import json
from collections import defaultdict

import pytest
from hypothesis import given, settings, strategies as st

from oracles import object_terms, reference_certificates_from_dict, reference_verify_file
from references import DenseTensorSquare
from zpbal import serialize, tensorsquare
from zpbal.cli import main
from zpbal.constructions import function_algebra
from zpbal.errors import MalformedCertificate, ParseError, ZpbalError
from zpbal.tensorsquare import MEMBERSHIP, SEPARATING, verify_file

# A balanced algebra (memberships), an unbalanced one (a separating
# certificate listing every generator) and one over Q (string scalars).
EXAMPLES = [("m2f2", ["Mn", "--n", "2", "--field", "F2"]),
            ("n4f3", ["Nm", "--m", "4", "--field", "F3"]),
            ("m2q", ["Mn", "--n", "2", "--field", "Q"])]
# Scalars a tampered file may hold: valid ones, and ones the parser refuses,
# among them True and 1.0, which equal 1 but must not read as 1.
SCALARS = [0, 1, 2, -1, "1", "01", "2/3", "x", True, 1.0, None]


STEMS = [stem for stem, _ in EXAMPLES] + ["m2f2 named", "m2q objects"]


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """Per example: the algebra and the certificate document `check` wrote;
    M2/F2's with every membership naming the triple of its place, as files
    did before the writer left it off; and M2/Q's with each term the object
    {"generator", "lambda"} and each integer scalar a string, as files were
    before a term was a pair."""
    work = tmp_path_factory.mktemp("verify")
    out = {}
    for stem, args in EXAMPLES:
        alg, certs = work / f"{stem}.json", work / f"{stem}.certs.json"
        assert main(["example", *args, "--out", str(alg)]) == 0
        assert main(["check", str(alg), "--out", str(certs)]) == 0
        out[stem] = (serialize.load_algebra(str(alg)), json.loads(certs.read_text()))
    alg, doc = out["m2f2"]
    named = copy.deepcopy(doc)
    for n, m in enumerate(_members(named["certificates"])):
        named["certificates"][m]["meta"] = {"triple": _place(n, alg.dim)}
    out["m2f2 named"] = (alg, named)
    out["m2q objects"] = (out["m2q"][0], object_terms(out["m2q"][1]))
    return out


def _read(load, verify, alg, doc, tamper=None):
    """The lines printed before the first error, and that error."""
    lines = []
    try:
        balanced, certs = load(doc, alg.field, alg.dim)
        if tamper is not None:
            tamper(certs)
        for line in verify(alg, balanced, certs):
            lines.append(line)
    except ZpbalError as exc:
        return lines, (type(exc), str(exc))
    return lines, None


# The two places of a term's generator index and lambda: its pair [g, λ], or
# the object {"generator": g, "lambda": λ} of older files.
GENERATOR, LAMBDA = {list: 0, dict: "generator"}, {list: 1, dict: "lambda"}


def _users(doc):
    """Generator index -> the certificates that use it."""
    users = defaultdict(set)
    for n, cert in enumerate(doc["certificates"]):
        for t in cert.get("terms", []):
            users[t[GENERATOR[type(t)]]].add(n)
        for g in cert.get("generators", []):
            users[g].add(n)
    return users


def _nonzero_product(alg):
    """Basis vectors e_i, e_j with e_i e_j != 0, as scalars of the file."""
    f = alg.field
    i, j = next((i, j) for i in range(alg.dim) for j in range(alg.dim) if any(alg.table[i][j]))
    unit = lambda k: [f.format(f.one if m == k else f.zero) for m in range(alg.dim)]
    return unit(i), unit(j)


def _members(certs):
    """The positions of the memberships of a file, in order: the n-th is about
    basis triple n in row-major order, its place."""
    return [n for n, c in enumerate(certs) if c.get("kind", MEMBERSHIP) == MEMBERSHIP]


def _place(n, d):
    return [n // (d * d), n // d % d, n % d]


def _tamper(doc, alg, kind, draw):
    """Change `doc` in place; returns a change to the loaded certificates, or None."""
    d = alg.dim
    certs = doc["certificates"]
    with_terms = [c for c in certs if c.get("terms")]
    members = _members(certs)
    if kind == "lambda":
        term = draw(st.sampled_from([t for c in with_terms for t in c["terms"]]))
        term[LAMBDA[type(term)]] = draw(st.sampled_from(SCALARS))
    elif kind == "generator index":
        indices = [lst for c in certs for lst in (c.get("terms", []), c.get("generators", [])) if lst]
        lst = draw(st.sampled_from(indices))
        k = draw(st.integers(0, len(lst) - 1))
        value = draw(st.sampled_from([-1, 0, 1, len(doc["generators"]), True, "0"]))
        if isinstance(lst[k], (list, dict)):
            lst[k][GENERATOR[type(lst[k])]] = value
        else:
            lst[k] = value
    elif kind == "term form":
        # a term in the other form, which reads the same, or a malformed one
        terms = draw(st.sampled_from([c["terms"] for c in with_terms]))
        k = draw(st.integers(0, len(terms) - 1))
        g, lam = terms[k][GENERATOR[type(terms[k])]], terms[k][LAMBDA[type(terms[k])]]
        terms[k] = draw(st.sampled_from([
            [g, lam], {"generator": g, "lambda": lam}, [g], [g, lam, 0], [lam, g], [True, lam], [g, 1.5],
            [len(doc["generators"]), lam], [], {"generator": g}, {"generator": g, "lambda": lam, "x": 0},
            g, None, "0"]))
    elif kind == "triple":
        # any certificate names a triple: its own, another, or none of A's
        cert = draw(st.sampled_from(certs))
        cert.setdefault("meta", {})["triple"] = draw(st.lists(st.integers(-1, d), min_size=3, max_size=3))
    elif kind == "swap two memberships whose defects differ":
        ts = DenseTensorSquare(alg)
        defect = {m: ts.defect_tensor(*_place(n, d)) for n, m in enumerate(members)}
        a = draw(st.sampled_from(members))
        b = draw(st.sampled_from([m for m in members if defect[m] != defect[a]]))
        certs[a], certs[b] = certs[b], certs[a]
    elif kind == "drop a membership":
        del certs[draw(st.sampled_from(members))]
    elif kind == "append a membership":
        certs.append(copy.deepcopy(certs[draw(st.sampled_from(members))]))
    elif kind == "explicit triple not its place":
        n = draw(st.integers(0, len(members) - 1))
        others = [_place(m, d) for m in range(d ** 3) if m != n]
        certs[members[n]]["meta"] = {"triple": draw(st.sampled_from(others))}
    elif kind == "generator vector":
        g = draw(st.sampled_from(doc["generators"]))
        side = g[draw(st.sampled_from(["u", "v"]))]
        side[draw(st.integers(0, d - 1))] = draw(st.sampled_from(SCALARS))
    elif kind == "generator length":
        side = draw(st.sampled_from(doc["generators"]))[draw(st.sampled_from(["u", "v"]))]
        if draw(st.booleans()):
            side.pop()
        else:
            side.append(0)
    elif kind == "shared pair with uv != 0":
        shared = sorted(g for g, used in _users(doc).items() if len(used) > 1)
        g = doc["generators"][draw(st.sampled_from(shared))]
        g["u"], g["v"] = _nonzero_product(alg)
    elif kind == "one copy of a repeated term list":
        lists = defaultdict(list)
        for c in with_terms:
            lists[json.dumps(c["terms"])].append(c)
        repeated = [group for _, group in sorted(lists.items()) if len(group) > 1]
        cert = draw(st.sampled_from(draw(st.sampled_from(repeated))))
        term = draw(st.sampled_from(cert["terms"]))
        if draw(st.booleans()):
            term[LAMBDA[type(term)]] = draw(st.sampled_from(SCALARS))
        else:
            term[GENERATOR[type(term)]] = draw(st.integers(0, len(doc["generators"]) - 1))
    elif kind == "kind":
        # a separating certificate loses its kind, or a membership, whose kind
        # the file leaves off, gets one: its own, the other kind, or no kind
        cert = draw(st.sampled_from(certs))
        if cert.get("kind", MEMBERSHIP) == SEPARATING:
            del cert["kind"]
        else:
            cert["kind"] = draw(st.sampled_from([MEMBERSHIP, SEPARATING, None, 7, "zz"]))
    elif kind == "target entry":
        target = draw(st.sampled_from([c["target"] for c in certs if "target" in c]))
        target[draw(st.integers(0, len(target) - 1))] = draw(st.sampled_from(SCALARS))
    elif kind == "wrong length after a nonzero product":
        # The loader holds every vector of a file to the algebra's length, so this
        # change is made to the loaded certificates: the nonzero product decides
        # before the length.
        n = draw(st.sampled_from([k for k, c in enumerate(certs) if c.get("kind", MEMBERSHIP) == MEMBERSHIP]))
        f = alg.field
        u, v = (tuple(f.parse_vector(x)) for x in _nonzero_product(alg))
        short = (f.zero,) * (d - 1)
        first = [(f.one, u, v), (f.one, short, short)]
        order = first if draw(st.booleans()) else first[::-1]

        def tamper(loaded):
            loaded[n].terms = order + loaded[n].terms
        return tamper
    return None


KINDS = ["lambda", "generator index", "term form", "triple", "generator vector", "generator length",
         "shared pair with uv != 0", "one copy of a repeated term list",
         "wrong length after a nonzero product", "kind", "target entry",
         "swap two memberships whose defects differ", "drop a membership", "append a membership",
         "explicit triple not its place"]
# the kinds that move a membership out of its place, which `verify` never accepts
PLACE_KINDS = {"swap two memberships whose defects differ", "drop a membership", "append a membership",
               "explicit triple not its place"}
# the kinds that change a membership, which the refutations of n4f3 are not
MEMBERSHIP_KINDS = {"lambda", "term form", "one copy of a repeated term list",
                    "wrong length after a nonzero product", *PLACE_KINDS}


def test_each_tampering_applies_to_a_written_file(files):
    """Every kind of change has something to change in the files `check` writes."""
    m2f2 = files["m2f2"][1]
    assert any(len(used) > 1 for used in _users(m2f2).values())
    lists = [json.dumps(c["terms"]) for c in m2f2["certificates"] if c.get("terms")]
    assert len(lists) > len(set(lists))
    assert any(c["kind"] == SEPARATING and c["generators"] for c in files["n4f3"][1]["certificates"])
    for _, doc in files.values():
        assert any("target" in c for c in doc["certificates"])


@pytest.mark.parametrize("stem, n, change, error", [
    # a refutation that lost its kind reads as a membership, which holds no functional
    ("n4f3", 0, {"kind": None},
     "a membership-decomposition certificate holds no 'functional'"),
    ("m2f2", 5, {"functional": [0] * 16}, "a membership-decomposition certificate holds no 'functional'"),
    ("m2q", 5, {"kind": MEMBERSHIP, "generators": []},
     "a membership-decomposition certificate holds no 'generators'"),
    ("m2f2", 5, {"kind": SEPARATING}, "a separating-functional certificate holds no 'terms'"),
], ids=["separating without kind", "membership with a functional", "explicit membership with generators",
        "membership as separating"])
def test_a_certificate_holding_the_other_kinds_fields_does_not_load(files, stem, n, change, error):
    """The writer leaves the kind of a membership off, so the reader refuses a
    certificate whose fields belong to the other kind: a refutation whose kind
    was deleted fails to load instead of verifying false.  A `None` in
    `change` deletes the key."""
    alg, written = files[stem]
    doc = copy.deepcopy(written)
    cert = doc["certificates"][n]
    for key, value in change.items():
        if value is None:
            cert.pop(key, None)
        else:
            cert[key] = value
    want = ([], (MalformedCertificate, error))
    assert _read(serialize.certificates_from_dict, verify_file, alg, doc) == want
    assert _read(reference_certificates_from_dict, reference_verify_file, alg, doc) == want


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_verify_file_reads_a_tampered_file_like_the_reference(files, data):
    stem = data.draw(st.sampled_from(sorted(files)))
    alg, written = files[stem]
    kind = data.draw(st.sampled_from(KINDS))
    if stem == "n4f3" and kind in MEMBERSHIP_KINDS:
        kind = "generator index"  # its certificates are separating functionals
    doc = copy.deepcopy(written)
    tamper = _tamper(doc, alg, kind, data.draw)
    got = _read(serialize.certificates_from_dict, verify_file, alg, doc, tamper)
    want = _read(reference_certificates_from_dict, reference_verify_file, alg, doc, tamper)
    assert got == want
    if kind in PLACE_KINDS:
        assert got[1] is not None or got[0][-1] == "all certificates: false"


@pytest.mark.parametrize("stem", STEMS)
def test_verify_file_reads_an_untouched_file_like_the_reference(files, stem):
    alg, doc = files[stem]
    got = _read(serialize.certificates_from_dict, verify_file, alg, doc)
    assert got == _read(reference_certificates_from_dict, reference_verify_file, alg, doc)
    assert got[0][-1] == "all certificates: true"


def test_memberships_that_name_their_places_read_alike(files):
    """A file whose memberships name the triples of their places, as files
    did before the writer left them off, loads to the same certificates and
    prints the same lines."""
    alg, doc = files["m2f2"]
    named = files["m2f2 named"][1]
    assert "meta" not in json.dumps(doc) and named != doc
    loaded = [serialize.certificates_from_dict(d, alg.field, alg.dim)[1] for d in (doc, named)]
    assert [c.meta for c in loaded[0]] == [c.meta for c in loaded[1]]
    assert _read(serialize.certificates_from_dict, verify_file, alg, named) == \
        _read(serialize.certificates_from_dict, verify_file, alg, doc)


def test_terms_as_objects_and_quoted_integers_read_alike(files):
    """M2/Q's file with each term the object {"generator", "lambda"} and each
    integer scalar a string, as files were before, loads to the same
    certificates and prints the same lines."""
    alg, doc = files["m2q"]
    objects = files["m2q objects"][1]
    assert "lambda" not in json.dumps(doc) and '"lambda": "-1"' in json.dumps(objects)
    loaded = [serialize.certificates_from_dict(d, alg.field, alg.dim)[1] for d in (doc, objects)]
    assert [vars(c) for c in loaded[0]] == [vars(c) for c in loaded[1]]
    assert _read(serialize.certificates_from_dict, verify_file, alg, objects) == \
        _read(serialize.certificates_from_dict, verify_file, alg, doc)


@pytest.mark.parametrize("against, prepend, message", [
    # M2/F2's file read against the 1-dimensional F2: no certificate is checked
    ("F2", False, "generator u must be a list of 1 scalars, got [1, 0, 0, 0]"),
    # an empty first generator: the message names it, not the valid vectors after it
    ("M2/F2", True, "generator u must be a list of 4 scalars, got []"),
], ids=["another dimension", "an empty first generator"])
def test_every_generator_has_the_algebras_dimension(files, against, prepend, message):
    """The loader holds every generator vector to the algebra's dimension, not
    to the first generator's, so a file for another dimension fails before
    its first line, with a message that names a vector of the wrong length."""
    m2, written = files["m2f2"]
    alg = m2 if against == "M2/F2" else function_algebra(m2.field, 1)
    doc = copy.deepcopy(written)
    if prepend:
        doc["generators"].insert(0, {"u": [], "v": []})
    want = ([], (ParseError, message))
    assert _read(serialize.certificates_from_dict, verify_file, alg, doc) == want
    assert _read(reference_certificates_from_dict, reference_verify_file, alg, doc) == want


@pytest.mark.parametrize("stem", [stem for stem, _ in EXAMPLES])
def test_verify_file_calls_verify_certificate_once_per_certificate(files, monkeypatch, stem):
    """The benchmark's certs_verified counts these calls."""
    alg, doc = files[stem]
    calls = []
    real = tensorsquare.verify_certificate
    monkeypatch.setattr(tensorsquare, "verify_certificate",
                        lambda *args: calls.append(args[1]) or real(*args))
    balanced, certs = serialize.certificates_from_dict(doc, alg.field, alg.dim)
    list(verify_file(alg, balanced, certs))
    assert len(calls) == len(certs) == len(doc["certificates"])
    assert all(a is b for a, b in zip(calls, certs))


def test_a_membership_past_the_last_triple_is_counted_as_repeated(files):
    """A file cannot hold a membership past the d³-th, but a caller's list
    can: `verify_file` prints `false` for it, as for any membership off its
    place, and the coverage line counts it as repeated."""
    alg, doc = files["m2f2"]
    balanced, certs = serialize.certificates_from_dict(doc, alg.field, alg.dim)
    for verify in (verify_file, reference_verify_file):
        lines = list(verify(alg, balanced, certs + [certs[5]]))
        assert lines[64:] == ["certificate 64 (membership-decomposition): false",
                              "triple coverage: false (0 of 64 triples missing, 1 repeated)",
                              "all certificates: false"]

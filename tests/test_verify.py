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

from oracles import reference_certificates_from_dict, reference_verify_file
from zpbal import serialize, tensorsquare
from zpbal.cli import main
from zpbal.errors import ZpbalError
from zpbal.tensorsquare import MEMBERSHIP, SEPARATING, verify_file

# A balanced algebra (memberships), an unbalanced one (a separating
# certificate listing every generator) and one over Q (string scalars).
EXAMPLES = [("m2f2", ["Mn", "--n", "2", "--field", "F2"]),
            ("n4f3", ["Nm", "--m", "4", "--field", "F3"]),
            ("m2q", ["Mn", "--n", "2", "--field", "Q"])]
# Scalars a tampered file may hold: valid ones, and ones the parser refuses,
# among them True and 1.0, which equal 1 but must not read as 1.
SCALARS = [0, 1, 2, -1, "1", "01", "2/3", "x", True, 1.0, None]


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """Per example: the algebra and the certificate document `check` wrote."""
    work = tmp_path_factory.mktemp("verify")
    out = {}
    for stem, args in EXAMPLES:
        alg, certs = work / f"{stem}.json", work / f"{stem}.certs.json"
        assert main(["example", *args, "--out", str(alg)]) == 0
        assert main(["check", str(alg), "--out", str(certs)]) == 0
        out[stem] = (serialize.load_algebra(str(alg)), json.loads(certs.read_text()))
    return out


def _read(load, verify, alg, doc, tamper=None):
    """The lines printed before the first error, and that error."""
    lines = []
    try:
        balanced, certs = load(doc, alg.field)
        if tamper is not None:
            tamper(certs)
        for line in verify(alg, balanced, certs):
            lines.append(line)
    except ZpbalError as exc:
        return lines, (type(exc), str(exc))
    return lines, None


def _users(doc):
    """Generator index -> the certificates that use it."""
    users = defaultdict(set)
    for n, cert in enumerate(doc["certificates"]):
        for t in cert.get("terms", []):
            users[t["generator"]].add(n)
        for g in cert.get("generators", []):
            users[g].add(n)
    return users


def _nonzero_product(alg):
    """Basis vectors e_i, e_j with e_i e_j != 0, as scalars of the file."""
    f = alg.field
    i, j = next((i, j) for i in range(alg.dim) for j in range(alg.dim) if any(alg.table[i][j]))
    unit = lambda k: [f.format(f.one if m == k else f.zero) for m in range(alg.dim)]
    return unit(i), unit(j)


def _tamper(doc, alg, kind, draw):
    """Change `doc` in place; returns a change to the loaded certificates, or None."""
    d = alg.dim
    certs = doc["certificates"]
    with_terms = [c for c in certs if c.get("terms")]
    if kind == "lambda":
        term = draw(st.sampled_from([t for c in with_terms for t in c["terms"]]))
        term["lambda"] = draw(st.sampled_from(SCALARS))
    elif kind == "generator index":
        indices = [lst for c in certs for lst in (c.get("terms", []), c.get("generators", [])) if lst]
        lst = draw(st.sampled_from(indices))
        k = draw(st.integers(0, len(lst) - 1))
        value = draw(st.sampled_from([-1, 0, 1, len(doc["generators"]), True, "0"]))
        if isinstance(lst[k], dict):
            lst[k]["generator"] = value
        else:
            lst[k] = value
    elif kind == "triple":
        cert = draw(st.sampled_from([c for c in certs if "triple" in c.get("meta", {})]))
        cert["meta"]["triple"] = draw(st.one_of(
            st.sampled_from([c["meta"]["triple"] for c in certs if "triple" in c.get("meta", {})]),
            st.lists(st.integers(-1, d), min_size=3, max_size=3)))
    elif kind == "generator vector":
        g = draw(st.sampled_from(doc["generators"]))
        side = g[draw(st.sampled_from(["u", "v"]))]
        side[draw(st.integers(0, d - 1))] = draw(st.sampled_from(SCALARS))
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
            term["lambda"] = draw(st.sampled_from(SCALARS))
        else:
            term["generator"] = draw(st.integers(0, len(doc["generators"]) - 1))
    elif kind == "wrong length after a nonzero product":
        # Every vector of a file has one length, so this change is made to the
        # loaded certificates: the nonzero product decides before the length.
        n = draw(st.sampled_from([k for k, c in enumerate(certs) if c["kind"] == MEMBERSHIP]))
        f = alg.field
        u, v = (tuple(f.parse_vector(x)) for x in _nonzero_product(alg))
        short = (f.zero,) * (d - 1)
        first = [(f.one, u, v), (f.one, short, short)]
        order = first if draw(st.booleans()) else first[::-1]

        def tamper(loaded):
            loaded[n].terms = order + loaded[n].terms
        return tamper
    return None


KINDS = ["lambda", "generator index", "triple", "generator vector", "shared pair with uv != 0",
         "one copy of a repeated term list", "wrong length after a nonzero product"]


def test_each_tampering_applies_to_a_written_file(files):
    """Every kind of change has something to change in the files `check` writes."""
    m2f2 = files["m2f2"][1]
    assert any(len(used) > 1 for used in _users(m2f2).values())
    lists = [json.dumps(c["terms"]) for c in m2f2["certificates"] if c.get("terms")]
    assert len(lists) > len(set(lists))
    assert any(c["kind"] == SEPARATING and c["generators"] for c in files["n4f3"][1]["certificates"])


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_verify_file_reads_a_tampered_file_like_the_reference(files, data):
    stem = data.draw(st.sampled_from(sorted(files)))
    alg, written = files[stem]
    kind = data.draw(st.sampled_from(KINDS))
    if stem == "n4f3" and kind in ("lambda", "one copy of a repeated term list",
                                   "wrong length after a nonzero product"):
        kind = "generator index"  # its certificates are separating functionals
    doc = copy.deepcopy(written)
    tamper = _tamper(doc, alg, kind, data.draw)
    got = _read(serialize.certificates_from_dict, verify_file, alg, doc, tamper)
    want = _read(reference_certificates_from_dict, reference_verify_file, alg, doc, tamper)
    assert got == want


@pytest.mark.parametrize("stem", [stem for stem, _ in EXAMPLES])
def test_verify_file_reads_an_untouched_file_like_the_reference(files, stem):
    alg, doc = files[stem]
    got = _read(serialize.certificates_from_dict, verify_file, alg, doc)
    assert got == _read(reference_certificates_from_dict, reference_verify_file, alg, doc)
    assert got[0][-1] == "all certificates: true"


@pytest.mark.parametrize("stem", [stem for stem, _ in EXAMPLES])
def test_verify_file_calls_verify_certificate_once_per_certificate(files, monkeypatch, stem):
    """The benchmark's certs_verified counts these calls."""
    alg, doc = files[stem]
    calls = []
    real = tensorsquare.verify_certificate
    monkeypatch.setattr(tensorsquare, "verify_certificate",
                        lambda *args: calls.append(args[1]) or real(*args))
    balanced, certs = serialize.certificates_from_dict(doc, alg.field)
    list(verify_file(alg, balanced, certs))
    assert len(calls) == len(certs) == len(doc["certificates"])
    assert all(a is b for a, b in zip(calls, certs))

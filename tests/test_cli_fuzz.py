"""Every command refuses an input with one field of the wrong type or range.

Each case takes a valid algebra file, certificate file or map file written by
the CLI itself (or a valid `structure --element`), replaces one field that
the format defines with a value the format refuses there, and runs
`zpbal.cli.main` in process: the exit code is 1, standard error carries an
`error:` line, and no exception escapes.  The `meta` entries other than
`triple` are free-form and are not fuzzed.
"""

import json

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from zpbal.cli import main

# (stem, `zpbal example` arguments): a balanced algebra with registered
# idempotents, an unbalanced one (separating certificates) and one over Q
# (scalars written as strings).
EXAMPLES = [("k2f2", ["Kn", "--n", "2", "--field", "F2"]),
            ("n4f3", ["Nm", "--m", "4", "--field", "F3"]),
            ("dn3q", ["DN3", "--field", "Q"])]
SCALARS = {"coords", "idempotents", "u", "v", "target", "functional", "lambda", "matrix"}
INDICES = {"dim", "i", "j", "generator", "triple"}
FREE_TEXT = {"label", "basis"}  # any string is valid there


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """Per example: the directory, and the algebra and certificate documents."""
    work = tmp_path_factory.mktemp("fuzz")
    docs = []
    for stem, args in EXAMPLES:
        alg, certs = work / f"{stem}.json", work / f"{stem}.certs.json"
        assert main(["example", *args, "--out", str(alg)]) == 0
        assert main(["check", str(alg), "--out", str(certs)]) == 0
        docs.append((stem, json.loads(alg.read_text()), json.loads(certs.read_text())))
    return work, docs


def _paths(node, prefix=()):
    """Every node's path, except inside free-form `meta` entries."""
    if "meta" in prefix and prefix[-1] != "meta" and "triple" not in prefix:
        return
    yield prefix
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield from _paths(child, prefix + (key,))


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _refused(path, value):
    """Values the format refuses in place of `value`, which is valid at `path`."""
    keys = [k for k in path if isinstance(k, str)]
    key = keys[-1] if keys else None
    index_list = path[:1] == ("certificates",) and key == "generators"  # into the generator table
    if isinstance(value, (dict, list)):
        return [None, True, 2.5, 7, "zz", [] if isinstance(value, dict) else {}]
    if key in SCALARS:
        return [None, True, 2.5, "zz", [], {}]
    wrong_type = [None, True, 2.5, [], {}]
    if isinstance(value, int):
        ranged = key in INDICES or index_list
        return wrong_type + ["0"] + ([-1, 10 ** 6] if ranged else [])
    return wrong_type + [7] + ([] if key in FREE_TEXT else ["zz"])


def _mutant(data, doc):
    doc = json.loads(json.dumps(doc))
    path = data.draw(st.sampled_from(list(_paths(doc))), label="path")
    value = data.draw(st.sampled_from(_refused(path, _at(doc, path))), label="value")
    if not path:
        return value
    _at(doc, path[:-1])[path[-1]] = value
    return doc


def _assert_refused(capsys, argv):
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 1, err
    assert err.startswith("error: ") and "Traceback" not in err, err


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(which=st.integers(0, len(EXAMPLES) - 1), data=st.data())
def test_check_refuses_an_algebra_file_with_one_bad_field(files, capsys, which, data):
    work, docs = files
    _, alg_doc, _ = docs[which]
    bad = work / "bad.json"
    bad.write_text(json.dumps(_mutant(data, alg_doc)))
    _assert_refused(capsys, ["check", str(bad), "--out", str(work / "bad.certs.json")])


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(which=st.integers(0, len(EXAMPLES) - 1), data=st.data())
def test_verify_refuses_a_certificate_file_with_one_bad_field(files, capsys, which, data):
    work, docs = files
    stem, _, cert_doc = docs[which]
    bad = work / "bad.certs.json"
    bad.write_text(json.dumps(_mutant(data, cert_doc)))
    _assert_refused(capsys, ["verify", str(bad), str(work / f"{stem}.json")])


@pytest.fixture(scope="module")
def maps(files):
    """Per example: its identity map, with the source an inline algebra object
    and the target a path, so that both kinds of algebra reference are fuzzed."""
    work, docs = files
    out = [{"source": alg_doc, "target": f"{stem}.json",
            "matrix": [[int(i == j) for j in range(alg_doc["dim"])] for i in range(alg_doc["dim"])]}
           for stem, alg_doc, _ in docs]
    for doc in out:  # each is a valid map before it is mutated
        path = work / "map.json"
        path.write_text(json.dumps(doc))
        assert main(["factorize", str(path)]) == 0
    return out


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(which=st.integers(0, len(EXAMPLES) - 1), data=st.data())
def test_factorize_refuses_a_map_file_with_one_bad_field(files, maps, capsys, which, data):
    work, _ = files
    bad = work / "bad.map.json"
    bad.write_text(json.dumps(_mutant(data, maps[which])))
    _assert_refused(capsys, ["factorize", str(bad)])


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(which=st.integers(0, len(EXAMPLES) - 1), data=st.data())
def test_fn2_refuses_an_algebra_file_with_one_bad_field(files, capsys, which, data):
    work, docs = files
    _, alg_doc, _ = docs[which]
    bad = work / "bad.json"
    bad.write_text(json.dumps(_mutant(data, alg_doc)))
    _assert_refused(capsys, ["fn2", str(bad)])


# Coordinates that neither F_p nor Q parses: no digits, a zero denominator, a
# float word, an exponent or a digit string past Python's int(str) limit.
BAD_COORDS = ["", "zz", "nan", "1e", "/", "1/0", "1 1", "0x1", "1e999999", "9" * 5000]


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(which=st.integers(0, len(EXAMPLES) - 1), data=st.data())
def test_structure_refuses_an_element_with_one_bad_coordinate(files, capsys, which, data):
    work, docs = files
    stem, alg_doc, _ = docs[which]
    coords = ["1"] + ["0"] * (alg_doc["dim"] - 1)
    assert main(["structure", str(work / f"{stem}.json"), "--element", ",".join(coords)]) == 0
    capsys.readouterr()
    if data.draw(st.booleans(), label="wrong count"):
        coords = coords[:-1] if data.draw(st.booleans(), label="drop") else coords + ["0"]
    else:
        coords[data.draw(st.integers(0, len(coords) - 1), label="at")] = \
            data.draw(st.sampled_from(BAD_COORDS), label="coordinate")
    _assert_refused(capsys, ["structure", str(work / f"{stem}.json"), "--element", ",".join(coords)])

"""The algebra loader is a trust boundary: malformed input is a ParseError, never a crash."""

from hypothesis import given, settings, strategies as st

from zpbal.algebra import Algebra
from zpbal.errors import ParseError
from zpbal.serialize import algebra_from_dict

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

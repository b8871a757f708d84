import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minuscule import serialize

# Strings with quotes, backslashes, control characters and non-ASCII
# (including a character outside the BMP, written as a surrogate pair).
STRINGS = st.text(
    st.one_of(st.sampled_from('"\\\x00\x1f\x7f\n\t/é€\U0001d11e'), st.characters()), max_size=6
)
SCALARS = st.one_of(st.none(), st.booleans(), st.integers(-(2**70), 2**70), STRINGS)
VALUES = st.recursive(
    SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(STRINGS, inner, max_size=4),
    ),
    max_leaves=24,
)
# Flat lists that take the joined paths, and lists where bools sit next
# to ints, which must not.
FLAT = st.one_of(
    st.lists(st.integers(-(2**40), 2**40), max_size=6),
    st.lists(STRINGS, max_size=6),
    st.lists(st.one_of(st.booleans(), st.integers(-3, 3)), max_size=6),
)


def reference(value):
    return json.dumps(value, indent=2, sort_keys=True)


@settings(max_examples=400)
@given(st.one_of(VALUES, FLAT))
def test_dumps_writes_what_the_json_module_writes(value):
    assert serialize.dumps(value) == reference(value)


@pytest.mark.parametrize(
    "value",
    [
        1.5,
        Fraction(1, 2),
        [1, 2.0],
        {"a": [Fraction(3)]},
        ("x", {"y": 0.0}),
        {1: "int key"},
        {"a": 1, None: 2},
        {1, 2},
        b"bytes",
    ],
)
def test_dumps_raises_type_error_on_anything_else(value):
    with pytest.raises(TypeError):
        serialize.dumps(value)


@pytest.mark.parametrize(
    "value,text",
    [
        (3, "3/1"),
        (0, "0/1"),
        (-7, "-7/1"),
        (Fraction(0), "0/1"),
        (Fraction(-5, 3), "-5/3"),
        (Fraction(4, -6), "-2/3"),
        (Fraction(2**70, 2**68), "4/1"),
    ],
)
def test_frac_str_writes_lowest_terms_with_a_positive_denominator(value, text):
    """An int is over 1, and a ``Fraction`` from an unreduced pair or a
    negative denominator is written reduced, its sign on the numerator."""
    assert serialize.frac_str(value) == text

"""Property tests for the input readers: malformed input raises fia's errors.

Every reader the CLI feeds a file to must fail with one of fia's own
errors, which the CLI turns into exit 2, and never with a TypeError,
KeyError or AttributeError, which would surface as a traceback.  A reader
raises its module's error, and the ring and poset errors of the values it
hands on to the scalar and poset readers.  The examples are drawn
deterministically, so the suite stays reproducible.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from fia.deriv import endo_from_json
from fia.fialg import AlgebraError, element_from_json
from fia.poset import PosetError, parse_poset
from fia.scalars import GF, QQ, RingError

from helpers import CHAIN2

READER_SETTINGS = settings(
    derandomize=True, max_examples=200, deadline=None, database=None
)

# Decimal digits, signs, the designator characters and non-ASCII digits.
text = st.text(alphabet="0123456789-+ .abqz:p\u00b2\u0663\x00", max_size=8)
KEYS = ["num", "den", "int", "res", "ring", "entries", "columns", "from", "to"]
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | text,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.sampled_from(KEYS) | text, children, max_size=4),
    max_leaves=8,
)

# Near misses of the scalar shapes: the right keys with any values.
scalar_like = json_values | st.dictionaries(
    st.sampled_from(["num", "den", "int", "res", "value"]),
    json_values | st.integers(-7, 7) | st.sampled_from(["1", "-2", "0", "x"]),
    max_size=3,
)
ring_like = (
    st.sampled_from(["q", "z", "zp:5"])
    | st.sampled_from(["zp:4", "zp:", "Q"])
    | json_values
)
labels = st.sampled_from(["a", "b", "c"]) | json_values


def _raises_only(allowed, read, *args):
    try:
        read(*args)
    except allowed:
        pass


@READER_SETTINGS
@given(
    st.lists(
        st.text(alphabet="elments:ab <#\t", max_size=16)
        | st.sampled_from(
            ["elements: a b c", "elements:", "elements: a a", "a < b",
             "b < a", "a < a", "a < z", "a <", "# note", ""]
        ),
        max_size=6,
    )
)
def test_parse_poset_raises_only_poset_errors(lines):
    _raises_only(PosetError, parse_poset, "\n".join(lines))


@READER_SETTINGS
@given(st.sampled_from([QQ, GF(5)]), scalar_like)
def test_scalar_from_json_raises_only_ring_errors(ring, obj):
    _raises_only(RingError, ring.scalar_from_json, obj)


@READER_SETTINGS
@given(
    json_values
    | st.fixed_dictionaries(
        {
            "ring": ring_like,
            "poset_hash": st.just(CHAIN2.digest()) | json_values,
            "columns": json_values
            | st.lists(st.lists(scalar_like, max_size=4), max_size=4),
        }
    )
)
def test_endo_from_json_raises_only_fia_errors(obj):
    _raises_only((AlgebraError, RingError), endo_from_json, CHAIN2, obj)


@READER_SETTINGS
@given(
    json_values
    | st.fixed_dictionaries(
        {
            "ring": ring_like,
            "entries": json_values
            | st.lists(
                st.fixed_dictionaries(
                    {"from": labels, "to": labels, "value": scalar_like}
                )
                | json_values,
                max_size=3,
            ),
        }
    )
)
def test_element_from_json_raises_only_fia_errors(obj):
    _raises_only(
        (AlgebraError, RingError, PosetError), element_from_json, CHAIN2, obj
    )

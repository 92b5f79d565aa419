"""Every JSON parser turns malformed input into ValueError, and the CLI into exit 2.

Each malformed object is a valid file with one corruption that no valid
file has: a key dropped or added, a field of the wrong type or out of
range, a subset key or an entry that is not one.
"""

import contextlib
import io
import json
import os
import tempfile
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from rankineq.arrangements import Arrangement
from rankineq.cli import main
from rankineq.functionals import Functional
from rankineq.maps import UnionMap, hierarchy_map
from rankineq.setfunctions import SetFunction, format_value, parse_value

SETTINGS = settings(derandomize=True, max_examples=40, deadline=None)

NOT_INT = (st.none() | st.booleans() | st.floats() | st.text(max_size=3)
           | st.lists(st.integers(), max_size=2)
           | st.dictionaries(st.text(max_size=2), st.integers(), max_size=2))
NOT_DICT = NOT_INT.filter(lambda x: not isinstance(x, dict))
# no valid value: a string without digits, or one of the near misses,
# spellings of a rational that format_value never writes among them
NOT_NUMBER = (st.none() | st.booleans() | st.floats()
              | st.lists(st.integers(), max_size=2)
              | st.dictionaries(st.text(max_size=2), st.integers(), max_size=2)
              | st.text(alphabet="ab ,./-+_eE", max_size=6)
              | st.sampled_from(["1/0", "1e3", "1E-2", "0x10", "1/2/3", "--1",
                                 "9" * 4301, "1/" + "9" * 4301,
                                 " 3/4 ", "+2", "1_000", "\u0661", "1.5", "6/4",
                                 "2/1", "-0", "01"]))
# no valid subset key of a ground set with at most 3 elements
BAD_KEY = (st.text(alphabet="ab ,-_+", max_size=4)
           | st.sampled_from(["", "0", "4", "2,1", "1,1", "01", " 1", "1,",
                              ",1", "-1", "1_0", "١", "9" * 4301]))
JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda kids: (st.lists(kids, max_size=3)
                  | st.dictionaries(st.text(max_size=6), kids, max_size=3)),
    max_leaves=10)


def _not(valid):
    return st.integers().filter(lambda x: x not in valid) | NOT_INT


def _reshape(obj, data, fields):
    """One corruption of the top level: drop a key, add one, or spoil a field."""
    how = data.draw(st.sampled_from(["drop", "add", *fields]))
    if how == "drop":
        del obj[data.draw(st.sampled_from(sorted(obj)))]
    elif how == "add":
        obj[data.draw(st.text(max_size=4).filter(lambda k: k not in obj))] = 0
    else:
        obj[how] = data.draw(fields[how])
    return obj


def bad_set_function(data):
    obj = SetFunction.zero(2).to_json_obj()  # keys "1", "2", "1,2"
    values = obj["values"]
    how = data.draw(st.sampled_from(["top", "key", "missing", "value"]))
    if how == "top":
        return _reshape(obj, data, {"n": _not({2}), "values": NOT_DICT})
    if how == "key":
        values[data.draw(BAD_KEY)] = 0
    elif how == "missing":
        del values[data.draw(st.sampled_from(sorted(values)))]
    else:
        values[data.draw(st.sampled_from(sorted(values)))] = data.draw(NOT_NUMBER)
    return obj


def bad_functional(data):
    obj = Functional.from_coeffs(3, {(1,): 1, (1, 2): "-1/2"}).to_json_obj()
    coeffs = obj["coeffs"]
    how = data.draw(st.sampled_from(["top", "key", "value"]))
    if how == "top":
        return _reshape(obj, data, {"n": _not(range(2, 21)), "coeffs": NOT_DICT})
    if how == "key":
        coeffs[data.draw(BAD_KEY)] = "1"
    else:
        coeffs[data.draw(st.sampled_from(sorted(coeffs)))] = data.draw(
            NOT_NUMBER | st.sampled_from([0, "0", "0/3"]))
    return obj


def bad_map(data):
    obj = hierarchy_map(5).to_json_obj()  # k = 5 images in {1..4}
    images = obj["images"]
    how = data.draw(st.sampled_from(["top", "image", "element", "count"]))
    i = data.draw(st.integers(0, len(images) - 1))
    if how == "top":
        return _reshape(obj, data, {"k": _not({5}), "n": _not(range(4, 21)),
                                    "images": NOT_INT})
    if how == "image":
        images[i] = data.draw(NOT_INT.filter(lambda x: not isinstance(x, list)))
    elif how == "element":
        images[i] = images[i] + [data.draw(_not(range(1, 5)))]
    else:
        del images[i]
    return obj


def bad_arrangement(data):
    obj = Arrangement(2, 2, [[[1, 0]], [[0, 1], [1, 1]]]).to_json_obj()
    subs = obj["subspaces"]
    how = data.draw(st.sampled_from(["top", "subspace", "row", "entry"]))
    i = data.draw(st.integers(0, len(subs) - 1))
    if how == "top":
        composite = st.integers(2, 10 ** 9).map(lambda x: x * x)
        fields = {"field": (st.integers(max_value=-1) | st.just(1) | composite
                            | st.integers(min_value=1 << 64) | NOT_INT),
                  "ambient_dim": _not({2}), "subspaces": NOT_INT | st.just([])}
        return _reshape(obj, data, fields)
    if how == "subspace":
        subs[i] = data.draw(NOT_INT.filter(lambda x: x != [])
                            | st.lists(NOT_INT.filter(lambda x: not isinstance(x, list)),
                                       min_size=1, max_size=2))
    elif how == "row":
        subs[i] = subs[i] + [data.draw(st.lists(st.integers(0, 1), max_size=4)
                                       .filter(lambda r: len(r) != 2))]
    else:
        subs[i][0][data.draw(st.integers(0, 1))] = data.draw(NOT_NUMBER)
    return obj


PARSERS = {
    "setfunction": (SetFunction, bad_set_function),
    "functional": (Functional, bad_functional),
    "map": (UnionMap, bad_map),
    "arrangement": (Arrangement, bad_arrangement),
}


@pytest.mark.parametrize("kind", PARSERS)
@SETTINGS
@given(data=st.data())
def test_loads_rejects_malformed_objects_with_value_error(kind, data):
    cls, corrupt = PARSERS[kind]
    text = json.dumps(corrupt(data))
    with pytest.raises(ValueError):
        cls.loads(text)


@pytest.mark.parametrize("kind", PARSERS)
@SETTINGS
@given(obj=JSON)
def test_loads_of_any_json_value_raises_only_value_error(kind, obj):
    cls = PARSERS[kind][0]
    try:
        assert isinstance(cls.loads(json.dumps(obj)), cls)
    except ValueError:
        pass


@pytest.fixture(scope="module")
def workdir():
    with tempfile.TemporaryDirectory() as path:
        with open(os.path.join(path, "p.json"), "w") as handle:
            json.dump(SetFunction.zero(4).to_json_obj(), handle)
        yield path


def _argv(kind, bad, path):
    point = os.path.join(path, "p.json")  # a valid set function on 4 elements
    return {"setfunction": ["check", bad],
            "functional": ["eval", "--functional", bad, "--point", point],
            "map": ["pullback", "--map", bad, "--input", point],
            "arrangement": ["realize", bad, "-o", os.path.join(path, "out.json")]}[kind]


@pytest.mark.parametrize("kind", PARSERS)
@settings(derandomize=True, max_examples=25, deadline=None)
@given(data=st.data())
def test_cli_exits_2_with_one_line_on_malformed_files(workdir, kind, data):
    bad = os.path.join(workdir, "bad.json")
    with open(bad, "w") as handle:
        json.dump(PARSERS[kind][1](data), handle)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(_argv(kind, bad, workdir))
    assert code == 2
    assert out.getvalue() == ""
    assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
    assert "Traceback" not in err.getvalue()


def _canonical(text):
    """Whether text is str() of the rational it spells, as format_value writes it."""
    try:
        return str(Fraction(text)) == text
    except (ValueError, ZeroDivisionError):
        return False


# near misses of every kind: stray characters, signs, spaces, underscores,
# other digits, decimals, leading zeros, and fractions not in lowest terms
SPELLINGS = (st.text(alphabet="0123456789-+/_ .e\u0661", max_size=6)
             | st.fractions().map(str)
             | st.builds(lambda v, k: f"{v.numerator * k}/{v.denominator * k}",
                         st.fractions(), st.integers(1, 9)))


@SETTINGS
@given(value=st.fractions())
def test_parse_value_reads_back_what_format_value_writes(value):
    assert parse_value(format_value(value)) == value
    assert parse_value(str(value)) == value


@settings(derandomize=True, max_examples=300, deadline=None)
@given(text=SPELLINGS)
def test_parse_value_reads_only_canonical_spellings(text):
    try:
        value = parse_value(text)
    except ValueError:
        assert not _canonical(text)
    else:
        assert _canonical(text) and value == Fraction(text)

"""The text the command line writes: ``cli.json_text`` gives exactly the
text of ``json.dumps(value, indent=indent)``, ``cli.point_text`` that
of ``str(Fraction(c, n))`` for each weight, and every printed report
and every file that ``extend`` writes is json's own indented text of
its content."""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flatforms.cli import Checks, json_text, main, point_text, save_instance
from flatforms.instances import generate, strip_to_dim

TEXT = st.text(st.one_of(st.characters(), st.sampled_from(
    '"\\/\b\f\n\r\t\x00\x1f\x7f é€😀')))


# subclasses of the scalar types, which json writes as their base type
# whatever their own repr says
class _Str(str):
    __repr__ = __str__ = lambda self: "str subclass"


class _Int(int):
    __repr__ = __str__ = lambda self: "int subclass"


class _Float(float):
    __repr__ = __str__ = lambda self: "float subclass"


SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(),
    st.integers(min_value=-2 ** 200, max_value=2 ** 200),
    st.floats(allow_nan=True, allow_infinity=True), TEXT,
    TEXT.map(_Str), st.integers().map(_Int), st.floats().map(_Float))

KEYS = st.one_of(TEXT, st.integers(), st.booleans(), st.none(), st.floats(),
                 TEXT.map(_Str), st.integers().map(_Int),
                 st.floats().map(_Float))


def _checks(items: dict) -> Checks:
    checks = Checks()
    checks.update(items)
    return checks


VALUES = st.recursive(SCALARS, lambda children: st.one_of(
    st.lists(children, max_size=5),
    st.lists(children, max_size=5).map(tuple),
    st.dictionaries(KEYS, children, max_size=5),
    st.dictionaries(TEXT, children, max_size=5).map(_checks),
    st.sampled_from([{}, [], (), Checks()]),
), max_leaves=30)


@settings(max_examples=300, deadline=None)
@given(VALUES, st.sampled_from([1, 2]))
def test_json_text_is_json_dumps(value, indent):
    assert json_text(value, indent) == json.dumps(value, indent=indent)


@pytest.mark.parametrize("value", [
    Fraction(1, 2), [1, Fraction(1, 3)], {"a": (Fraction(2, 3),)},
    {"a": {"b": [Fraction(-1, 2)]}}, _checks({"x": Fraction(3, 4)}),
], ids=["alone", "in a list", "in a tuple", "nested", "in Checks"])
def test_a_fraction_is_not_json(value):
    with pytest.raises(TypeError):
        json.dumps(value, indent=2)
    with pytest.raises(TypeError):
        json_text(value, 2)


def test_a_key_json_cannot_convert_is_refused():
    for key in (Fraction(1, 2), (1, 2)):
        with pytest.raises(TypeError):
            json.dumps({key: 1}, indent=2)
        with pytest.raises(TypeError):
            json_text({key: 1}, 2)


@st.composite
def points(draw):
    n = draw(st.integers(min_value=1, max_value=10 ** 12))
    weight = st.one_of(st.just(0), st.just(n), st.integers(0, n))
    return draw(st.lists(weight, min_size=1, max_size=6)), n


@settings(max_examples=300, deadline=None)
@given(points())
def test_point_text_is_the_fraction_text(point):
    w, n = point
    assert point_text(point) == [str(Fraction(c, n)) for c in w]


# ---------------------------------------------------------------------------
# printed bytes
# ---------------------------------------------------------------------------


def _skeleton(tmp_path):
    """generate(3) cut to its 1-skeleton, written as an instance file
    for ``extend`` to complete."""
    inst = generate(3)
    path = tmp_path / "skeleton.json"
    save_instance(path, inst.S, inst.L, strip_to_dim(inst.A, 1))
    return path


def _printed(capsys, tmp_path, argv):
    """Run ``argv`` with ``--report FILE``; check that stdout is json's
    own indent=2 text of the report and that FILE holds the same text."""
    report = tmp_path / "report.json"
    code = main([*argv, "--report", str(report)])
    out = capsys.readouterr().out
    assert out == json.dumps(json.loads(out), indent=2) + "\n", argv
    assert report.read_text() == out, argv
    return code


def _indent_1(path):
    text = path.read_text()
    return text == json.dumps(json.loads(text), indent=1) + "\n"


@pytest.mark.parametrize("argv", [
    ["validate", "--seed", "3"],
    ["build-iprime", "--seed", "3"],
    ["smooth", "--seed", "3"],
    ["homology", "--seed", "3"],
    ["holonomy", "--seed", "4"],
    ["flow", "--k", "3", "--sweep", "20", "--seed", "5"],
    ["flow", "--k", "2", "--start", "1/3,1/3,1/3"],
    ["flow", "--k", "3", "--start", "0,1/2,1/2,0", "--backward"],
], ids=lambda argv: " ".join(argv))
def test_a_report_is_printed_as_json_indent_2(capsys, tmp_path, argv):
    assert _printed(capsys, tmp_path, argv) == 0


def test_extend_prints_and_writes_json_text(capsys, tmp_path):
    """A failing report, the report of ``extend`` and the file it writes
    back are json's own text too: indent=2 for reports, indent=1 for
    instance files."""
    path = _skeleton(tmp_path)
    assert _indent_1(path)
    instance = ["--instance", str(path)]
    assert _printed(capsys, tmp_path, ["validate", *instance]) == 1
    assert _printed(capsys, tmp_path, ["extend", *instance]) == 0
    assert _indent_1(path)
    assert _printed(capsys, tmp_path, ["homology", *instance]) == 0

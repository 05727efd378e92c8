"""The `record` class decorator against `dataclasses.dataclass(frozen=True)`.

Each record class below is built by a factory that also builds its twin
with the frozen dataclass decorator, from the same class body, so the two
share a name and a qualified name and their reprs can be compared as they
stand.
"""

import dataclasses

import pytest
from hypothesis import given
from hypothesis import strategies as st

from lieweights.exactalg import Poly, record
from lieweights.lieflt import Filtration, TriState, _TautologicalPass
from lieweights.vfield import Chart, lie_bracket, parse_vector_field


def point_class(decorate):
    class Point:
        x: int
        y: object = None
        label: str = "p"

        def __post_init__(self):
            if self.x < -100:
                raise ValueError("x out of range")

        def shifted(self, dx: int) -> "Point":
            return type(self)(self.x + dx, self.y, self.label)

    return decorate(Point)


def single_class(decorate):
    class Single:
        names: tuple

    return decorate(Single)


RecordPoint = point_class(record)
TwinPoint = point_class(dataclasses.dataclass(frozen=True))
RecordSingle = single_class(record)
TwinSingle = single_class(dataclasses.dataclass(frozen=True))

FIELDS = ("x", "y", "label")
# a fixed alphabet, quotes and a backslash among it for repr
TEXT = st.text(alphabet="ab '\"\\", max_size=4)
VALUES = {
    "x": st.integers(-100, 100),
    "y": st.none() | st.integers(-3, 3) | TEXT | st.tuples(st.integers(0, 2)),
    "label": TEXT,
}


@st.composite
def point_calls(draw):
    """Arguments for a Point constructor: some fields by position, then
    some by keyword, then the defaulted fields left out at random."""
    positional = draw(st.integers(1, 3))
    args = tuple(draw(VALUES[f]) for f in FIELDS[:positional])
    kwargs = {f: draw(VALUES[f]) for f in FIELDS[positional:] if draw(st.booleans())}
    if positional == 1 and draw(st.booleans()):
        kwargs["x"] = args[0]
        args = ()
    return args, kwargs


@given(point_calls(), point_calls())
def test_record_matches_the_frozen_dataclass(first, second):
    ours = [RecordPoint(*args, **kwargs) for args, kwargs in (first, second)]
    twins = [TwinPoint(*args, **kwargs) for args, kwargs in (first, second)]
    for a, b in zip(ours, twins):
        assert repr(a) == repr(b)
        assert hash(a) == hash(b)
        assert [getattr(a, f) for f in FIELDS] == [getattr(b, f) for f in FIELDS]
    assert (ours[0] == ours[1]) == (twins[0] == twins[1])
    assert (ours[0] != ours[1]) == (twins[0] != twins[1])
    assert ours[0].shifted(1) == RecordPoint(ours[0].x + 1, ours[0].y, ours[0].label)


@given(st.tuples(TEXT, TEXT))
def test_a_single_field_hashes_as_a_one_tuple(names):
    ours, twin = RecordSingle(names), TwinSingle(names=names)
    assert repr(ours) == repr(twin)
    assert hash(ours) == hash(twin) == hash((names,))
    assert ours == RecordSingle(names)


@pytest.mark.parametrize(
    "args, kwargs",
    [
        ((), {}),  # x is missing
        ((), {"y": 1}),
        ((1, 2, "a", 4), {}),  # too many
        ((1,), {"z": 0}),  # unexpected
        ((1,), {"x": 1}),  # given twice
    ],
)
def test_bad_arguments_raise_type_error(args, kwargs):
    for cls in (RecordPoint, TwinPoint):
        with pytest.raises(TypeError):
            cls(*args, **kwargs)


def test_post_init_runs():
    for cls in (RecordPoint, TwinPoint):
        with pytest.raises(ValueError, match="out of range"):
            cls(-101)


def test_assignment_and_deletion_raise():
    p = RecordPoint(1)
    with pytest.raises(AttributeError):
        p.x = 2
    with pytest.raises(AttributeError):
        p.z = 2
    with pytest.raises(AttributeError):
        del p.x
    assert p == RecordPoint(1, None, "p")


def test_equality_needs_the_same_class():
    class Sub(RecordPoint):
        pass

    assert RecordPoint(1) != Sub(1)
    assert RecordPoint(1) != (1, None, "p")
    assert RecordPoint(1).__eq__(TwinPoint(1)) is NotImplemented


def test_own_init_is_kept_and_private_fields_are_skipped():
    @record
    class Scaled:
        value: int
        _double: int

        def __init__(self, value):
            object.__setattr__(self, "value", value)
            object.__setattr__(self, "_double", 2 * value)

    s = Scaled(3)
    assert s._double == 6
    assert repr(s).endswith(".Scaled(value=3)")
    assert hash(s) == hash((3,))
    with pytest.raises(TypeError):
        Scaled(3, 6)


CHART = Chart(("x", "y", "z"))


def _levels():
    return (
        (parse_vector_field("dx", CHART), parse_vector_field("dy + x*dz", CHART)),
        tuple(parse_vector_field(e, CHART) for e in ("dx", "dy + x*dz", "dz")),
    )


def test_filtrations_from_the_same_levels_are_equal():
    a, b = Filtration(CHART, 2, _levels()), Filtration(CHART, 2, _levels())
    assert a is not b and a == b and hash(a) == hash(b)
    assert a.generators(2) == b.generators(2)
    assert "_distinct" not in repr(a) and "_sizes" not in repr(a)


def test_tristate_certificate_defaults_to_none():
    verdict = TriState("pass")
    assert verdict.certificate is None and verdict.reason == ""
    assert verdict == TriState("pass", None, "")
    assert TriState.undecided("degree_bound") == TriState("inconclusive", reason="degree_bound")


def test_tautological_pass_differs_from_a_plain_pass():
    g, h = parse_vector_field("dx", CHART), parse_vector_field("x*dy", CHART)
    padding = (Poly.zero(3),)
    tautological = _TautologicalPass(lambda: lie_bracket(g, h), padding)
    plain = TriState.passed(tautological.certificate)
    assert tautological.verdict == plain.verdict
    assert tautological.certificate == plain.certificate
    assert tautological != plain
    # [dx, x*dy] = dy, then one zero per padding entry
    assert tautological.certificate == (Poly.zero(3), Poly.one(3), Poly.zero(3), Poly.zero(3))


def test_filtration_keeps_generators_by_value_from_fresh_objects():
    # levels given as iterators of freshly parsed fields: equal fields are
    # one generator, and a field dropped after its level is read is not
    # mistaken for a later one
    texts = (("dx", "dy + x*dz"), ("dx", "dz", "dy + x*dz", "dz"))
    filt = Filtration(CHART, 2, [(parse_vector_field(t, CHART) for t in level) for level in texts])
    assert filt.generators(2) == tuple(parse_vector_field(t, CHART) for t in ("dx", "dy + x*dz", "dz"))
    assert filt.level_indices(1) == (0, 1)
    assert filt.level_indices(2) == (0, 2, 1, 2)
    assert filt.levels[1][0] is filt.levels[0][0] and filt.levels[1][1] is filt.levels[1][3]

"""Value semantics of the library's immutable classes.

Each class compares, hashes and prints by its fields, in declaration order,
as a frozen dataclass does, and refuses assignment and deletion.  Derived
data kept on an object (H-data, a coface map, a tail fan, a complex's face
indexes, a validation report) is not part of its value.  The constructors
of cones, polyhedra, fans, complexes and divisors, and the fixtures, return
one object per value, so input read again reuses all of that derived data
and converts no cone again.
"""

import copy
import random
from collections import Counter
from fractions import Fraction

import pytest
from conftest import (
    fan_document,
    forget_values,
    p1p1_fan,
    p2_fan,
    polyhedron_hrep,
    random_bundle,
    random_complete_fan,
)
from test_golden import GOLDEN, output_digest

from tchow import chow, fansy, polyhedra
from tchow.build import (
    FIXTURE_NAMES,
    DowngradeInput,
    KlyachkoBundle,
    RayFiltration,
    fixture,
    p1p1_bundle,
    p2_projectivized_fan,
)
from tchow.chow import ChowPresentation, RelationBlock, presentation, toric_chow_presentation
from tchow.cli import divisor_document, parse_fan, parse_input
from tchow.effcone import EffConeReport, eff_generators
from tchow.fansy import (
    CycleGenerator,
    GeneratorSets,
    MarkedFansyDivisor,
    ValidationReport,
    Violation,
    validate,
)
from tchow.polyhedra import Cone, Fan, PolyhedralComplex, Polyhedron
from tchow.value import Value, lazy

F = Fraction
P2_CONES = (((0, 1), (1, 0)), ((-1, -1), (0, 1)), ((-1, -1), (1, 0)))


# each factory builds a new object, equal to the one it built before; the
# constructors are called directly, so no derived data is kept yet (and no
# object is canonical: the make_* constructors would return the same one)
def cone():
    return Cone(2, P2_CONES[0])


def polyhedron():
    """The vertex (1/2, 0) plus the first P2 cone, as its homogenized cone."""
    return Polyhedron(Cone(3, ((0, 1, 0), (1, 0, 0), (1, 0, 2))))


def fan():
    return Fan(2, tuple(Cone(2, g) for g in P2_CONES))


def generator():
    return CycleGenerator("R", cone=cone())


def violation():
    return Violation("BAD_FAN", "cones do not meet in a common face")


def rebuilt(obj):
    """A new object equal to ``obj``, by its class constructor."""
    return type(obj)(*(getattr(obj, f) for f in obj._fields))


def read_indexes_and_report(x):
    x.tailfan
    for s in x.complexes:
        s.by_dim, s.by_tail, s.cofaces
    validate(x)


CASES = [
    (cone, ("ambient_rank", "generators"), lambda c: c.normals),
    (polyhedron, ("cone",), polyhedron_hrep),
    (fan, ("ambient_rank", "maximal_cones"), lambda f: f.cofaces),
    (
        lambda: PolyhedralComplex(Fan(3, (polyhedron().cone,))),
        ("fan",),
        lambda s: s.tail_fan,
    ),
    (
        lambda: rebuilt(fixture("p2_E")),  # fixture() returns one object per value
        ("points", "complexes", "marked"),
        read_indexes_and_report,
    ),
    (generator, ("kind", "point", "face", "cone"), lambda g: g.label),
    (lambda: GeneratorSets((generator(),), (), ()), ("r", "v", "t"), None),
    (violation, ("code", "message"), None),
    (lambda: ValidationReport((violation(),)), ("violations",), None),
    (
        lambda: RelationBlock(generator(), (((generator(), 1),),)),
        ("source", "rows"),
        None,
    ),
    (
        lambda: rebuilt(presentation(fixture("p2_E"), 1)),
        ("k", "generators", "relations", "free_rank", "torsion", "moduli", "class_map"),
        None,
    ),
    (
        lambda: rebuilt(eff_generators(fixture("p2_E"), 1)),  # one report per divisor and k
        ("k", "presentation", "entries", "distinct_classes"),
        None,
    ),
    (lambda: DowngradeInput(fan(), ((1, 0), (0, 1))), ("fan", "basis_change"), None),
    (lambda: RayFiltration(0, "a", 2), ("full_until", "line", "line_until"), None),
    (
        lambda: KlyachkoBundle(fan(), (((1, 0), RayFiltration(0)),)),
        ("base_fan", "filtrations"),
        None,
    ),
]
CLASSES = [
    Cone,
    Polyhedron,
    Fan,
    PolyhedralComplex,
    MarkedFansyDivisor,
    CycleGenerator,
    GeneratorSets,
    Violation,
    ValidationReport,
    RelationBlock,
    ChowPresentation,
    EffConeReport,
    DowngradeInput,
    RayFiltration,
    KlyachkoBundle,
]


@pytest.mark.parametrize(
    "make, fields, touch", CASES, ids=[cls.__name__ for cls in CLASSES]
)
def test_value_semantics(make, fields, touch):
    a, b = make(), make()
    cls = type(a)
    assert a is not b and cls in CLASSES
    values = tuple(getattr(a, f) for f in fields)
    hash_b = hash(b)
    if touch is not None:
        touch(a)
    assert a == b and not a != b
    assert hash(a) == hash_b == hash(values) == hash(b)
    assert cls(*values) == a
    assert repr(a) == f"{cls.__name__}(" + ", ".join(
        f"{f}={v!r}" for f, v in zip(fields, values)
    ) + ")"

    for f in fields:
        with pytest.raises(AttributeError):
            setattr(a, f, getattr(a, f))
        with pytest.raises(AttributeError):
            delattr(a, f)
    with pytest.raises(AttributeError):
        a.extra = None
    assert tuple(getattr(a, f) for f in fields) == values

    # equal fields in another class give an unequal object
    sub = type("Sub", (cls,), {})(*values)
    assert sub != a and a != sub and sub == type(sub)(*values)
    assert a != values


@pytest.mark.parametrize(
    "make, fields, touch", CASES, ids=[cls.__name__ for cls in CLASSES]
)
def test_constructor_takes_fields_by_position_and_keyword(make, fields, touch):
    a = make()
    cls = type(a)
    values = tuple(getattr(a, f) for f in fields)
    keywords = dict(zip(fields, values))
    assert cls(**keywords) == a
    assert cls(*values[:1], **dict(list(keywords.items())[1:])) == a
    sub = type("Sub", (cls,), {})
    assert sub(**keywords) == sub(*values)

    with pytest.raises(TypeError):
        cls(*values, None)
    with pytest.raises(TypeError):
        cls(*values, extra=None)
    with pytest.raises(TypeError):
        cls(*values, **{fields[0]: values[0]})
    # a misspelt keyword is refused, also where the field it misses has a default
    with pytest.raises(TypeError):
        cls(*values[:-1], **{fields[-1] + "_": values[-1]})

    if cls is RayFiltration:  # its own check refuses a line without its end
        with pytest.raises(ValueError, match="given together"):
            cls(*values[:-1])
    elif cls in (CycleGenerator, DowngradeInput):  # the last field defaults to None
        assert cls(*values[:-1]) == cls(*values[:-1], None)
        assert sub(*values[:-1]) == sub(*values[:-1], None)
    else:
        with pytest.raises(TypeError):
            cls(*values[:-1])


def test_objects_of_different_classes_are_unequal():
    objects = [make() for make, _, _ in CASES]
    for i, a in enumerate(objects):
        for b in objects[i + 1 :]:
            assert a != b and b != a


def test_defaults_and_filtration_checks():
    assert repr(CycleGenerator("T")) == (
        "CycleGenerator(kind='T', point=None, face=None, cone=None)"
    )
    assert repr(Violation("X", "m")) == "Violation(code='X', message='m')"
    assert DowngradeInput(fan()) == DowngradeInput(fan(), None)
    f = RayFiltration(2)
    assert (f.full_until, f.line, f.line_until, f.jump) == (2, None, None, 0)
    assert RayFiltration(0, "a", 3).jump == 3
    with pytest.raises(ValueError, match="given together"):
        RayFiltration(0, line="a")
    with pytest.raises(ValueError, match="given together"):
        RayFiltration(0, line_until=1)
    with pytest.raises(ValueError, match="strictly decreasing"):
        RayFiltration(1, "a", 1)
    with pytest.raises(ValueError, match="strictly decreasing"):
        RayFiltration(1, "a", 0)


def test_lazy_attribute_runs_once_and_stays_outside_the_value(monkeypatch):
    """A ``lazy`` attribute is computed on its first read, once per object, and kept off the fields."""
    calls = []

    class Thing(Value):
        a: int

        @lazy
        def double(self) -> int:
            """Twice ``a``."""
            calls.append(self)
            return 2 * self.a

    assert isinstance(Thing.double, lazy) and Thing.double.__doc__ == "Twice ``a``."
    x, y = Thing(3), Thing(3)
    hash_y, repr_y = hash(y), repr(y)
    assert x.double == x.double == 6 and calls == [x]
    assert x == y and hash(x) == hash_y == hash((3,)) and repr(x) == repr_y == f"{Thing.__qualname__}(a=3)"
    assert Thing._fields == ("a",) and "double" in vars(x)
    assert y.double == 6 and len(calls) == 2 and calls[1] is y
    for name in ("a", "double"):
        with pytest.raises(AttributeError):
            setattr(x, name, 4)
    assert (x.a, x.double) == (3, 6)

    # a library class: a cone's normals and span equations are each derived once, on their first read
    spans = []
    for name in ("_span_facets", "integer_kernel"):
        real = getattr(polyhedra, name)
        monkeypatch.setattr(polyhedra, name, lambda *a, name=name, real=real: spans.append(name) or real(*a))
    c, d = cone(), cone()
    assert (c.normals, c.normals) and spans == ["_span_facets"]
    assert c.span_eqs == c.span_eqs == () and spans == ["_span_facets"]  # full-dimensional: no kernel
    assert c == d and hash(c) == hash(d) and repr(c) == repr(d) and len(spans) == 1
    assert d.normals == c.normals and spans == ["_span_facets"] * 2
    ray = Cone(2, ((1, 0),))
    assert ray.span_eqs == ray.span_eqs == ((0, 1),) and spans[2:] == ["integer_kernel"]


def bundle_stanza(b: KlyachkoBundle) -> dict:
    filtrations = [
        {"ray": list(ray), "full_until": f.full_until}
        | ({} if f.line is None else {"line": f.line, "line_until": f.line_until})
        for ray, f in b.filtrations
    ]
    return {"bundle": {"fan": fan_document(b.base_fan), "filtrations": filtrations}}


def test_revisited_input_builds_nothing(monkeypatch, tmp_path):
    docs = {
        "p2_E": {"downgrade": {"fan": fan_document(p2_projectivized_fan("E"))}},
        "p1p1_bundle": bundle_stanza(p1p1_bundle()),
        "gr24": divisor_document(fixture("gr24")),
    }
    fan_doc = fan_document(p2_projectivized_fan("F"))
    forget_values()  # as in a new process: nothing is built yet
    calls = Counter()
    for module, name in (
        (chow, "relation_blocks"),
        (chow, "_smith_presentation"),
        (polyhedra, "_ridge_certificate"),
        (fansy, "_violations"),
    ):
        real = getattr(module, name)
        spy = lambda *a, real=real, name=name, **kw: calls.update([name]) or real(*a, **kw)
        monkeypatch.setattr(module, name, spy)
    # the double description, and the maximality selection of make_fan/make_complex
    real_extreme_rays = polyhedra._extreme_rays
    monkeypatch.setattr(
        polyhedra, "_extreme_rays", lambda *a: calls.update(["_extreme_rays"]) or real_extreme_rays(*a)
    )
    fans_selected = lambda: polyhedra._make_fan.cache_info().misses
    # a generator's text, formatted on the first read of its lazy label
    real_label = CycleGenerator.label.func
    monkeypatch.setattr(CycleGenerator.label, "func", lambda g: calls.update(["label"]) or real_label(g))

    def use(x):
        assert validate(x).ok
        reports = [eff_generators(x, k) for k in range(x.rank + 2)]
        return [presentation(x, k) for k in range(x.rank + 2)], reports

    for name, doc in docs.items():
        selected = fans_selected()
        x = parse_input(doc)
        first, reports = use(x)
        chow_digest = output_digest(tmp_path, "chow", doc)
        eff_digest = output_digest(tmp_path, "eff 1", doc)
        assert calls["relation_blocks"] and calls["_violations"] and calls["_extreme_rays"], name
        assert calls["label"] and fans_selected() > selected, name
        calls.clear()
        selected = fans_selected()
        again = parse_input(copy.deepcopy(doc))
        assert again is x, name
        presentations, reports_again = use(again)
        assert presentations == first
        assert all(a is b for a, b in zip(reports_again, reports, strict=True)), name
        assert output_digest(tmp_path, "chow", doc) == chow_digest == GOLDEN[f"{name} chow"]
        assert output_digest(tmp_path, "eff 1", doc) == eff_digest == GOLDEN[f"{name} eff 1"]
        assert not calls and fans_selected() == selected, (name, calls)

    fan = parse_fan(fan_doc)
    first = [toric_chow_presentation(fan, k) for k in range(fan.ambient_rank + 1)]
    assert calls["_smith_presentation"] == len(first) and fans_selected() > selected
    oracle_digest = output_digest(tmp_path, "oracle", fan_doc)
    calls.clear()
    selected = fans_selected()
    again = parse_fan(copy.deepcopy(fan_doc))
    assert again is fan
    assert [toric_chow_presentation(again, k) for k in range(fan.ambient_rank + 1)] == first
    assert output_digest(tmp_path, "oracle", fan_doc) == oracle_digest == GOLDEN["p2_F_fan oracle"]
    assert not calls and fans_selected() == selected

    # the same fan, its cones reordered and each cone's generators reversed and scaled
    moved = {
        "rank": fan_doc["rank"],
        "maximal_cones": [
            [[s * x for x in g] for s, g in enumerate(reversed(cone), 2)]
            for cone in reversed(fan_doc["maximal_cones"])
        ],
    }
    assert moved != fan_doc and parse_fan(moved) is fan
    assert not calls and fans_selected() == selected

    for name in FIXTURE_NAMES:
        x = fixture(name)
        calls.clear()
        selected = fans_selected()
        assert fixture(name) is x
        assert not calls and fans_selected() == selected, name


def test_a_document_parsed_again_is_a_lookup(monkeypatch):
    # a downgrade stanza, a bundle stanza, a bare fan and explicit
    # documents, each parsed once; a second parse of a copy returns the
    # object of the first, and for stanzas and fans normalizes no generator
    # and converts no cone
    fan_doc = fan_document(p2_projectivized_fan("E"))
    docs = [
        (parse_input, {"downgrade": {"fan": fan_doc}}),
        (parse_input, bundle_stanza(p1p1_bundle())),
        (parse_fan, fan_document(p2_projectivized_fan("F"))),
    ]
    explicit = [divisor_document(fixture("gr24")), divisor_document(fixture("p2_E"))]
    forget_values()  # as in a new process: nothing is built yet
    first = [parse(doc) for parse, doc in docs]
    for doc in explicit:
        assert parse_input(copy.deepcopy(doc)) is parse_input(doc)
    calls = Counter()
    spy = lambda name, real: lambda *a: calls.update([name]) or real(*a)
    monkeypatch.setattr(polyhedra, "primitive_direction", spy("primitive_direction", polyhedra.primitive_direction))
    monkeypatch.setattr(polyhedra, "_extreme_rays", spy("_extreme_rays", polyhedra._extreme_rays))
    for (parse, doc), x in zip(docs, first):
        assert parse(copy.deepcopy(doc)) is x
    assert not calls, calls
    # the spies do see a new input: the fan with one generator scaled, whose
    # generators are all normalized again but whose cones are converted once
    moved = copy.deepcopy(fan_doc)
    moved["maximal_cones"][0][0] = [2 * c for c in moved["maximal_cones"][0][0]]
    assert parse_fan(moved) is parse_fan(fan_doc)
    assert calls["primitive_direction"] == sum(map(len, fan_doc["maximal_cones"]))
    assert not calls["_extreme_rays"]


def test_every_lazy_attribute_runs_once_per_value(monkeypatch):
    """The library builds one cone, polyhedron, fan and complex per value.

    Two passes over input documents, through library entry points alone:
    the fixtures read back from their documents, downgrade stanzas of seeded
    rank-3 and rank-4 fans with those fans' toric oracles, and bundle stanzas
    of seeded filtrations, each with its presentation at every k.  Every
    ``lazy`` attribute of those four classes runs at most once per value.
    """
    rng = random.Random(22)
    fans = [random_complete_fan(rng, rank) for rank in (3, 3, 4)]
    docs = [divisor_document(fixture(name)) for name in FIXTURE_NAMES]
    docs += [{"downgrade": {"fan": fan_document(f)}} for f in fans]
    docs += [bundle_stanza(random_bundle(rng, base)) for base in (p2_fan(), p1p1_fan()) * 2]
    fan_docs = [fan_document(f) for f in fans]
    forget_values()  # as in a new process: nothing is built yet

    runs = Counter()
    attributes = set()
    for cls in (Cone, Polyhedron, Fan, PolyhedralComplex):
        for name, attr in vars(cls).items():
            if isinstance(attr, lazy):
                key = f"{cls.__name__}.{name}"
                attributes.add(key)
                spy = lambda obj, real=attr.func, key=key: runs.update([(key, obj)]) or real(obj)
                monkeypatch.setattr(attr, "func", spy)

    for _ in range(2):
        for doc in docs:
            x = parse_input(doc)
            assert validate(x).ok
            for k in range(x.rank + 2):
                presentation(x, k)
        for doc in fan_docs:
            fan = parse_fan(doc)
            for k in range(fan.ambient_rank + 1):
                toric_chow_presentation(fan, k)
    assert {key for key, _ in runs} == attributes
    repeated = Counter(key for (key, _), count in runs.items() if count > 1)
    assert not repeated, repeated

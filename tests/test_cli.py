import copy
import gc
import io
import json
import os
import random
import re
import subprocess
import sys
import warnings
from fractions import Fraction as F
from itertools import product
from pathlib import Path

import pytest
from conftest import fan_document, forget_values, random_complete_fan

import tchow
from tchow import build, cli
from tchow.build import FIXTURE_NAMES, fixture
from tchow.cli import divisor_document, main, parse_input
from tchow.fansy import validate
from tchow.polyhedra import make_polyhedron

P2E_FAN = {
    "rank": 3,
    "maximal_cones": [
        [[1, 0, 1], [0, 1, 0], [0, 0, 1]],
        [[1, 0, 1], [0, 1, 0], [0, 0, -1]],
        [[0, 1, 0], [-1, -1, 0], [0, 0, 1]],
        [[0, 1, 0], [-1, -1, 0], [0, 0, -1]],
        [[-1, -1, 0], [1, 0, 1], [0, 0, 1]],
        [[-1, -1, 0], [1, 0, 1], [0, 0, -1]],
    ],
}


# the child imports the same package as the tests, installed or not
SRC = str(Path(tchow.__file__).resolve().parent.parent)
CHILD_ENV = {
    **os.environ,
    "PYTHONPATH": os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p),
}


def run_cli(args, stdin=None):
    proc = subprocess.run(
        [sys.executable, "-m", "tchow.cli", *args],
        input=stdin,
        capture_output=True,
        text=True,
        env=CHILD_ENV,
    )
    return proc


# loaded by no tchow start-up: argparse with gettext and locale, and fractions
# with decimal and numbers (fractions only once a proper fraction is read)
START_UP_FREE = {"argparse", "gettext", "locale", "fractions", "decimal", "numbers"}


def test_cli_import_loads_no_heavy_module():
    # every tchow call pays for its imports; dataclasses alone pulls in
    # inspect, ast, dis and tokenize, tens of milliseconds per process.
    # Without site (-S), whose .pth hooks may load typing anyway, the
    # package must not load typing either.
    heavy = f"{{'dataclasses', 'inspect', 'ast', 'dis', 'tokenize'}} | {START_UP_FREE}"
    for flags, modules in (((), heavy), (("-S",), heavy + " | {'typing'}")):
        code = f"import sys, tchow.cli; print(sorted(({modules}) & set(sys.modules)))"
        proc = subprocess.run(
            [sys.executable, *flags, "-c", code], capture_output=True, text=True, env=CHILD_ENV
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n", flags


def test_document_round_trip():
    for name in FIXTURE_NAMES:
        x = fixture(name)
        doc = divisor_document(x)
        again = parse_input(json.loads(json.dumps(doc)))
        assert again == x
        # canonical documents also round-trip byte-for-byte
        assert json.dumps(divisor_document(again), sort_keys=True) == json.dumps(
            doc, sort_keys=True
        )


def test_fixture_pipe_chow(tmp_path):
    fx = run_cli(["fixture", "gr24"])
    assert fx.returncode == 0
    chow = run_cli(["chow", "-", "--json"], stdin=fx.stdout)
    assert chow.returncode == 0
    doc = json.loads(chow.stdout)
    ranks = [res["smith"]["free_rank"] for res in doc["results"]]
    assert ranks == [1, 1, 2, 1, 1]
    assert all(res["smith"]["torsion"] == [] for res in doc["results"])


def test_counts_table_fixture():
    fx = run_cli(["fixture", "p2_E"])
    counts = run_cli(["counts", "-", "--json"], stdin=fx.stdout)
    doc = json.loads(counts.stdout)
    by_k = {e["k"]: (e["r"], e["v"], e["t"]) for e in doc["results"]}
    assert by_k[2] == (2, 3, 0)
    assert by_k[1] == (1, 7, 1)
    assert by_k[0] == (0, 4, 2)


def test_validate_corrupted_document_exit_one():
    fx = run_cli(["fixture", "p1p1_bundle"])
    doc = json.loads(fx.stdout)
    doc["marked"] = [m for m in doc["marked"] if len(m) == 1]  # break closure
    res = run_cli(["validate", "-", "--json"], stdin=json.dumps(doc))
    assert res.returncode == 1
    report = json.loads(res.stdout)
    assert not report["valid"]
    assert any("UPWARD" in v["code"] for v in report["violations"])


def test_incomplete_first_fiber_is_reported_over_the_fiber():
    # p2_E without the first cell of fiber 0: that fiber does not cover the
    # plane.  The tailfan, its tail fan, means nothing then, so the fiber over
    # inf is not compared with it
    doc = divisor_document(fixture("p2_E"))
    del doc["complexes"]["0"][0]
    res = run_cli(["validate", "-", "--json"], stdin=json.dumps(doc))
    assert res.returncode == 1
    codes = [v["code"] for v in json.loads(res.stdout)["violations"]]
    assert codes == ["BAD_COMPLEX", "BAD_COMPLEX"]


def test_cell_inside_another_is_reported_not_dropped():
    # p2_E with a cell added to fiber 0 inside its cell (0, 0) + cone((-1,-1), (0,1)),
    # with the same tail: not a face of it, so the fiber is not a complex
    doc = divisor_document(fixture("p2_E"))
    doc["complexes"]["0"].append({"vertices": [["-1", "0"]], "rays": [[-1, -1], [0, 1]]})
    res = run_cli(["validate", "-", "--json"], stdin=json.dumps(doc))
    assert res.returncode == 1
    (violation,) = json.loads(res.stdout)["violations"]
    assert violation["code"] == "BAD_COMPLEX"
    assert violation["message"] == (
        "fiber over 0: cells ((-1, 0),)+((-1, -1), (0, 1)) and ((0, 0),)+((-1, -1), (0, 1)) "
        "do not meet in a common face"
    )


def test_parse_error_exit_two():
    res = run_cli(["chow", "-"], stdin="{not json")
    assert res.returncode == 2
    res = run_cli(["chow", "-"], stdin='{"schema_version": 1}')
    assert res.returncode == 2


def test_byte_identical_json():
    a = run_cli(["fixture", "gr24", "--json"]).stdout
    b = run_cli(["fixture", "gr24", "--json"]).stdout
    assert a == b
    fx = run_cli(["fixture", "gr24"]).stdout
    c1 = run_cli(["chow", "-", "--json"], stdin=fx).stdout
    c2 = run_cli(["chow", "-", "--json"], stdin=fx).stdout
    assert c1 == c2


def test_crosscheck_and_oracle(tmp_path):
    fanfile = tmp_path / "fan.json"
    fanfile.write_text(json.dumps(P2E_FAN))
    res = run_cli(["crosscheck", str(fanfile), "--json"])
    assert res.returncode == 0
    doc = json.loads(res.stdout)
    assert doc["match"] and all(r["match"] for r in doc["results"])
    res = run_cli(["oracle", str(fanfile), "--k", "2", "--json"])
    smith = json.loads(res.stdout)["results"][0]["smith"]
    assert smith == {"free_rank": 2, "torsion": []}


def test_crosscheck_recorded_rank4_fan():
    root = Path(__file__).resolve().parent.parent
    fanfile = root / "bench" / "data" / "r4_defect_fan.json"
    res = run_cli(["crosscheck", "--json", str(fanfile)])
    assert res.returncode == 0, res.stdout + res.stderr
    assert json.loads(res.stdout)["match"] is True


WEIGHTED_PLANE_FAN = {
    "rank": 2,
    "maximal_cones": [[[1, 2], [1, -2]], [[1, 2], [-1, 0]], [[-1, 0], [1, -2]]],
}


@pytest.mark.parametrize("json_flag", [[], ["--json"]])
def test_crosscheck_with_torsion(tmp_path, capsys, json_flag):
    fanfile = tmp_path / "fan.json"
    fanfile.write_text(json.dumps(WEIGHTED_PLANE_FAN))
    assert main(["crosscheck", str(fanfile), *json_flag]) == 0
    out = capsys.readouterr().out
    if json_flag:
        doc = json.loads(out)
        assert doc["match"] is True
        assert doc["results"][1]["pipeline"] == {"free_rank": 1, "torsion": [2]}
    else:
        assert "tors [2]" in out and "False" not in out


P1_CELL = {"vertices": [["0"]], "rays": [[1]]}
P1_CELL_DOWN = {"vertices": [["0"]], "rays": [[-1]]}
P1P1_BASE = {
    "rank": 2,
    "maximal_cones": [[[1, 0], [0, 1]], [[0, 1], [-1, 0]], [[-1, 0], [0, -1]], [[0, -1], [1, 0]]],
}
RANK5_SIMPLEX = [[1 if i == j else 0 for j in range(5)] for i in range(5)]
BAD_DOCUMENTS = {
    "float_rank": ("oracle", {"rank": 2.7, "maximal_cones": [[[1, 0], [0, 1]]]}),
    "bool_rank": ("oracle", {"rank": True, "maximal_cones": [[[1, 0], [0, 1]]]}),
    "short_generator": ("oracle", {"rank": 3, "maximal_cones": [[[1, 0], [0, 1]]]}),
    "float_rank_explicit": (
        "validate",
        {"rank": 1.5, "points": ["0"], "complexes": {"0": [P1_CELL]}, "marked": []},
    ),
    "short_vertex": (
        "validate",
        {"rank": 2, "points": ["0"], "complexes": {"0": [P1_CELL]}, "marked": []},
    ),
    "short_marked_cone": (
        "validate",
        {"rank": 1, "points": ["0"], "complexes": {"0": [P1_CELL]}, "marked": [[[1, 0]]]},
    ),
    "short_downgrade_ray": ("chow", {"downgrade": {"fan": {"rank": 3, "maximal_cones": [[[1, 0]]]}}}),
    "short_basis_change": ("chow", {"downgrade": {"fan": P2E_FAN, "basis_change": [[1, 0], [0, 1]]}}),
    "short_filtration_ray": (
        "chow",
        {
            "bundle": {
                "fan": {"rank": 2, "maximal_cones": [[[1, 0], [0, 1]]]},
                "filtrations": [{"ray": [1], "full_until": 0}],
            }
        },
    ),
    "bundle_without_filtrations": ("chow", {"bundle": {"fan": P1P1_BASE}}),
    "bundle_filtration_not_object": (
        "chow",
        {"bundle": {"fan": P1P1_BASE, "filtrations": [[1, 0]]}},
    ),
    "bundle_filtration_without_ray": (
        "chow",
        {"bundle": {"fan": P1P1_BASE, "filtrations": [{"full_until": 0}]}},
    ),
    "bundle_line_not_label": (
        "chow",
        {
            "bundle": {
                "fan": P1P1_BASE,
                "filtrations": [{"ray": [1, 0], "full_until": 0, "line": [0], "line_until": 1}],
            }
        },
    ),
    "downgrade_without_fan": ("chow", {"downgrade": {"basis_change": None}}),
    "fan_cones_not_list": ("oracle", {"rank": 2, "maximal_cones": 7}),
    "missing_subdivision": (
        "validate",
        {"rank": 1, "points": ["0", "1"], "complexes": {"0": [P1_CELL]}, "marked": []},
    ),
    "complexes_not_object": (
        "validate",
        {"rank": 1, "points": ["0"], "complexes": [[P1_CELL]], "marked": []},
    ),
    "cell_not_object": (
        "validate",
        {"rank": 1, "points": ["0"], "complexes": {"0": [[["0"]]]}, "marked": []},
    ),
    "filtration_not_decreasing": (
        "chow",
        {
            "bundle": {
                "fan": P1P1_BASE,
                "filtrations": [{"ray": [1, 0], "full_until": 1, "line": "0", "line_until": 1}],
            }
        },
    ),
    "no_points": ("validate", {"rank": 1, "points": [], "complexes": {}, "marked": []}),
    "repeated_point": (
        "validate",
        {"rank": 1, "points": ["0", "0"], "complexes": {"0": [P1_CELL]}, "marked": []},
    ),
    "rank5_fan": ("oracle", {"rank": 5, "maximal_cones": [RANK5_SIMPLEX]}),
    "bool_schema_version": ("validate", {"schema_version": True, "downgrade": {"fan": P2E_FAN}}),
    "float_schema_version": ("validate", {"schema_version": 1.0, "downgrade": {"fan": P2E_FAN}}),
    "rank5_explicit": (
        "validate",
        {
            "rank": 5,
            "points": ["0"],
            "complexes": {"0": [{"vertices": [["0"] * 5], "rays": RANK5_SIMPLEX}]},
            "marked": [],
        },
    ),
    # oversized values are echoed only as a bounded prefix
    "huge_generator": ("oracle", {"rank": 2, "maximal_cones": [[[0] * 100_000]]}),
    "huge_rational": ("oracle", {"rank": 2, "maximal_cones": [[["1/" + "x" * 50_000, 0]]]}),
    "many_repeated_points": (
        "validate",
        {"rank": 1, "points": ["0"] * 3_000, "complexes": {"0": [P1_CELL]}, "marked": []},
    ),
    # an integer literal longer than Python converts (4,300 digits), written as raw JSON text
    "huge_integer_literal": ("oracle", '{"rank": 2, "maximal_cones": [[[' + "1" * 5_000 + ", 0]]]}"),
    # only integers and "a/b" strings are coordinates: no exponent, decimal, space or underscore
    "exponent_string": ("oracle", {"rank": 2, "maximal_cones": [[["1e10000000", 0]]]}),
    "exponent_vertex": (
        "validate",
        {"rank": 1, "points": ["0"], "complexes": {"0": [{"vertices": [["1e3"]]}]}, "marked": []},
    ),
    "decimal_vertex": (
        "validate",
        {"rank": 1, "points": ["0"], "complexes": {"0": [{"vertices": [["0.5"]]}]}, "marked": []},
    ),
    "spaced_string": ("oracle", {"rank": 1, "maximal_cones": [[[" 1"]], [["-1"]]]}),
    "underscore_string": ("oracle", {"rank": 1, "maximal_cones": [[["1_0"]], [["-1"]]]}),
    "zero_denominator": (
        "validate",
        {"rank": 1, "points": ["0"], "complexes": {"0": [{"vertices": [["1/0"]]}]}, "marked": []},
    ),
    # a key no object of the schema reads is refused, not ignored
    "misspelt_basis_change": ("chow", {"downgrade": {"fan": P2E_FAN, "basis_chnage": [[0, 1, 0], [1, 0, 0], [0, 0, 1]]}}),
    "misspelt_cell_vertices": (
        "validate",
        {"rank": 1, "points": ["0"], "complexes": {"0": [{"vertice": [["0"]], "rays": [[1]]}]}, "marked": []},
    ),
    "unknown_explicit_key": (
        "validate",
        {"rank": 1, "points": ["0"], "complexes": {"0": [P1_CELL]}, "marked": [], "comment": "x"},
    ),
    "explicit_key_in_stanza_document": ("chow", {"downgrade": {"fan": P2E_FAN}, "rank": 3}),
    "unknown_fan_key": ("oracle", {**P1P1_BASE, "maximal_cone": []}),
    "unknown_stanza_fan_key": ("chow", {"downgrade": {"fan": {**P2E_FAN, "rays": []}}}),
    "unknown_bundle_stanza_key": ("chow", {"bundle": {"fan": P1P1_BASE, "filtrations": [], "twist": 1}}),
    "misspelt_filtration_line": (
        "chow",
        {"bundle": {"fan": P1P1_BASE, "filtrations": [{"ray": [1, 0], "full_until": 0, "lines": "0", "line_until": 1}]}},
    ),
    "line_until_without_line": (
        "chow",
        {"bundle": {"fan": P1P1_BASE, "filtrations": [{"ray": [1, 0], "full_until": 0, "line_until": 1}]}},
    ),
    "complexes_entry_not_a_point": (
        "validate",
        {"rank": 1, "points": ["0"], "complexes": {"0": [P1_CELL], "1": [P1_CELL]}, "marked": []},
    ),
    "huge_unknown_key": ("oracle", {**P1P1_BASE, "x" * 100_000: 0}),
    # a cell with no vertex is refused, not dropped from a valid line as empty
    "cell_without_vertices": (
        "validate",
        {"rank": 1, "points": ["0"], "complexes": {"0": [P1_CELL, P1_CELL_DOWN, {"rays": [[1]]}]}, "marked": []},
    ),
    "cell_with_empty_vertices": (
        "validate",
        {"rank": 1, "points": ["0"], "complexes": {"0": [P1_CELL, P1_CELL_DOWN, {"vertices": []}]}, "marked": []},
    ),
}


@pytest.mark.parametrize("name", sorted(BAD_DOCUMENTS))
def test_bad_document_is_parse_error(tmp_path, capsys, name):
    command, doc = BAD_DOCUMENTS[name]
    path = tmp_path / "doc.json"
    path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    assert main([command, str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("parse error:")
    assert len(err.encode()) < 1_000


@pytest.mark.parametrize(
    "name, message",
    [
        ("misspelt_basis_change", "the downgrade stanza has unknown key 'basis_chnage'"),
        ("misspelt_cell_vertices", "a cell has unknown key 'vertice'"),
        ("unknown_explicit_key", "the document has unknown key 'comment'"),
        ("explicit_key_in_stanza_document", "the document has unknown key 'rank'"),
        ("unknown_fan_key", "a fan document has unknown key 'maximal_cone'"),
        ("unknown_bundle_stanza_key", "the bundle stanza has unknown key 'twist'"),
        ("misspelt_filtration_line", "a filtration has unknown key 'lines'"),
        ("line_until_without_line", "line and line_until must be given together"),
        ("complexes_entry_not_a_point", "complexes (keyed by points) has unknown key '1'"),
        ("cell_without_vertices", "a cell needs at least one vertex"),
        ("cell_with_empty_vertices", "a cell needs at least one vertex"),
        ("huge_unknown_key", f"a fan document has unknown key '{'x' * 79}... (100002 characters)"),
    ],
)
def test_unknown_key_is_named(tmp_path, capsys, name, message):
    command, doc = BAD_DOCUMENTS[name]
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    assert main([command, str(path)]) == 2
    assert capsys.readouterr().err == f"parse error: {message}\n"


@pytest.mark.parametrize(
    "text, value",
    [(7, 7), ("7", 7), ("-3/2", F(-3, 2)), ("+4/6", F(2, 3)), ("0/5", 0), ("-0", 0)],
)
def test_rational_coordinates_in_documented_forms(text, value):
    assert cli._rat(text) == value


@pytest.mark.parametrize(
    "text, value",
    [
        ("+3/4", F(3, 4)),
        ("-0", 0),
        *((text, None) for text in ("3/-4", "3/+4", " 3", "3\n", "\u0663", "1_0", "", "/", "3/", "1/0")),
        ("1" * 5_000 + "/3", None),
    ],
    ids=["+3/4", "-0", "3/-4", "3/+4", "space", "newline", "arabic-indic", "underscore", "empty"]
    + ["slash", "no denominator", "zero denominator", "5000 digits"],
)
def test_rational_reads_a_sign_and_ascii_digits(text, value):
    """A numerator is a sign and ASCII digits, a denominator ASCII digits, as ``--k`` is read;
    anything else is a bad rational, with the message it always had."""
    if value is None:
        for read in (cli._rat, reference_rat):  # the reference reads by regex
            with pytest.raises(cli.ParseError) as got:
                read(text)
            assert str(got.value) == f"bad rational {cli._shown(text)}"
    else:
        assert cli._rat(text) == reference_rat(text) == value


def reference_rat(value) -> F:
    """``cli._rat`` as it was when every coordinate was a ``Fraction``."""
    if isinstance(value, bool) or isinstance(value, float):
        raise cli.ParseError(f"coordinates must be integers or 'a/b' strings, got {cli._shown(value)}")
    if isinstance(value, int):
        return F(value)
    if isinstance(value, str) and re.fullmatch(r"[+-]?[0-9]+(/[0-9]+)?", value):
        try:
            return F(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise cli.ParseError(f"bad rational {cli._shown(value)}") from exc
    raise cli.ParseError(f"bad rational {cli._shown(value)}")


def reference_int(value) -> int:
    f = reference_rat(value)
    if f.denominator != 1:
        raise cli.ParseError(f"expected an integer, got {cli._shown(value)}")
    return int(f)


COORDINATES = [
    *(True, False, 1.5, 2.0, None, [1], {"a": 1}, "", "x", "1e3", "0.5", " 1", "1_0", "3/-1"),
    *("1/0", "-0/0", "1/" + "x" * 100, "1" * 5_000, "1/" + "1" * 5_000, "-" + "9" * 4_300),
    *(0, 3, -12, 10**40, "+5", "-0", "0/5", "4/2", "-12/3", "3/2", "-7/4", "+4/6", "10/4"),
]


@pytest.mark.parametrize("read, reference", [(cli._rat, reference_rat), (cli._int, reference_int)])
def test_coordinate_readers_match_fraction_reference(read, reference):
    """Each coordinate reads as before, or fails with the same message.

    A value is an ``int`` exactly when it is integral, and a ``Fraction``
    otherwise, equal to the reference's and printed the same.
    """
    for value in COORDINATES:
        try:
            expected = reference(value)
        except cli.ParseError as exc:
            with pytest.raises(cli.ParseError) as got:
                read(value)
            assert str(got.value) == str(exc)
            continue
        x = read(value)
        assert (x, str(x)) == (expected, str(expected))
        assert type(x) is (int if F(expected).denominator == 1 else F)
    assert [type(cli._rat(text)) for text in (3, "4/2", "-0")] == [int] * 3
    assert (cli._rat("4/2"), cli._rat("-0")) == (2, 0)


def reference_vector(value, rank, entry):
    """``cli._vector`` as it was before plain int lists took a fast path."""
    if not isinstance(value, list) or len(value) != rank:
        got = f"length {len(value)}: " if isinstance(value, list) else ""
        raise cli.ParseError(f"expected a vector of length {rank}, got {got}{cli._shown(value)}")
    return tuple(entry(c) for c in value)


VECTORS = [
    *([c, 0] for c in COORDINATES),
    *([0, c] for c in COORDINATES),
    [1, 2], [-3, 10**40], [], [1], [1, 2, 3], [[1, 2]], [[1], [2]], [[1, 2], 3],
    (1, 2), "12", None, {"a": 1}, 12, [True, True], [1, False],
]


@pytest.mark.parametrize("entry", [cli._int, cli._rat])
def test_vector_reads_as_before(entry):
    # every message is the per-entry reader's, and every vector the same tuple
    for value in VECTORS:
        try:
            expected = reference_vector(value, 2, entry)
        except cli.ParseError as exc:
            with pytest.raises(cli.ParseError) as got:
                cli._vector(value, 2, entry)
            assert str(got.value) == str(exc), value
            continue
        x = cli._vector(value, 2, entry)
        assert x == expected and type(x) is tuple and list(map(type, x)) == list(map(type, expected))
    messages = {
        "True": ([True, 0], "coordinates must be integers or 'a/b' strings, got True"),
        "1.0": ([1.0, 0], "coordinates must be integers or 'a/b' strings, got 1.0"),
        "'x'": (["x", 0], "bad rational 'x'"),
        "nested": ([[1], 0], "bad rational [1]"),
        "long": ([1, 2, 3], "expected a vector of length 2, got length 3: [1, 2, 3]"),
        "short": ([1], "expected a vector of length 2, got length 1: [1]"),
        "tuple": ((1, 2), "expected a vector of length 2, got (1, 2)"),
    }
    for value, message in messages.values():
        with pytest.raises(cli.ParseError, match=re.escape(message)):
            cli._vector(value, 2, entry)
    if entry is cli._int:
        with pytest.raises(cli.ParseError, match=re.escape("expected an integer, got '1/2'")):
            cli._vector(["1/2", 0], 2, entry)
    else:
        assert cli._vector(["1/2", 0], 2, entry) == (F(1, 2), 0)


def test_a_parse_never_depends_on_earlier_parses():
    # the input memos see only validated coordinates, so a float generator
    # fails as it did before an equal int one was read, and a bool one too
    def outcome(call):
        try:
            return call()
        except Exception as exc:
            return type(exc), str(exc)

    floats = lambda: tchow.make_cone([(1.0, 0)], 2)
    bools = lambda: cli.parse_fan({"rank": 2, "maximal_cones": [[[True, 0]]]})
    before = [outcome(floats), outcome(bools)]
    assert before[0][0] is AttributeError and before[1][0] is cli.ParseError
    ints = tchow.make_cone([(1, 0)], 2)
    assert cli.parse_fan({"rank": 2, "maximal_cones": [[[1, 0]]]}).maximal_cones == (ints,)
    assert [outcome(floats), outcome(bools)] == before


def entry_wise(doc):
    """``parse_fan``'s reader for a block that fails its bulk check: cone by cone."""
    rank = doc["rank"]
    return cli.make_fan([cli._cone(c, rank) for c in doc["maximal_cones"]], rank)


def shuffled_fan_document(rng, fan):
    """``fan``'s document with its cones and each cone's generators in a random order."""
    doc = fan_document(fan)
    for cone in doc["maximal_cones"]:
        rng.shuffle(cone)
    rng.shuffle(doc["maximal_cones"])
    return doc


@pytest.mark.parametrize("rank", [1, 2, 3, 4])
def test_bulk_read_fan_is_the_entry_wise_one(rank):
    # a block of plain-int lists is keyed by its coordinates (cli._fan_of);
    # the fan is the object the cone-by-cone reader builds, whichever runs first
    rng = random.Random(35 + rank)
    for _ in range(4):
        doc = shuffled_fan_document(rng, random_complete_fan(rng, rank, 4))
        forget_values()
        fan = cli.parse_fan(doc)
        assert entry_wise(doc) is fan and cli.parse_fan(copy.deepcopy(doc)) is fan
        forget_values()
        fan = entry_wise(doc)
        assert cli.parse_fan(doc) is fan
        # a coordinate spelt "3" fails the bulk check: read entry-wise, it keys no fan
        strings = copy.deepcopy(doc)
        strings["maximal_cones"][-1][-1] = [str(c) for c in strings["maximal_cones"][-1][-1]]
        assert cli.parse_fan(strings) is fan and cli._fan_of.cache_info().currsize == 1


def malformed_twins(doc):
    """Copies of a rank-3 fan document, each with one fault, and the message each is refused with."""
    last = doc["maximal_cones"][-1][-1]

    def twin(change):
        bad = copy.deepcopy(doc)
        change(bad["maximal_cones"])
        return bad

    def at_last(value):
        return lambda cones: cones[-1].__setitem__(-1, value)

    return {
        "true": (
            twin(at_last([True, *last[1:]])),
            "coordinates must be integers or 'a/b' strings, got True",
        ),
        "float": (
            twin(at_last([float(last[0]), *last[1:]])),
            f"coordinates must be integers or 'a/b' strings, got {float(last[0])!r}",
        ),
        "long": (twin(at_last([*last, 0])), f"expected a vector of length 3, got length 4: {[*last, 0]}"),
        "short": (twin(at_last(last[:2])), f"expected a vector of length 3, got length 2: {last[:2]}"),
        "tuple": (twin(at_last(tuple(last))), f"expected a vector of length 3, got {tuple(last)}"),
        "dict cone": (
            twin(lambda cones: cones.append({"rays": last})),
            f"a cone must be a list, got {{'rays': {last}}}",
        ),
        "dict block": (
            {"rank": 3, "maximal_cones": {"0": doc["maximal_cones"][0]}},
            f"maximal_cones must be a list, got {{'0': {doc['maximal_cones'][0]}}}",
        ),
    }


def test_malformed_fan_is_refused_as_before():
    # each twin fails the bulk check and reaches the entry-wise reader, with
    # its message, on fresh tables and right after the valid twin was read
    doc = P2E_FAN
    for name, (bad, message) in malformed_twins(doc).items():
        for warm in (False, True):
            forget_values()
            if warm:
                cli.parse_fan(doc)
            with pytest.raises(cli.ParseError) as caught:
                cli.parse_fan(bad)
            assert str(caught.value) == message, (name, warm)


def test_revisited_fan_is_one_lookup(monkeypatch):
    # a copy of a parsed fan document builds no cone and selects no fan
    doc = P2E_FAN
    fan = cli.parse_fan(doc)
    calls = []
    for name in ("make_cone", "make_fan"):
        real = getattr(cli, name)
        monkeypatch.setattr(cli, name, lambda *a, real=real, name=name: calls.append(name) or real(*a))
    assert cli.parse_fan(copy.deepcopy(doc)) is fan
    assert calls == []
    # the spies see a block read entry-wise
    strings = copy.deepcopy(doc)
    strings["maximal_cones"][0][0] = [str(c) for c in strings["maximal_cones"][0][0]]
    assert cli.parse_fan(strings) is fan
    assert calls.count("make_cone") == len(doc["maximal_cones"]) and calls.count("make_fan") == 1


def test_rational_vertex_document(tmp_path, capsys):
    """An explicit document with a ``"1/2"`` vertex is read and validated."""
    cells = lambda v: [{"vertices": [[v]], "rays": [[1]]}, {"vertices": [[v]], "rays": [[-1]]}]
    doc = {"rank": 1, "points": ["0", "inf"], "complexes": {"0": cells("1/2"), "inf": cells(0)}, "marked": []}
    path = tmp_path / "half.json"
    path.write_text(json.dumps(doc))
    assert main(["validate", "--json", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["valid"]
    x = parse_input(doc)
    assert [c.vertices for c in x.complex_at("0").maximal_cells] == [((F(1, 2),),)] * 2
    assert divisor_document(x)["complexes"]["0"][0]["vertices"] == [["1/2"]]


def test_unreadable_file_is_parse_error(tmp_path, capsys):
    assert main(["chow", str(tmp_path / "missing.json")]) == 2
    assert capsys.readouterr().err.startswith("parse error: cannot read")


@pytest.mark.parametrize(
    "content, message",
    [
        (b"\xff\xfe", "cannot read {path}: not UTF-8 text"),
        (b"[" * 200_000, "invalid JSON: nested too deeply"),
    ],
)
def test_undecodable_file_is_parse_error(tmp_path, capsys, content, message):
    path = tmp_path / "doc.json"
    path.write_bytes(content)
    assert main(["validate", str(path)]) == 2
    assert capsys.readouterr().err == f"parse error: {message.format(path=path)}\n"


def test_unwritable_out_is_parse_error(tmp_path, capsys):
    fixture_file = tmp_path / "p2_E.json"
    fixture_file.write_text(json.dumps(divisor_document(fixture("p2_E"))))
    target = tmp_path / "missing" / "x.json"
    assert main(["chow", "--json", "--out", str(target), str(fixture_file)]) == 2
    assert capsys.readouterr().err.startswith(f"parse error: cannot write {target}:")
    assert not target.exists()


def test_singular_basis_change_is_validation_failure(tmp_path, capsys):
    path = tmp_path / "doc.json"
    change = [[1, 0, 0], [0, 1, 0], [1, 1, 0]]
    path.write_text(json.dumps({"downgrade": {"fan": P2E_FAN, "basis_change": change}}))
    assert main(["chow", str(path)]) == 1
    assert capsys.readouterr().err == "validation failure: basis change must be unimodular\n"


# the fan of the four quadrants with cone((1,0),(1,1)) listed too: inside the
# first quadrant but not a face of it, so not dropped as one
SUB_CONE_FAN = {
    "rank": 2,
    "maximal_cones": [[[1, 0], [0, 1]], [[1, 0], [1, 1]], [[0, 1], [-1, 0]], [[-1, 0], [0, -1]], [[0, -1], [1, 0]]],
}
SUB_CONE_FAULT = "cones ((0, 1), (1, 0)) and ((1, 0), (1, 1)) do not meet in a common face"

# the face fan of the cube [-1,1]^3 with the cone on three rays of its facet
# x = 1 listed too: its rays are among that facet cone's, but it is no face of it
CUBE_SUB_CONE_FAN = {
    "rank": 3,
    "maximal_cones": [[list(v) for v in product((-1, 1), repeat=3) if v[i] == s] for i in range(3) for s in (1, -1)]
    + [[[1, 1, 1], [1, -1, 1], [1, -1, -1]]],
}
CUBE_SUB_CONE_FAULT = (
    "cones ((1, -1, -1), (1, -1, 1), (1, 1, 1)) and ((1, -1, -1), (1, -1, 1), (1, 1, -1), (1, 1, 1))"
    " do not meet in a common face"
)

# input that parses but describes no variety: a validation failure (exit 1) naming the fault
GEOMETRY_FAILURES = {
    "repeated_filtration_ray": (
        "chow",
        {
            "bundle": {
                "fan": P1P1_BASE,
                "filtrations": [{"ray": r, "full_until": 0} for r in ([1, 0], [0, 1], [-1, 0], [0, -1], [1, 0])],
            }
        },
        "ray (1, 0) has more than one filtration",
    ),
    "rank0_downgrade": (
        "chow",
        {"downgrade": {"fan": {"rank": 0, "maximal_cones": [[]]}}},
        "a downgrade needs a fan of rank at least 1",
    ),
    "rank0_crosscheck": (
        "crosscheck",
        {"rank": 0, "maximal_cones": [[]]},
        "a downgrade needs a fan of rank at least 1",
    ),
    "sub_cone_oracle": ("oracle", SUB_CONE_FAN, SUB_CONE_FAULT),
    "sub_cone_crosscheck": ("crosscheck", SUB_CONE_FAN, SUB_CONE_FAULT),
    "cube_sub_cone_oracle": ("oracle", CUBE_SUB_CONE_FAN, CUBE_SUB_CONE_FAULT),
    "cube_sub_cone_crosscheck": ("crosscheck", CUBE_SUB_CONE_FAN, CUBE_SUB_CONE_FAULT),
}


@pytest.mark.parametrize("name", sorted(GEOMETRY_FAILURES))
def test_geometry_fault_is_validation_failure(tmp_path, capsys, name):
    command, doc, message = GEOMETRY_FAILURES[name]
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    assert main([command, str(path)]) == 1
    assert capsys.readouterr().err == f"validation failure: {message}\n"


@pytest.mark.parametrize("fault", [TypeError, KeyError, IndexError, AssertionError, ValueError])
def test_internal_fault_is_exit_three(monkeypatch, capsys, fault):
    def broken(name):
        raise fault("invariant broken")

    monkeypatch.setattr(cli, "fixture", broken)
    assert main(["fixture", "gr24"]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"internal error: {fault.__name__}:")
    assert "parse error" not in err


def test_invalid_downgrade_is_an_internal_fault(monkeypatch, tmp_path, capsys):
    # the fan has passed require_complete, so a downgrade that fails its own
    # validation is a fault of this program (exit 3), not of the input (exit 1)
    forget_values()  # no downgrade of this fan is remembered
    real = build._slice
    empty = lambda c: make_polyhedron([], [], c.ambient_rank - 1)
    monkeypatch.setattr(build, "_slice", lambda c, height: real(c, height) if height == 1 else empty(c))
    path = tmp_path / "p2_E.json"
    path.write_text(json.dumps({"downgrade": {"fan": P2E_FAN}}))
    assert main(["chow", str(path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("internal error: AssertionError: downgrade produced an invalid divisor:"), err


def test_chow_and_oracle_text_tables(tmp_path, capsys):
    fixture_file = tmp_path / "p2_E.json"
    fixture_file.write_text(json.dumps(divisor_document(fixture("p2_E"))))
    assert main(["chow", str(fixture_file)]) == 0
    assert capsys.readouterr().out == (
        "  k  generators  relations  free_rank  torsion\n"
        "  0           6          9          1  -\n"
        "  1           9         10          2  -\n"
        "  2           5          3          2  -\n"
        "  3           1          0          1  -\n"
    )
    fanfile = tmp_path / "fan.json"
    fanfile.write_text(json.dumps(WEIGHTED_PLANE_FAN))
    assert main(["oracle", str(fanfile)]) == 0
    assert capsys.readouterr().out == (
        "  k  generators  relations  free_rank  torsion\n"
        "  0           3          3          1  -\n"
        "  1           3          2          1  [2]\n"
        "  2           1          0          1  -\n"
    )


def test_out_flag(tmp_path):
    target = tmp_path / "out.json"
    fx = run_cli(["fixture", "p2_F", "--json", "--out", str(target)])
    assert fx.returncode == 0 and fx.stdout == ""
    doc = json.loads(target.read_text())
    assert doc["points"] == ["0", "inf"]


def test_constructor_stanza_inputs():
    doc = {"schema_version": 1, "downgrade": {"fan": P2E_FAN}}
    res = run_cli(["counts", "-", "--json"], stdin=json.dumps(doc))
    assert res.returncode == 0
    bundle_doc = {
        "schema_version": 1,
        "bundle": {
            "fan": {
                "rank": 2,
                "maximal_cones": [
                    [[1, 0], [0, 1]],
                    [[0, 1], [-1, 0]],
                    [[-1, 0], [0, -1]],
                    [[0, -1], [1, 0]],
                ],
            },
            "filtrations": [
                {"ray": [1, 0], "full_until": 0, "line": "0", "line_until": 1},
                {"ray": [0, 1], "full_until": 0, "line": "1", "line_until": 1},
                {"ray": [-1, 0], "full_until": 0, "line": "inf", "line_until": 1},
                {"ray": [0, -1], "full_until": 0},
            ],
        },
    }
    res = run_cli(["counts", "-", "--json"], stdin=json.dumps(bundle_doc))
    assert res.returncode == 0
    by_k = {
        e["k"]: (e["r"], e["v"], e["t"])
        for e in json.loads(res.stdout)["results"]
    }
    assert by_k[1] == (0, 8, 5)


def test_eff_cli():
    fx = run_cli(["fixture", "gr24"]).stdout
    res = run_cli(["eff", "-", "--k", "2", "--json"], stdin=fx)
    assert res.returncode == 0
    doc = json.loads(res.stdout)
    assert len(doc["generators"]) == 11
    assert len(doc["distinct_classes"]) == 3


def test_main_callable_directly(capsys):
    code = main(["fixture", "gr24"])
    assert code == 0
    out = capsys.readouterr().out
    assert json.loads(out)["rank"] == 3


@pytest.mark.parametrize(
    "argv",
    [["chow", "--k", "9"], ["chow", "--k", "-1"], ["eff", "--k", "9"], ["oracle", "--k", "9"]],
)
def test_out_of_range_k_is_parse_error(tmp_path, capsys, argv):
    path = tmp_path / "doc.json"
    if argv[0] == "oracle":
        path.write_text(json.dumps(P2E_FAN))
    else:
        path.write_text(json.dumps(divisor_document(fixture("p2_E"))))
    assert main([*argv, str(path)]) == 2
    assert capsys.readouterr().err == "parse error: k must lie in [0, 3]\n"


def test_out_of_range_k_is_caught_before_validation(tmp_path, capsys):
    doc = divisor_document(fixture("p1p1_bundle"))
    doc["marked"] = [m for m in doc["marked"] if len(m) == 1]  # invalid: breaks closure
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    assert main(["chow", "--k", "9", str(path)]) == 2
    assert capsys.readouterr().err.startswith("parse error: k must lie in")
    assert main(["chow", "--k", "1", str(path)]) == 1


def test_library_keeps_value_error_for_k():
    with pytest.raises(ValueError, match=r"k must lie in \[0, 3\]"):
        tchow.presentation(fixture("p2_E"), 9)


def imported_modules(stderr: str) -> set[str]:
    """The module names of a ``python -X importtime`` report."""
    lines = [line for line in stderr.splitlines() if line.startswith("import time:")]
    return {line.rsplit("|", 1)[1].strip() for line in lines}


def test_chow_of_an_integral_document_loads_no_fraction_module():
    doc = json.dumps(divisor_document(fixture("p2_E")))
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "tchow.cli", "chow", "--json"],
        input=doc, capture_output=True, text=True, env=CHILD_ENV,
    )
    assert proc.returncode == 0, proc.stderr
    assert len(json.loads(proc.stdout)["results"]) == 4
    loaded = imported_modules(proc.stderr)
    assert "tchow.polyhedra" in loaded  # the report lists the run's imports
    assert not loaded & START_UP_FREE, sorted(loaded & START_UP_FREE)


HALF_VERTEX = {
    "rank": 1,
    "points": ["0", "inf"],
    "complexes": {
        "0": [{"vertices": [["1/2"]], "rays": [[1]]}, {"vertices": [["1/2"]], "rays": [[-1]]}],
        "inf": [{"vertices": [[0]], "rays": [[1]]}, {"vertices": [[0]], "rays": [[-1]]}],
    },
    "marked": [],
}


def test_half_vertex_document_loads_fractions_when_read():
    """The CI's ``"1/2"`` vertex document validates in a fresh process, and
    its divisor document prints ``"1/2"``: ``fractions`` comes in on demand."""
    res = run_cli(["validate", "--json"], stdin=json.dumps(HALF_VERTEX))
    assert res.returncode == 0, res.stderr
    assert json.loads(res.stdout)["valid"]
    code = (
        "import json, sys; from tchow.cli import divisor_document, parse_input; "
        "before = 'fractions' in sys.modules; x = parse_input(json.loads(sys.stdin.read())); "
        "print(json.dumps([before, 'fractions' in sys.modules, divisor_document(x)['complexes']]))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], input=json.dumps(HALF_VERTEX),
        capture_output=True, text=True, env=CHILD_ENV,
    )
    assert proc.returncode == 0, proc.stderr
    before, after, complexes = json.loads(proc.stdout)
    assert (before, after) == (False, True)
    assert [cell["vertices"] for cell in complexes["0"]] == [[["1/2"]], [["1/2"]]]


USAGE_ERRORS = {
    "missing command": [],
    "unknown command": ["chwo"],
    "unknown flag": ["chow", "--jsn"],
    "abbreviated flag": ["chow", "--js"],
    "flag with a value it does not take": ["chow", "--json=yes"],
    "second positional": ["chow", "a.json", "b.json"],
    "non-integer k": ["chow", "--k", "two"],
    "non-integer k, joined": ["oracle", "--k=1.5"],
    "non-ASCII digit k": ["eff", "--k", "\u0661"],
    "k with a leading space": ["eff", "--k", " 1"],
    "k with an underscore": ["eff", "--k=0_1"],
    "k with no value": ["chow", "--k"],
    "repeated k": ["chow", "--k", "1", "--k", "2"],
    "repeated out": ["fixture", "p2_E", "--out", "o1", "--out", "o2"],
    "empty out": ["fixture", "p2_E", "--out="],
    "k on a command without one": ["validate", "--k", "1"],
    "missing k on eff": ["eff", "--json"],
    "missing fixture name": ["fixture", "--json"],
    "unknown fixture name": ["fixture", "p3"],
}


@pytest.mark.parametrize("argv", USAGE_ERRORS.values(), ids=USAGE_ERRORS)
def test_usage_error_exits_two_with_usage_line(capsys, argv):
    """Each usage error exits 2 with a ``usage:`` line and no traceback,
    through ``main`` and through a fresh ``python -m tchow.cli``; no input is read."""
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("usage: tchow") and "tchow: error: " in err
    proc = run_cli(argv, stdin='{"rank": 2}')
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", err)
    assert "Traceback" not in proc.stderr


def test_k_on_a_command_without_one_names_the_command(capsys):
    refusing = [name for name, (_, _, k_mode) in cli.COMMANDS.items() if k_mode is None]
    assert refusing == ["validate", "counts", "fixture", "crosscheck"]
    for name in refusing:
        for argv in ([name, "--k", "1"], [name, "--k=1"]):
            assert main(argv) == 2
            assert capsys.readouterr().err.endswith(f"tchow: error: {name} takes no --k\n")


def test_repeated_option_is_refused_by_name(tmp_path, capsys):
    """A second ``--k`` or ``--out``, spaced or joined, is refused as a second file is: nothing is written."""
    outs = [f"--out={tmp_path / 'o1'}", "--out", str(tmp_path / "o2")]
    for argv, flag in (
        (["chow", "--k", "1", "p2_E.json", "--k=2"], "--k"),
        (["fixture", "p2_E", *outs], "--out"),
    ):
        assert main(argv) == 2
        assert capsys.readouterr().err.endswith(f"tchow: error: {flag} given twice\n")
    assert list(tmp_path.iterdir()) == []


def test_help_lists_every_command(capsys):
    for flag in ("--help", "-h"):
        assert main([flag]) == 0
        assert main(["eff", flag]) == 0
    out = capsys.readouterr().out
    assert out.startswith("usage: tchow COMMAND")
    proc = run_cli(["--help"])
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == out[: len(proc.stdout)] == cli.__doc__
    for command in cli.COMMANDS:
        assert f"\n  {command} " in out


def test_joined_options_match_spaced_ones(tmp_path, capsys):
    """``--k=N`` and ``--out=PATH`` give the bytes of ``--k N`` and ``--out PATH``,
    before or after the file."""
    path = tmp_path / "p2_E.json"
    path.write_text(json.dumps(divisor_document(fixture("p2_E"))))
    outputs = []
    for i, argv in enumerate(
        [
            ["eff", str(path), "--k", "1", "--json", "--out", str(tmp_path / "0.out")],
            ["eff", "--k=1", "--out=" + str(tmp_path / "1.out"), "--json", str(path)],
            ["eff", "--json", "--out", str(tmp_path / "2.out"), "--k=1", str(path)],
        ]
    ):
        assert main(argv) == 0
        outputs.append((tmp_path / f"{i}.out").read_bytes())
    assert capsys.readouterr().out == ""
    assert outputs[0] == outputs[1] == outputs[2] and json.loads(outputs[0])["k"] == 1
    for argv in (["chow", "--k", "2", str(path)], ["chow", str(path), "--k=2"]):
        assert main(argv) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[3] == outputs[4] and outputs[3].count("\n") == 2
    spaced = run_cli(["oracle", "--json", "--k", "1"], stdin=json.dumps(P2E_FAN))
    joined = run_cli(["oracle", "--k=1", "--json", "-"], stdin=json.dumps(P2E_FAN))
    assert spaced.returncode == joined.returncode == 0
    assert spaced.stdout == joined.stdout


def test_fixture_json_is_serialized_once(monkeypatch, capsys):
    dumps, calls = json.dumps, []
    monkeypatch.setattr(cli.json, "dumps", lambda *a, **k: calls.append(1) or dumps(*a, **k))
    for flags in ([], ["--json"]):
        assert main(["fixture", "p2_E", *flags]) == 0
    assert len(calls) == 2
    once = json.dumps(divisor_document(fixture("p2_E")), sort_keys=True, indent=2) + "\n"
    assert capsys.readouterr().out == 2 * once


# ---------------------------------------------------------------------------
# the program ends with os._exit once its output is flushed

R4_FAN = Path(__file__).resolve().parent.parent / "bench" / "data" / "r4_defect_fan.json"


def in_process(argv, capsys, monkeypatch, stdin=""):
    monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def program_inputs(tmp_path) -> dict:
    """Input files for every command: a valid, an invalid and a malformed document, and fans."""
    p2e = divisor_document(fixture("p2_E"))
    broken = divisor_document(fixture("p1p1_bundle"))
    broken["marked"] = [m for m in broken["marked"] if len(m) == 1]  # breaks closure
    docs = {"p2_E": p2e, "broken": broken, "p2_fan": P2E_FAN, "torsion_fan": WEIGHTED_PLANE_FAN}
    texts = {name: json.dumps(doc) for name, doc in docs.items()} | {"malformed": "{not json"}
    for name, text in texts.items():
        (tmp_path / f"{name}.json").write_text(text)
    return {name: str(tmp_path / f"{name}.json") for name in texts}


PROGRAM_RUNS = {
    "validate": (["validate", "{p2_E}"], 0),
    "validate invalid": (["validate", "--json", "{broken}"], 1),
    "chow": (["chow", "{p2_E}"], 0),
    "chow json one k": (["chow", "--json", "--k", "1", "{p2_E}"], 0),
    "chow invalid": (["chow", "{broken}"], 1),
    "chow from stdin": (["chow", "--json", "-"], 0),
    "eff": (["eff", "--k", "2", "{p2_E}"], 0),
    "counts": (["counts", "--json", "{p2_E}"], 0),
    "oracle": (["oracle", "{torsion_fan}"], 0),
    "fixture": (["fixture", "gr24"], 0),
    "crosscheck": (["crosscheck", "--json", "{p2_fan}"], 0),
    "parse error": (["validate", "{malformed}"], 2),
    "out of range k": (["chow", "--k", "9", "{p2_E}"], 2),
    "usage error": (["chow", "--jsn"], 2),
    "help": (["--help"], 0),
}


@pytest.mark.parametrize("name", PROGRAM_RUNS)
def test_program_matches_main(tmp_path, capsys, monkeypatch, name):
    """``python -m tchow.cli`` gives the stdout, stderr and exit code of ``main()``."""
    argv, code = PROGRAM_RUNS[name]
    argv = [a.format(**program_inputs(tmp_path)) for a in argv]
    stdin = json.dumps(divisor_document(fixture("p2_E")))
    proc = run_cli(argv, stdin=stdin)
    assert (proc.returncode, proc.stdout, proc.stderr) == in_process(argv, capsys, monkeypatch, stdin)
    assert proc.returncode == code and "Traceback" not in proc.stderr


def test_program_out_matches_main(tmp_path, capsys, monkeypatch):
    path = program_inputs(tmp_path)["p2_E"]
    child, parent = tmp_path / "child.out", tmp_path / "main.out"
    proc = run_cli(["chow", "--json", "--out", str(child), path])
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "", "")
    assert in_process(["chow", "--json", "--out", str(parent), path], capsys, monkeypatch) == (0, "", "")
    assert child.read_bytes() == parent.read_bytes()


def broken_fixture(name):
    raise KeyError("invariant broken")


# ``tchow fixture gr24`` with a fault planted, run as ``python -m tchow.cli`` runs it
INTERNAL_FAULT = (
    "import runpy, sys, tchow.build\n"
    "def broken_fixture(name):\n"
    "    raise KeyError('invariant broken')\n"
    "tchow.build.fixture = broken_fixture\n"
    "sys.argv = ['tchow', 'fixture', 'gr24']\n"
    "runpy.run_module('tchow.cli', run_name='__main__')\n"
)


def test_program_internal_fault_matches_main(capsys, monkeypatch):
    """An internal fault exits 3 through the ``__main__`` block as through ``main()``."""
    proc = subprocess.run([sys.executable, "-c", INTERNAL_FAULT], capture_output=True, text=True, env=CHILD_ENV)
    monkeypatch.setattr(cli, "fixture", broken_fixture)
    expected = in_process(["fixture", "gr24"], capsys, monkeypatch)
    assert (proc.returncode, proc.stdout, proc.stderr) == expected
    assert expected == (3, "", "internal error: KeyError: 'invariant broken'\n")


def test_large_output_arrives_whole_through_a_pipe(capsys, monkeypatch):
    proc = run_cli(["oracle", "--json", str(R4_FAN)])
    expected = in_process(["oracle", "--json", str(R4_FAN)], capsys, monkeypatch)
    assert (proc.returncode, proc.stdout, proc.stderr) == expected
    assert len(proc.stdout) > 50_000 and json.loads(proc.stdout)["command"] == "oracle"


def test_program_skips_interpreter_teardown():
    """The ``__main__`` block ends with ``os._exit``: an ``atexit`` handler never runs.

    The same handler does run after ``main()`` called from the library.
    """
    setup = (
        "import atexit, runpy, sys\n"
        "atexit.register(lambda: sys.stderr.write('atexit ran\\n'))\n"
        "sys.argv = ['tchow', 'fixture', 'p2_E']\n"
    )
    calls = {"runpy.run_module('tchow.cli', run_name='__main__')": False, "import tchow.cli; tchow.cli.main()": True}
    for call, ran in calls.items():
        proc = subprocess.run([sys.executable, "-c", setup + call], capture_output=True, text=True, env=CHILD_ENV)
        assert proc.returncode == 0 and json.loads(proc.stdout)["points"] == ["0", "inf"]
        assert proc.stderr == ("atexit ran\n" if ran else ""), call


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize(
    "argv, target",
    [
        (["validate", "{p2_E}"], "stdout"),  # 6 bytes: fails at the flush
        (["fixture", "gr24"], "stdout"),  # 12 KB: fails at the write
        (["--help"], "stdout"),
        (["chow", "--json", "--out", "/dev/full", "{p2_E}"], "/dev/full"),
    ],
)
def test_unwritable_output_is_parse_error(tmp_path, argv, target):
    argv = [a.format(**program_inputs(tmp_path)) for a in argv]
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "tchow.cli", *argv],
            stdout=full, stderr=subprocess.PIPE, text=True, env=CHILD_ENV,
        )
    assert (proc.returncode, proc.stderr) == (2, f"parse error: cannot write {target}: No space left on device\n")


def test_closed_stdout_is_parse_error():
    argv = ["sh", "-c", '"$0" -m tchow.cli fixture gr24 >&-', sys.executable]
    proc = subprocess.run(argv, capture_output=True, text=True, env=CHILD_ENV)
    assert (proc.returncode, proc.stderr) == (2, "parse error: cannot write stdout: it is closed\n")


def test_input_file_is_closed(tmp_path, capsys):
    path = program_inputs(tmp_path)["p2_E"]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["validate", path]) == 0
        gc.collect()
    assert capsys.readouterr().out == "valid\n"
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


def test_closed_stdin_is_parse_error():
    argv = ["sh", "-c", '"$0" -m tchow.cli validate <&-', sys.executable]
    proc = subprocess.run(argv, capture_output=True, text=True, env=CHILD_ENV)
    assert (proc.returncode, proc.stderr) == (2, "parse error: cannot read stdin: it is closed\n")


def relabeled_p2_E(tmp_path, label: str) -> str:
    """A p2_E document whose point ``0`` is called ``label``, as a file."""
    doc = divisor_document(fixture("p2_E"))
    doc["points"] = [label if p == "0" else p for p in doc["points"]]
    doc["complexes"][label] = doc["complexes"].pop("0")
    path = tmp_path / "relabeled.json"
    path.write_text(json.dumps(doc))  # ASCII: json.dumps escapes the label
    return str(path)


def test_out_that_cannot_encode_a_label_is_parse_error(tmp_path, capsys):
    """A lone surrogate, which ``json.loads`` accepts, cannot be written as UTF-8: exit 2."""
    out = tmp_path / "eff.txt"
    assert main(["eff", "--k", "1", "--out", str(out), relabeled_p2_E(tmp_path, "\ud800")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"parse error: cannot write {out}: 'utf-8' codec can't encode character '\\ud800'")


# the exit-code matrix: how each kind of stdout and stderr is given to the program
STDOUTS = {"writable": "", "full": ">/dev/full", "closed": ">&-", "ascii": ""}
STDERRS = {"writable": "", "full": "2>/dev/full", "closed": "2>&-"}
MESSAGES = {0: "", 1: "validation failure", 2: "parse error: ", 3: "internal error: "}


@pytest.mark.parametrize("stderr", STDERRS)
@pytest.mark.parametrize("stdout", STDOUTS)
@pytest.mark.parametrize("outcome", [0, 1, 2, 3])
def test_exit_code_matrix(tmp_path, outcome, stdout, stderr):
    """Each outcome gives its documented exit code with any stdout and stderr, and no traceback.

    The outcomes: ``eff`` on p2_E with its point ``0`` called ``é`` (0), ``chow`` on
    an invalid divisor (1), ``validate`` on malformed JSON (2) and a planted fault
    (3).  Output that stdout cannot take (full, closed, or ASCII-only for the label
    ``é``) is an output failure, exit 2.  A full or closed stderr loses the message
    and keeps the code.
    """
    redirects = f"{STDOUTS[stdout]} {STDERRS[stderr]}"
    if "/dev/full" in redirects and not os.path.exists("/dev/full"):
        pytest.skip("needs /dev/full")
    inputs = program_inputs(tmp_path)
    args = {
        0: ["-m", "tchow.cli", "eff", "--k", "1", relabeled_p2_E(tmp_path, "é")],
        1: ["-m", "tchow.cli", "chow", inputs["broken"]],
        2: ["-m", "tchow.cli", "validate", inputs["malformed"]],
        3: ["-c", INTERNAL_FAULT],
    }[outcome]
    env = CHILD_ENV | ({"PYTHONIOENCODING": "ascii"} if stdout == "ascii" else {})
    argv = ["sh", "-c", f'exec "$0" "$@" {redirects}', sys.executable, *args]
    proc = subprocess.run(argv, capture_output=True, env=env)
    out, err = proc.stdout.decode("utf-8"), proc.stderr.decode("utf-8")
    code = 2 if outcome == 0 and stdout != "writable" else outcome
    assert proc.returncode == code, (proc.returncode, err)
    assert "Traceback" not in out + err
    if stderr == "writable":
        assert err.startswith(MESSAGES[code]) and bool(err) == bool(code), err
        if code != outcome:
            assert err.startswith("parse error: cannot write stdout: ")
    assert ("V[é; verts" in out) == (code == 0), out

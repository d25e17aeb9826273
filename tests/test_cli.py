import json
import os
import re
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

import tchow
from tchow import cli
from tchow.build import FIXTURE_NAMES, fixture
from tchow.cli import divisor_document, main, parse_input
from tchow.fansy import validate

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
    "k with no value": ["chow", "--k"],
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

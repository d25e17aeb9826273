import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tchow
from tchow import cli
from tchow.build import fixture
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


def test_cli_import_loads_no_heavy_module():
    # every tchow call pays for its imports; dataclasses alone pulls in
    # inspect, ast, dis and tokenize, tens of milliseconds per process.
    # Without site (-S), whose .pth hooks may load typing anyway, the
    # package must not load typing either.
    heavy = "{'dataclasses', 'inspect', 'ast', 'dis', 'tokenize'}"
    for flags, modules in (((), heavy), (("-S",), heavy + " | {'typing'}")):
        code = f"import sys, tchow.cli; print(sorted(({modules}) & set(sys.modules)))"
        proc = subprocess.run(
            [sys.executable, *flags, "-c", code], capture_output=True, text=True, env=CHILD_ENV
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n", flags


def test_document_round_trip():
    for name in ("gr24", "p1p1_bundle", "p2_E"):
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
    "rank5_explicit": (
        "validate",
        {
            "rank": 5,
            "points": ["0"],
            "complexes": {"0": [{"vertices": [["0"] * 5], "rays": RANK5_SIMPLEX}]},
            "marked": [],
        },
    ),
}


@pytest.mark.parametrize("name", sorted(BAD_DOCUMENTS))
def test_bad_document_is_parse_error(tmp_path, capsys, name):
    command, doc = BAD_DOCUMENTS[name]
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    assert main([command, str(path)]) == 2
    assert capsys.readouterr().err.startswith("parse error:")


def test_unreadable_file_is_parse_error(tmp_path, capsys):
    assert main(["chow", str(tmp_path / "missing.json")]) == 2
    assert capsys.readouterr().err.startswith("parse error: cannot read")


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

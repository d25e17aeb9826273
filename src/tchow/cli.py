"""Command-line surface: JSON input/output and human-readable tables.

Commands
--------
``validate``   check a marked fansy divisor against every defining condition
``chow``       k-cycle class group presentations (one k or all)
``eff``        effective-cone generator classes for one k
``counts``     generator counts (r, v, t) for every k
``oracle``     toric presentation of a complete fan (the independent check)
``fixture``    emit a named worked example as an input document
``crosscheck`` downgrade pipeline vs toric oracle for every k

Inputs are JSON documents with exact rational coordinates: integers, or
strings like ``"-3/2"``.  Floating point is never read or written.  Every
rank (of a fan or of an explicit document) is at most ``MAX_RANK`` = 4.  Exit
codes: 0 success, 1 validation failure or crosscheck mismatch, 2 parse error
(malformed or out-of-range input), 3 internal error (a fault in this program).
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .build import (
    FIXTURE_NAMES,
    DowngradeInput,
    KlyachkoBundle,
    RayFiltration,
    bundle_rank2,
    downgrade,
    fixture,
)
from .chow import presentation, toric_chow_presentation
from .effcone import eff_generators
from .fansy import (
    MarkedFansyDivisor,
    enumerate_generators,
    make_divisor,
    validate,
)
from .polyhedra import Fan, GeometryError, make_complex, make_cone, make_fan, make_polyhedron

SCHEMA_VERSION = 1
# Larger ranks are refused until a benchmark shows them finishing in bounded
# time.
MAX_RANK = 4


class ParseError(ValueError):
    pass


# ---------------------------------------------------------------------------
# exact JSON coordinates


def _rat(value) -> Fraction:
    if isinstance(value, bool) or isinstance(value, float):
        raise ParseError(f"coordinates must be integers or 'a/b' strings, got {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"bad rational {value!r}") from exc
    raise ParseError(f"bad rational {value!r}")


def _int(value) -> int:
    f = _rat(value)
    if f.denominator != 1:
        raise ParseError(f"expected an integer, got {value!r}")
    return int(f)


def _rank(value) -> int:
    rank = _int(value)
    if not 0 <= rank <= MAX_RANK:
        raise ParseError(f"rank must lie in [0, {MAX_RANK}], got {value!r}")
    return rank


def _vector(value, rank: int, entry=_int) -> tuple:
    """A coordinate vector with exactly ``rank`` entries read by ``entry``."""
    if not isinstance(value, list) or len(value) != rank:
        raise ParseError(f"expected a vector of length {rank}, got {value!r}")
    return tuple(entry(c) for c in value)


_REQUIRED = object()


def _field(obj, key: str, what: str, default=_REQUIRED):
    """``obj[key]`` for a JSON object ``obj`` called ``what`` in messages."""
    if not isinstance(obj, dict):
        raise ParseError(f"{what} must be a JSON object, got {obj!r}")
    if key in obj:
        return obj[key]
    if default is _REQUIRED:
        raise ParseError(f"{what} needs {key!r}")
    return default


def _list(value, what: str) -> list:
    if not isinstance(value, list):
        raise ParseError(f"{what} must be a list, got {value!r}")
    return value


# ---------------------------------------------------------------------------
# documents


def _cone(value, rank: int):
    return make_cone([_vector(g, rank) for g in _list(value, "a cone")], rank)


def parse_fan(doc) -> Fan:
    rank = _rank(_field(doc, "rank", "a fan document"))
    cones = _list(_field(doc, "maximal_cones", "a fan document"), "maximal_cones")
    return make_fan([_cone(c, rank) for c in cones], rank)


def parse_input(doc) -> MarkedFansyDivisor:
    """Build a divisor from an explicit document or a constructor stanza."""
    if not isinstance(doc, dict):
        raise ParseError("input document must be a JSON object")
    if doc.get("schema_version", SCHEMA_VERSION) != SCHEMA_VERSION:
        raise ParseError(f"unsupported schema_version {doc.get('schema_version')!r}")
    stanzas = [key for key in ("downgrade", "bundle") if key in doc]
    explicit = "complexes" in doc
    if explicit + len(stanzas) != 1:
        raise ParseError(
            "exactly one of explicit data or a downgrade/bundle stanza is required"
        )
    if stanzas == ["downgrade"]:
        stanza = doc["downgrade"]
        fan = parse_fan(_field(stanza, "fan", "the downgrade stanza"))
        change = _field(stanza, "basis_change", "the downgrade stanza", None)
        if change is not None:
            rank = fan.ambient_rank
            if not isinstance(change, list) or len(change) != rank:
                raise ParseError(f"basis_change must be a {rank}x{rank} matrix")
            change = tuple(_vector(row, rank) for row in change)
        return downgrade(DowngradeInput(fan, change))
    if stanzas == ["bundle"]:
        stanza = doc["bundle"]
        fan = parse_fan(_field(stanza, "fan", "the bundle stanza"))
        filts = []
        for entry in _list(_field(stanza, "filtrations", "the bundle stanza"), "filtrations"):
            ray = _vector(_field(entry, "ray", "a filtration"), fan.ambient_rank)
            full_until = _int(_field(entry, "full_until", "a filtration"))
            line = _field(entry, "line", "a filtration", None)
            if line is not None and not isinstance(line, str):
                raise ParseError(f"a filtration line must be a point label, got {line!r}")
            line_until = (
                None if line is None else _int(_field(entry, "line_until", "a filtration"))
            )
            try:
                filts.append((ray, RayFiltration(full_until, line, line_until)))
            except ValueError as exc:
                raise ParseError(str(exc)) from exc
        return bundle_rank2(KlyachkoBundle(fan, tuple(filts)))
    what = "an explicit document"
    rank = _rank(_field(doc, "rank", what))
    points = [str(p) for p in _list(_field(doc, "points", what), "points")]
    if not points or len(set(points)) != len(points):
        raise ParseError(f"points must be a nonempty list of distinct labels, got {points!r}")
    complexes = _field(doc, "complexes", what)
    marked_doc = _list(_field(doc, "marked", what), "marked")
    labeled = []
    for p in points:
        cells = []
        for cell in _list(_field(complexes, p, "complexes"), f"the cells of point {p!r}"):
            verts = _list(_field(cell, "vertices", "a cell", []), "vertices")
            rays = _list(_field(cell, "rays", "a cell", []), "rays")
            cells.append(
                make_polyhedron(
                    [_vector(v, rank, _rat) for v in verts],
                    [_vector(r, rank) for r in rays],
                    rank,
                )
            )
        labeled.append((p, make_complex(cells, rank)))
    marked = [_cone(c, rank) for c in marked_doc]
    return make_divisor(rank, labeled, marked)


def divisor_document(x: MarkedFansyDivisor) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "rank": x.rank,
        "points": list(x.points),
        "complexes": {
            p: [
                {
                    "vertices": [[str(c) for c in v] for v in cell.vertices],
                    "rays": [list(g) for g in cell.tail.generators],
                }
                for cell in x.complex_at(p).maximal_cells
            ]
            for p in x.points
        },
        "marked": sorted(
            [list(g) for g in c.generators] for c in x.marked
        ),
    }


def _presentation_document(pres) -> dict:
    kinds = [g.kind for g in pres.generators]
    return {
        "k": pres.k,
        "counts": {
            "r": kinds.count("R"),
            "v": kinds.count("V"),
            "t": kinds.count("T"),
        },
        "generators": [g.label() for g in pres.generators],
        "relations": [list(r) for r in pres.relations],
        "smith": {"free_rank": pres.free_rank, "torsion": list(pres.torsion)},
    }


def _counts_entry(x, k) -> dict:
    r, v, t = enumerate_generators(x, k).counts
    return {"k": k, "r": r, "v": v, "t": t}


# ---------------------------------------------------------------------------
# command implementations


def _emit(args, doc: dict, text: str) -> None:
    payload = (
        json.dumps(doc, sort_keys=True, indent=2) + "\n" if args.json else text
    )
    if args.out:
        try:
            fh = open(args.out, "w", encoding="utf-8")
        except OSError as exc:
            raise ParseError(f"cannot write {args.out}: {exc.strerror}") from exc
        with fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)


def _read_json(path: str):
    try:
        data = sys.stdin.read() if path == "-" else open(path, encoding="utf-8").read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc.strerror}") from exc
    try:
        return json.loads(data)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc


def _load_divisor(path: str) -> MarkedFansyDivisor:
    return parse_input(_read_json(path))


def cmd_validate(args) -> int:
    x = _load_divisor(args.file)
    report = validate(x)
    doc = {
        "command": "validate",
        "valid": report.ok,
        "violations": [
            {"code": v.code, "message": v.message} for v in report.violations
        ],
    }
    _emit(args, doc, ("valid\n" if report.ok else f"{report}\n"))
    return 0 if report.ok else 1


def _require_valid(x: MarkedFansyDivisor) -> None:
    report = validate(x)
    if not report.ok:
        raise InvalidDivisor(str(report))


class InvalidDivisor(ValueError):
    pass


def _levels(k, top: int):
    """The cycle dimensions to compute: ``[k]``, or every one in ``[0, top]``.

    An explicit ``k`` outside ``[0, top]`` is a parse error, raised before any
    validation; the library would raise the same message as a ValueError.
    """
    if k is None:
        return range(top + 1)
    if not 0 <= k <= top:
        raise ParseError(f"k must lie in [0, {top}]")
    return [k]


def _smith_table(results: list[dict]) -> str:
    """The text table of ``chow`` and ``oracle``: one line per presentation."""
    lines = ["  k  generators  relations  free_rank  torsion"]
    for res in results:
        smith = res["smith"]
        lines.append(
            f"{res['k']:>3}  {len(res['generators']):>10}  "
            f"{len(res['relations']):>9}  {smith['free_rank']:>9}  "
            f"{smith['torsion'] or '-'}"
        )
    return "\n".join(lines) + "\n"


def cmd_chow(args) -> int:
    x = _load_divisor(args.file)
    ks = _levels(args.k, x.dim_x)
    _require_valid(x)
    results = [_presentation_document(presentation(x, k)) for k in ks]
    doc = {"command": "chow", "results": results}
    _emit(args, doc, _smith_table(results))
    return 0


def cmd_eff(args) -> int:
    x = _load_divisor(args.file)
    [k] = _levels(args.k, x.dim_x)
    _require_valid(x)
    report = eff_generators(x, k)
    doc = {
        "command": "eff",
        "k": k,
        "smith": {
            "free_rank": report.presentation.free_rank,
            "torsion": list(report.presentation.torsion),
        },
        "generators": [
            {"generator": g.label(), "class": list(cls)} for g, cls in report.entries
        ],
        "distinct_classes": [
            {"class": list(cls), "generators": [g.label() for g in gens]}
            for cls, gens in report.distinct_classes
        ],
    }
    lines = [f"effective {k}-cycle generators ({report.generator_count}):"]
    for cls, gens in report.distinct_classes:
        lines.append(f"  class {list(cls)}  <-  {', '.join(g.label() for g in gens)}")
    _emit(args, doc, "\n".join(lines) + "\n")
    return 0


def cmd_counts(args) -> int:
    x = _load_divisor(args.file)
    _require_valid(x)
    entries = [_counts_entry(x, k) for k in range(x.rank + 2)]
    doc = {"command": "counts", "results": entries}
    lines = ["  k    r    v    t  total"]
    for e in entries:
        lines.append(
            f"{e['k']:>3}  {e['r']:>3}  {e['v']:>3}  {e['t']:>3}  {e['r']+e['v']+e['t']:>5}"
        )
    _emit(args, doc, "\n".join(lines) + "\n")
    return 0


def cmd_oracle(args) -> int:
    fan = parse_fan(_read_json(args.fanfile))
    ks = _levels(args.k, fan.ambient_rank)
    results = [_presentation_document(toric_chow_presentation(fan, k)) for k in ks]
    doc = {"command": "oracle", "results": results}
    _emit(args, doc, _smith_table(results))
    return 0


def cmd_fixture(args) -> int:
    x = fixture(args.name)
    doc = divisor_document(x)
    _emit(args, doc, json.dumps(doc, sort_keys=True, indent=2) + "\n")
    return 0


def cmd_crosscheck(args) -> int:
    fan = parse_fan(_read_json(args.fanfile))
    x = downgrade(DowngradeInput(fan))
    _require_valid(x)
    results = []
    all_match = True
    for k in range(fan.ambient_rank + 1):
        mine = presentation(x, k)
        oracle = toric_chow_presentation(fan, k)
        match = mine.smith == oracle.smith
        all_match = all_match and match
        results.append(
            {
                "k": k,
                "pipeline": {"free_rank": mine.free_rank, "torsion": list(mine.torsion)},
                "oracle": {"free_rank": oracle.free_rank, "torsion": list(oracle.torsion)},
                "match": match,
            }
        )
    doc = {"command": "crosscheck", "match": all_match, "results": results}
    lines = ["  k  pipeline           oracle             match"]
    for res in results:
        p, o = res["pipeline"], res["oracle"]
        lines.append(
            f"{res['k']:>3}  rank {p['free_rank']} tors {p['torsion'] or '-'!s:<8}"
            f"  rank {o['free_rank']} tors {o['torsion'] or '-'!s:<8}  {res['match']}"
        )
    _emit(args, doc, "\n".join(lines) + "\n")
    return 0 if all_match else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tchow",
        description="Chow presentations of complete rational complexity-one torus varieties",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--json", action="store_true", help="emit the JSON document")
        p.add_argument("--out", help="write the output to this path")

    p = sub.add_parser("validate", help="validate an input document")
    p.add_argument("file", nargs="?", default="-")
    add_common(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("chow", help="class-group presentations")
    p.add_argument("file", nargs="?", default="-")
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--all", action="store_true", help="all k (the default)")
    add_common(p)
    p.set_defaults(func=cmd_chow)

    p = sub.add_parser("eff", help="effective-cone generator classes")
    p.add_argument("file", nargs="?", default="-")
    p.add_argument("--k", type=int, required=True)
    add_common(p)
    p.set_defaults(func=cmd_eff)

    p = sub.add_parser("counts", help="generator counts per k")
    p.add_argument("file", nargs="?", default="-")
    add_common(p)
    p.set_defaults(func=cmd_counts)

    p = sub.add_parser("oracle", help="toric presentation of a complete fan")
    p.add_argument("fanfile", nargs="?", default="-")
    p.add_argument("--k", type=int, default=None)
    add_common(p)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("fixture", help="emit a worked example as an input document")
    p.add_argument("name", choices=FIXTURE_NAMES)
    add_common(p)
    p.set_defaults(func=cmd_fixture)

    p = sub.add_parser("crosscheck", help="downgrade pipeline vs toric oracle")
    p.add_argument("fanfile", nargs="?", default="-")
    add_common(p)
    p.set_defaults(func=cmd_crosscheck)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except InvalidDivisor as exc:
        print(f"validation failure:\n{exc}", file=sys.stderr)
        return 1
    except GeometryError as exc:
        print(f"validation failure: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # a fault in this program, not in the input
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

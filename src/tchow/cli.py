"""usage: tchow COMMAND [FILE | NAME] [--json] [--out PATH] [--k N]

commands:
  validate    check a marked fansy divisor against every defining condition
  chow        k-cycle class group presentations (one k, or all)
  eff         effective-cone generator classes for one k (--k is required)
  counts      generator counts (r, v, t) for every k
  oracle      toric presentation of a complete fan (the independent check)
  fixture     emit a worked example (gr24, p1p1_bundle, p2_E, p2_F) as a document
  crosscheck  downgrade pipeline vs toric oracle for every k

FILE is a JSON document (a fan for oracle and crosscheck), stdin if "-" or
absent; --out=PATH and --k=N work too.  Coordinates are integers or strings
like "-3/2" (optional sign, digits, optional "/digits"), never floats,
decimal or exponent strings; ranks are at most MAX_RANK = 4.  Exit codes: 0
success, 1 validation failure or crosscheck mismatch, 2 usage or parse error
(malformed or out-of-range input, or a key the schema does not name), 3
internal error (a fault in this program).
"""

from __future__ import annotations

import json
import re
import sys
from types import SimpleNamespace

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
from .exactlin import ratio
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


def _shown(value) -> str:
    """``repr(value)`` for a message, cut to 80 characters with its full length named."""
    text = repr(value)
    if len(text) <= 80:
        return text
    return f"{text[:80]}... ({len(text)} characters)"


def _rat(value):
    """An exact coordinate: an ``int``, or a ``Fraction`` where it is not integral."""
    if isinstance(value, bool) or isinstance(value, float):
        raise ParseError(f"coordinates must be integers or 'a/b' strings, got {_shown(value)}")
    if isinstance(value, int):
        return int(value)
    match = re.fullmatch(r"([+-]?[0-9]+)(?:/([0-9]+))?", value) if isinstance(value, str) else None
    if match:
        try:
            return ratio(int(match[1]), int(match[2] or 1))
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"bad rational {_shown(value)}") from exc
    raise ParseError(f"bad rational {_shown(value)}")


def _int(value) -> int:
    if type(value) is int:  # a bool, a string or a float goes through _rat and its messages
        return value
    x = _rat(value)
    if type(x) is not int:
        raise ParseError(f"expected an integer, got {_shown(value)}")
    return x


def _rank(value) -> int:
    rank = _int(value)
    if not 0 <= rank <= MAX_RANK:
        raise ParseError(f"rank must lie in [0, {MAX_RANK}], got {_shown(value)}")
    return rank


def _vector(value, rank: int, entry=_int) -> tuple:
    """A coordinate vector with exactly ``rank`` entries read by ``entry``."""
    if not isinstance(value, list) or len(value) != rank:
        got = f"length {len(value)}: " if isinstance(value, list) else ""
        raise ParseError(f"expected a vector of length {rank}, got {got}{_shown(value)}")
    return tuple(entry(c) for c in value)


_REQUIRED = object()


def _object(value, what: str) -> dict:
    if not isinstance(value, dict):
        raise ParseError(f"{what} must be a JSON object, got {_shown(value)}")
    return value


def _field(obj, key: str, what: str, default=_REQUIRED):
    """``obj[key]`` for a JSON object ``obj`` called ``what`` in messages."""
    if key in _object(obj, what):
        return obj[key]
    if default is _REQUIRED:
        raise ParseError(f"{what} needs {_shown(key)}")
    return default


def _only(obj, keys, what: str) -> None:
    """Refuse a key of the JSON object ``obj`` that is not among ``keys``."""
    for key in _object(obj, what):
        if key not in keys:
            raise ParseError(f"{what} has unknown key {_shown(key)}")


def _list(value, what: str) -> list:
    if not isinstance(value, list):
        raise ParseError(f"{what} must be a list, got {_shown(value)}")
    return value


# ---------------------------------------------------------------------------
# documents


def _cone(value, rank: int):
    return make_cone([_vector(g, rank) for g in _list(value, "a cone")], rank)


def parse_fan(doc) -> Fan:
    _only(doc, ("rank", "maximal_cones"), "a fan document")
    rank = _rank(_field(doc, "rank", "a fan document"))
    cones = _list(_field(doc, "maximal_cones", "a fan document"), "maximal_cones")
    return make_fan([_cone(c, rank) for c in cones], rank)


def parse_input(doc) -> MarkedFansyDivisor:
    """Build a divisor from an explicit document or a constructor stanza."""
    if not isinstance(doc, dict):
        raise ParseError("input document must be a JSON object")
    version = doc.get("schema_version", SCHEMA_VERSION)
    if type(version) is not int or version != SCHEMA_VERSION:  # True and 1.0 equal 1
        raise ParseError(f"unsupported schema_version {_shown(version)}")
    stanzas = [key for key in ("downgrade", "bundle") if key in doc]
    explicit = "complexes" in doc
    if explicit + len(stanzas) != 1:
        raise ParseError(
            "exactly one of explicit data or a downgrade/bundle stanza is required"
        )
    keys = stanzas or ["rank", "points", "complexes", "marked"]
    _only(doc, ("schema_version", *keys), "the document")
    if stanzas == ["downgrade"]:
        stanza = doc["downgrade"]
        _only(stanza, ("fan", "basis_change"), "the downgrade stanza")
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
        _only(stanza, ("fan", "filtrations"), "the bundle stanza")
        fan = parse_fan(_field(stanza, "fan", "the bundle stanza"))
        filts = []
        for entry in _list(_field(stanza, "filtrations", "the bundle stanza"), "filtrations"):
            _only(entry, ("ray", "full_until", "line", "line_until"), "a filtration")
            ray = _vector(_field(entry, "ray", "a filtration"), fan.ambient_rank)
            full_until = _int(_field(entry, "full_until", "a filtration"))
            line = _field(entry, "line", "a filtration", None)
            if line is not None and not isinstance(line, str):
                raise ParseError(f"a filtration line must be a point label, got {_shown(line)}")
            line_until = entry.get("line_until")
            if line is not None or line_until is not None:  # RayFiltration refuses one alone
                line_until = _int(_field(entry, "line_until", "a filtration"))
            try:
                filts.append((ray, RayFiltration(full_until, line, line_until)))
            except ValueError as exc:
                raise ParseError(str(exc)) from exc
        return bundle_rank2(KlyachkoBundle(fan, tuple(filts)))
    what = "an explicit document"
    rank = _rank(_field(doc, "rank", what))
    points = [str(p) for p in _list(_field(doc, "points", what), "points")]
    if not points or len(set(points)) != len(points):
        raise ParseError(f"points must be a nonempty list of distinct labels, got {_shown(points)}")
    complexes = _field(doc, "complexes", what)
    _only(complexes, set(points), "complexes (keyed by points)")
    marked_doc = _list(_field(doc, "marked", what), "marked")
    labeled = []
    for p in points:
        cells = []
        for cell in _list(_field(complexes, p, "complexes"), f"the cells of point {_shown(p)}"):
            _only(cell, ("vertices", "rays"), "a cell")
            verts = _list(_field(cell, "vertices", "a cell", []), "vertices")
            if not verts:
                raise ParseError("a cell needs at least one vertex")
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


# ---------------------------------------------------------------------------
# command implementations


def _emit(args, doc: dict, text: str | None = None) -> None:
    if args.json or text is None:
        text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    if args.out:
        try:
            fh = open(args.out, "w", encoding="utf-8")
        except OSError as exc:
            raise ParseError(f"cannot write {args.out}: {exc.strerror}") from exc
        with fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _read_json(path: str):
    try:
        data = sys.stdin.read() if path == "-" else open(path, encoding="utf-8").read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"cannot read {path}: not UTF-8 text") from exc
    try:
        return json.loads(data)
    except ValueError as exc:  # a JSONDecodeError, or an integer literal too long to convert
        raise ParseError(f"invalid JSON: {exc}") from exc
    except RecursionError as exc:
        raise ParseError("invalid JSON: nested too deeply") from exc


def cmd_validate(args) -> int:
    x = parse_input(_read_json(args.file))
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
    x = parse_input(_read_json(args.file))
    ks = _levels(args.k, x.dim_x)
    _require_valid(x)
    results = [_presentation_document(presentation(x, k)) for k in ks]
    doc = {"command": "chow", "results": results}
    _emit(args, doc, _smith_table(results))
    return 0


def cmd_eff(args) -> int:
    x = parse_input(_read_json(args.file))
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
    x = parse_input(_read_json(args.file))
    _require_valid(x)
    entries = []
    for k in range(x.rank + 2):
        r, v, t = enumerate_generators(x, k).counts
        entries.append({"k": k, "r": r, "v": v, "t": t})
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
    _emit(args, divisor_document(fixture(args.name)))
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


# command -> (handler, positional, --k: None refuses it, False allows it, True requires it)
COMMANDS = {
    "validate": (cmd_validate, "file", None),
    "chow": (cmd_chow, "file", False),
    "eff": (cmd_eff, "file", True),
    "counts": (cmd_counts, "file", None),
    "oracle": (cmd_oracle, "fanfile", False),
    "fixture": (cmd_fixture, "name", None),
    "crosscheck": (cmd_crosscheck, "fanfile", None),
}


class UsageError(ValueError):
    pass


def _parse_args(argv: list[str]):
    """``(handler, args)`` for a command line; a UsageError names what is wrong."""
    if not argv or argv[0] not in COMMANDS:
        raise UsageError(f"unknown command {_shown(argv[0])}" if argv else "missing command")
    handler, positional, k_mode = COMMANDS[argv[0]]
    opts = {"json": False, "out": None, "k": None, positional: None}
    tokens = iter(argv[1:])
    for token in tokens:
        flag, eq, value = token.partition("=")
        if token == "-" or not token.startswith("-"):
            if opts[positional] is not None:
                raise UsageError(f"unexpected second argument {_shown(token)}")
            opts[positional] = token
        elif token == "--json":
            opts["json"] = True
        elif flag == "--out" or (flag == "--k" and k_mode is not None):
            opts[flag[2:]] = value if eq else next(tokens, None)
            if opts[flag[2:]] is None:
                raise UsageError(f"{flag} needs a value")
        else:
            raise UsageError(f"unknown flag {_shown(token)}")
    if opts["k"] is not None:
        try:
            opts["k"] = int(opts["k"])
        except ValueError:
            raise UsageError(f"--k needs an integer, got {_shown(opts['k'])}") from None
    elif k_mode:
        raise UsageError("--k is required")
    if positional == "name" and opts["name"] not in FIXTURE_NAMES:
        raise UsageError(f"NAME must be one of {FIXTURE_NAMES}, got {_shown(opts['name'])}")
    if opts[positional] is None:
        opts[positional] = "-"
    return handler, SimpleNamespace(**opts)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if "-h" in argv or "--help" in argv:
        sys.stdout.write(__doc__)
        return 0
    try:
        handler, args = _parse_args(argv)
        return handler(args)
    except UsageError as exc:
        print(f"{__doc__.splitlines()[0]}\ntchow: error: {exc}", file=sys.stderr)
        return 2
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

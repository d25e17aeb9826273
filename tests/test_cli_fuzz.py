"""Fuzz the command line: mutated documents end in exit 0, 1 or 2, never 3.

Each example takes a worked-example document (an explicit divisor, a
``downgrade`` or ``bundle`` stanza, or a bare fan), nudges numbers and
labels, drops keys, retypes values or resizes lists at random places in it,
and runs ``cli.main`` on it in-process.  Bad input must be rejected as a parse error (2) or a validation
failure (1); an exit 3 is a fault in the program.  The run is derandomized,
so it is the same on every machine.
"""

import contextlib
import copy
import io
import json
import sys
from functools import lru_cache

from conftest import fan_document
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tchow.build import _p2_fan, fixture, p1p1_bundle, p2_projectivized_fan
from tchow.cli import divisor_document, main

JUNK = [None, True, False, 0, 1, -1, 3, 10**6, 2.5, "", "x", "1/2", "-3/2", "1/0", [], [0], [[1]], {}, {"x": 0}]


@lru_cache(maxsize=None)
def seeds() -> tuple:
    """``(command, document)`` pairs to mutate, as JSON text."""
    bundle = p1p1_bundle()
    bundle_doc = {
        "schema_version": 1,
        "bundle": {
            "fan": fan_document(bundle.base_fan),
            "filtrations": [
                {"ray": list(ray), "full_until": f.full_until}
                | ({} if f.line is None else {"line": f.line, "line_until": f.line_until})
                for ray, f in bundle.filtrations
            ],
        },
    }
    p2e_fan = fan_document(p2_projectivized_fan("E"))
    divisors = [
        divisor_document(fixture("p2_E")),
        {"schema_version": 1, "downgrade": {"fan": p2e_fan, "basis_change": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}},
        bundle_doc,
    ]
    pairs = [(command, doc) for doc in divisors for command in ("validate", "counts", "chow")]
    pairs += [("oracle", fan_document(_p2_fan())), ("oracle", p2e_fan)]
    return tuple((command, json.dumps(doc)) for command, doc in pairs)


def paths(node, prefix=()):
    """Every position in a JSON tree, as the keys leading to it."""
    yield prefix
    if isinstance(node, dict):
        for k, v in node.items():
            yield from paths(v, prefix + (k,))
    elif isinstance(node, list):
        for i, v in enumerate(node):
            yield from paths(v, prefix + (i,))


def mutate(data, doc):
    path = data.draw(st.sampled_from(list(paths(doc))))
    if not path:
        return copy.deepcopy(data.draw(st.sampled_from(JUNK)))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    key = path[-1]
    value = parent[key]
    action = data.draw(st.sampled_from(["nudge", "nudge", "nudge", "drop", "retype", "retype", "resize"]))
    if action == "nudge" and type(value) is int:
        parent[key] = value + data.draw(st.sampled_from([-2, -1, 1, 2]))
    elif action == "nudge" and isinstance(value, str):
        parent[key] = data.draw(st.sampled_from(["0", "1", "-1", "1/2", "-1/3", "inf", "aux1"]))
    elif action == "drop":
        del parent[key]
    elif action == "resize" and isinstance(value, list) and value:
        if data.draw(st.booleans()):
            value.pop(data.draw(st.integers(0, len(value) - 1)))
        else:
            value.append(copy.deepcopy(value[0]))
    else:
        parent[key] = copy.deepcopy(data.draw(st.sampled_from(JUNK)))
    return doc


def run(argv, stdin: str) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    real_stdin = sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        sys.stdin = real_stdin
    return code, err.getvalue()


@settings(max_examples=200, derandomize=True, deadline=None, suppress_health_check=list(HealthCheck))
@given(st.data())
def test_mutated_documents_never_exit_three(data):
    command, text = data.draw(st.sampled_from(seeds()))
    doc = json.loads(text)
    for _ in range(data.draw(st.integers(1, 3))):
        doc = mutate(data, doc)
    code, err = run([command, "-", "--json"], json.dumps(doc))
    assert code in (0, 1, 2), err
    assert "Traceback" not in err and "internal error" not in err

"""The library holds only what the pipeline, the CLI or the public API uses.

A function, class or method defined in ``src/tchow`` must be referenced by
some other line of ``src/tchow`` or be exported in ``tchow.__all__``.  Code
that only the tests use (oracles, identities, fixtures) belongs in
``tests/``.  The scan uses the stdlib ``ast`` module alone and matches by
name.  A function or class is referenced by any identifier or attribute with
its name; a method or property only by an attribute read (``x.name``), so a
local variable that happens to share its name does not count.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "tchow"


def definitions(tree):
    """``(qualified name, name, line, is member)`` of each top-level def, class and method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.name, node.lineno, False
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield f"{node.name}.{item.name}", item.name, item.lineno, True


def exported():
    tree = ast.parse((SRC / "__init__.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def unreferenced_definitions():
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    # (module, line, name, is attribute) of every identifier read in an expression
    used = set()
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add((module, node.lineno, node.id, False))
            elif isinstance(node, ast.Attribute):
                used.add((module, node.end_lineno, node.attr, True))
    public = exported()
    found = []
    for module, tree in trees.items():
        for qualified, name, line, member in definitions(tree):
            if name.startswith("__") and name.endswith("__"):
                continue
            if name in public:
                continue
            if not any(
                n == name and (m, ln) != (module, line) and (attr or not member)
                for m, ln, n, attr in used
            ):
                found.append(f"{module}:{line} {qualified}")
    return found


def test_every_definition_is_used_or_exported():
    found = unreferenced_definitions()
    assert not found, "referenced nowhere in src/tchow and not exported:\n" + "\n".join(found)


BENCH_SPANS = SRC.parent.parent / "bench" / "spans.py"


def span_boundaries() -> dict:
    """``BOUNDARIES`` of the benchmark's span tracer, read from its source: nothing is installed."""
    for node in ast.parse(BENCH_SPANS.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "BOUNDARIES" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no BOUNDARIES in {BENCH_SPANS}")


def test_every_benchmark_span_is_a_library_function():
    # the tracer looks each boundary up by name in its module, so a deleted or
    # renamed one fails the traced benchmark pass; this catches it in the tests
    boundaries = span_boundaries()
    missing = []
    for module, names in boundaries.items():
        tree = ast.parse((SRC / f"{module}.py").read_text())
        defined = {n.name for n in tree.body if isinstance(n, ast.FunctionDef)}
        missing += [f"{module}.{name}" for name in names if name not in defined]
    assert sum(map(len, boundaries.values())) > 20 and not missing, missing


# A table of one object is a ``lazy`` attribute of that object.  An
# ``lru_cache`` is an interning table (``canonical``, the cone table keyed by
# sorted rays and rank, the polyhedron table keyed by its cone), an input memo
# (work done before the object exists) or a table with a second argument.
MEMOS = {
    "value.canonical",
    "polyhedra._interned_cone",
    "polyhedra.from_homogenized",
    "cli._fan_of",
    "polyhedra._make_cone",
    "polyhedra._make_fan",
    "build.downgrade",
    "build.bundle_rank2",
    "fansy.s_sigma",
    "fansy.enumerate_generators",
    "chow.presentation",
    "effcone.eff_generators",
    "chow.toric_chow_presentation",
}


def memoized():
    """``module.function`` of each function in ``src/tchow`` decorated with a functools cache."""
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for d in node.decorator_list:
                    target = d.func if isinstance(d, ast.Call) else d
                    name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", "")
                    if name in ("lru_cache", "cache", "cached_property"):
                        yield f"{path.stem}.{node.name}"


def test_lru_caches_are_input_memos_or_two_argument_tables():
    found = list(memoized())
    assert len(found) == len(set(found)) and set(found) == MEMOS, sorted(found)


def test_no_module_reads_an_instance_dict():
    """Derived data goes on an object through ``object.__setattr__`` (``value.lazy``, ``value.keep``).

    Reading an instance's ``__dict__`` materializes it, and CPython then stops
    keeping that object's attributes inline, which slows every later read.
    """
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and node.attr == "__dict__"
    ]
    assert not found, "reads __dict__: " + ", ".join(found)


def test_every_traced_function_is_defined():
    """Each ``module.function`` in ``bench/spans.py``'s ``BOUNDARIES`` is a function of ``tchow.<module>``.

    The traced benchmark pass looks each one up by name; this finds a missing
    one without running it.
    """
    spans = ast.parse((SRC.parent.parent / "bench" / "spans.py").read_text())
    boundaries = next(
        ast.literal_eval(node.value)
        for node in spans.body
        if isinstance(node, ast.Assign) and any(getattr(t, "id", "") == "BOUNDARIES" for t in node.targets)
    )
    missing = []
    for module, names in boundaries.items():
        tree = ast.parse((SRC / f"{module}.py").read_text())
        defined = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
        missing += [f"{module}.{name}" for name in names if name not in defined]
    assert boundaries and not missing, missing

"""Per-function spans for the program, installed from outside.

``install()`` rebinds each boundary function below in every ``tchow.*``
namespace that imported it.  Spans are aggregated in memory per function
(calls, busy time of outermost activations, self time = span minus child
spans, and for a few functions the number of distinct arguments) and written
as one JSON document when the process ends.

Run the CLI traced, with ``src`` on ``PYTHONPATH``, as::

    python3 bench/spans.py OUT.json validate < doc.json

which behaves like ``python3 -m tchow.cli validate < doc.json``: the same
stdout bytes and exit code.
"""

from __future__ import annotations

import importlib
import json
import sys
import time

BOUNDARIES = {
    "cli": ("parse_input", "parse_fan"),
    "build": ("downgrade", "bundle_rank2", "fixture"),
    "fansy": ("validate", "enumerate_generators", "s_sigma", "mu_of_face"),
    "polyhedra": (
        "make_polyhedron",
        "poly_faces",
        "poly_intersect",
        "all_complex_faces",
        "fan_validate",
        "complex_validate",
    ),
    "chow": (
        "presentation",
        "relation_blocks",
        "relation_block_v",
        "relation_block_r",
        "relation_block_t",
        "toric_chow_presentation",
    ),
    "exactlin": ("hnf", "integer_kernel", "snf_transforms"),
    "effcone": ("eff_generators",),
}
NAMES = tuple(f"{mod}.{fn}" for mod, fns in BOUNDARIES.items() for fn in fns)
# functions whose repeated work shows as distinct arguments / calls < 1
DISTINCT = ("fansy.validate", "fansy.enumerate_generators", "polyhedra.poly_faces", "polyhedra.poly_intersect")


class Tracer:
    """Aggregated spans of the boundary functions in this process."""

    def __init__(self):
        # name -> [calls, busy_s, self_s, active depth]
        self.stats = {name: [0, 0.0, 0.0, 0] for name in NAMES}
        self.seen = {name: set() for name in DISTINCT}
        self._children = []  # child-span time accumulated per open span

    def wrap(self, name, fn):
        stat = self.stats[name]
        seen = self.seen.get(name)
        children = self._children
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if seen is not None:
                try:
                    seen.add(hash((args, tuple(sorted(kwargs.items())))))
                except TypeError:  # an unhashable argument is counted as new
                    seen.add(object())
            stat[3] += 1
            children.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span = clock() - start
                inner = children.pop()
                if children:
                    children[-1] += span
                stat[0] += 1
                stat[2] += span - inner
                stat[3] -= 1
                if not stat[3]:
                    stat[1] += span

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    def install(self):
        """Rebind every boundary function wherever a ``tchow`` module holds it."""
        importlib.import_module("tchow.cli")
        modules = [m for n, m in sys.modules.items() if n == "tchow" or n.startswith("tchow.")]
        for mod, fns in BOUNDARIES.items():
            home = sys.modules[f"tchow.{mod}"]
            for fn in fns:
                original = getattr(home, fn)
                wrapper = self.wrap(f"{mod}.{fn}", original)
                for m in modules:
                    if getattr(m, fn, None) is original:
                        setattr(m, fn, wrapper)

    def snapshot(self) -> dict:
        return {
            name: {
                "calls": calls,
                "busy_s": busy,
                "self_s": own,
                **({"distinct": len(self.seen[name])} if name in self.seen else {}),
            }
            for name, (calls, busy, own, _) in self.stats.items()
        }

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.snapshot(), fh)


def main(argv) -> int:
    out, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install()
    try:
        return sys.modules["tchow.cli"].main(cli_args)
    finally:
        tracer.write(out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

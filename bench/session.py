"""One long-lived library session: the ``library_session`` workload's child.

Reads a plan from stdin::

    {"items": [{"id": ..., "fixture": name} | {"id": ..., "doc": {...}}, ...],
     "fans": {item id: fan document}, "passes": P, "seed": s,
     "trace": path or null}

and runs P passes over the items in a seeded order, so every divisor is
revisited and the program's caches are warm after the first pass.  Each
operation is one public-API call (or, for ``crosscheck``, the calls the CLI
command makes).  Untraced, it takes two inline reference samples
(``reference.sample_inline``) before each item visit, to measure the machine's
speed.  Writes one JSON document to stdout with a record per operation and
the reference samples; the benchmark verifies the results in the parent.
"""

from __future__ import annotations

import hashlib
import json
import random
import resource
import sys
import time

from reference import sample_inline
from run import chow_sizes
from spans import Tracer


def smith(pres) -> list:
    return [pres.free_rank, list(pres.torsion)]


def main() -> int:
    plan = json.load(sys.stdin)
    tracer = None
    if plan["trace"]:
        tracer = Tracer()
        tracer.install()

    import tchow
    from tchow import cli

    def build(item):
        if "fixture" in item:
            return tchow.fixture(item["fixture"])
        return cli.parse_input(item["doc"])

    def chow(x):
        press = [tchow.presentation(x, k) for k in range(x.rank + 2)]
        # the bytes ``tchow chow --json`` prints, as cli.cmd_chow and cli._emit make them
        results = [cli._presentation_document(p) for p in press]
        doc = json.dumps({"command": "chow", "results": results}, sort_keys=True, indent=2) + "\n"
        return {
            "sha256": hashlib.sha256(doc.encode()).hexdigest(),
            "smith": [smith(p) for p in press],
            "sizes": chow_sizes(results),
        }

    def eff(x):
        return [smith(tchow.eff_generators(x, k).presentation) for k in range(x.rank + 2)]

    def oracle(fan_doc):
        fan = cli.parse_fan(fan_doc)
        return [smith(tchow.toric_chow_presentation(fan, k)) for k in range(fan.ambient_rank + 1)]

    # The public API has no crosscheck; these are the library calls that
    # cli.cmd_crosscheck makes, without its text output.
    def crosscheck(fan_doc):
        fan = cli.parse_fan(fan_doc)
        x = tchow.downgrade(tchow.DowngradeInput(fan))
        if not tchow.validate(x).ok:
            raise ValueError("downgrade failed validation")
        pipeline, toric = [], []
        for k in range(fan.ambient_rank + 1):
            pipeline.append(smith(tchow.presentation(x, k)))
            toric.append(smith(tchow.toric_chow_presentation(fan, k)))
        return {"match": pipeline == toric, "pipeline": pipeline, "oracle": toric}

    rng = random.Random(plan["seed"])
    items = plan["items"]
    records, ref = [], []
    clock = time.perf_counter
    start = clock()
    for _ in range(plan["passes"]):
        order = items[:]
        rng.shuffle(order)
        for item in order:
            if not plan["trace"]:
                ref += [sample_inline(), sample_inline()]
            ident = item["id"]
            fan_doc = plan["fans"].get(ident)
            state = {}
            ops = [
                ("build", lambda: state.__setitem__("x", build(item))),
                ("validate", lambda: tchow.validate(state["x"]).ok),
                ("chow", lambda: chow(state["x"])),
                ("eff", lambda: eff(state["x"])),
            ]
            if fan_doc is not None:
                ops += [("oracle", lambda: oracle(fan_doc)), ("crosscheck", lambda: crosscheck(fan_doc))]
            for name, call in ops:
                t = clock()
                try:
                    result, error = call(), None
                except Exception as exc:  # recorded as a failed operation
                    result, error = None, f"{type(exc).__name__}: {exc}"
                records.append({"item": ident, "op": name, "s": clock() - t, "result": result, "error": error})
                if error and name == "build":
                    break
    wall = clock() - start - sum(ref)
    if tracer is not None:
        tracer.write(plan["trace"])
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    json.dump({"records": records, "wall_s": wall, "ref": ref, "rss_mb": rss_mb}, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())

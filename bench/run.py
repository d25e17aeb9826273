"""The tchow benchmark: seeded workloads driven from outside the program.

Usage::

    python3 bench/run.py --workload cli_examples --seed 1 --seconds 30 --trace 0

Workloads (the ``why`` of each is in BENCHMARK.json and bench/README.md):

``cli_examples``     the four fixtures as explicit documents, the p2 fans and
                     two bundle stanzas, every command in a fresh process
``cli_downgrades``   rank-3 and rank-4 fans as ``downgrade`` stanzas and as
                     bare fans, every command in a fresh process
``library_session``  one long-lived process calling the public API, revisiting
                     every divisor

One client runs one operation at a time (closed loop).  A run executes a fixed
number of passes over the workload's operations, ``round(seconds / PASS_S)``
and at least one, so that every run of a workload takes the same samples and
the tail percentile is always the same one.  Every answer is checked (see
``verify_cli`` and ``verify_session``).  With ``--trace 0`` the last stdout
line holds the end-to-end metrics, every time scaled to the nominal machine
speed that the reference samples of ``reference.py`` measure; with
``--trace 1`` the run's work is done once untraced and once under
``bench/spans.py``, and the line holds the per-layer metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import inputs
import reference
import spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".bench_tmp"
EXPECTED = json.loads((BENCH / "data" / "expected.json").read_text())

SETUP_SAMPLES = 11
REFERENCE_SAMPLES = 40  # per CLI run
RUN_BUDGET_S = 170  # a child still running then is killed and its op fails
# one pass's share of a run's wall time, reference and set-up samples
# included, at the baseline on a 2-core x86-64 machine
PASS_S = {"cli_examples": 32.0, "cli_downgrades": 38.0, "library_session": 10.0}
COMMANDS = ("chow", "validate", "eff", "oracle", "crosscheck")
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "ops_per_s": "1/s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    **{f"{c}_gmean_s": "s" for c in COMMANDS},
    "peak_rss_mb": "MB",
}


def per_layer_units() -> dict:
    units = {}
    for name in spans.NAMES:
        units[f"{name}.calls"] = "count"
        units[f"{name}.busy_s"] = "s"
        units[f"{name}.self_s"] = "s"
    for name in spans.DISTINCT:
        units[f"{name}.distinct_ratio"] = "ratio"
    units.update(
        {
            "chow.generators": "count",
            "chow.relation_rows": "count",
            "chow.relation_max_bits": "bits",
            "trace.overhead_ratio": "ratio",
        }
    )
    return units


PER_LAYER = per_layer_units()


# Children may write bytecode, as an installed package has it: the untimed
# first set-up sample compiles it into src/tchow/__pycache__, so that no
# timed call pays for compiling.
CHILD_ENV = {**{k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}, "PYTHONPATH": str(SRC)}


# ---------------------------------------------------------------------------
# workload plans


@dataclass(frozen=True)
class Op:
    doc: str
    argv: tuple
    stdin: bytes = b""


@dataclass
class Plan:
    docs: dict = field(default_factory=dict)  # id -> input document
    ops: list = field(default_factory=list)
    partner: dict = field(default_factory=dict)  # fan id -> its downgrade's divisor id


def add_ops(plan: Plan, ident: str, doc: dict, commands) -> None:
    plan.docs[ident] = doc
    data = inputs.canonical(doc)
    plan.ops += [Op(ident, argv, data) for argv in commands]


def eff(ks) -> list:
    return [("eff", "--json", "--k", str(k)) for k in ks]


VALIDATE, CHOW, COUNTS = ("validate", "--json"), ("chow", "--json"), ("counts", "--json")
ORACLE, CROSSCHECK = ("oracle", "--json"), ("crosscheck", "--json")


def cli_examples(rng: random.Random, tiny: bool) -> Plan:
    """The fixtures as explicit documents, the p2 fans, and the corpus bundles.

    Fixture ``chow --json`` is checked against its recorded digest.  A
    bundle's ``validate`` and ``chow --json`` run twice and the p2 fans'
    commands four times, to be compared across repeats and so that every
    command has at least eight samples for a steady mean.
    """
    plan = Plan()
    for name in ("p2_E",) if tiny else inputs.FIXTURES:
        doc = inputs.fixture_document(name)
        plan.ops.append(Op(name, ("fixture", name)))
        add_ops(plan, name, doc, [VALIDATE, CHOW, *eff(range(doc["rank"] + 2)), COUNTS])
        if name.startswith("p2_"):
            add_ops(plan, f"{name}.fan", inputs.projectivized_p2_fan(name[-1]), [ORACLE, CROSSCHECK] * 4)
            plan.partner[f"{name}.fan"] = name
    for i, bundle in enumerate(inputs.corpus_bundles()[: 1 if tiny else None]):
        add_ops(plan, f"bundle_{i}", inputs.relabel_bundle(rng, bundle), [VALIDATE, VALIDATE, CHOW, CHOW, *eff(range(4)), COUNTS])
    return plan


def cli_downgrades(rng: random.Random, tiny: bool) -> Plan:
    """Four rank-3 corpus fans (two with torsion) and the recorded rank-4 fan.

    A rank-3 fan runs ``validate``, ``chow --json``, ``oracle`` and
    ``crosscheck`` twice, and ``eff`` at k = 1 and 2, to be compared across
    repeats and so that every command has at least eight samples for a
    steady mean.  The rank-4 fan is the one ``chow`` gets wrong
    (``inputs.r4_defect_fan``), which its ``oracle`` shows against the
    answers recorded in ``data/expected.json``.  To keep the pass near 30 s
    it runs only ``chow`` and ``oracle``, once each; its ``crosscheck``
    would only repeat that work and, the fan having torsion, exit 2 like the
    rank-3 torsion fans.
    """
    plan = Plan()
    fans = {f"r3_{i}": inputs.relabel_fan(rng, fan) for i, fan in enumerate(inputs.corpus_r3_fans((0,) if tiny else inputs.R3_PICKS))}
    if not tiny:
        fans["r4_defect"] = inputs.r4_defect_fan()
    for ident, fan in fans.items():
        rank3 = fan["rank"] == 3
        add_ops(plan, ident, inputs.downgrade_document(fan), [VALIDATE, VALIDATE, CHOW, CHOW, *eff([1, 2])] if rank3 else [CHOW])
        add_ops(plan, f"{ident}.fan", fan, [ORACLE, CROSSCHECK] * 2 if rank3 else [ORACLE])
        plan.partner[f"{ident}.fan"] = ident
    return plan


def library_session(rng: random.Random, tiny: bool) -> dict:
    """The fixtures, the corpus bundles and the rank-3 corpus fans as downgrades.

    Only the rank-3 fans run ``oracle`` and ``crosscheck``, so that those
    medians fall among items of one cost.
    """
    items, fans = [], {}
    for name in ("p2_E",) if tiny else inputs.FIXTURES:
        items.append({"id": name, "fixture": name})
    for i, bundle in enumerate(inputs.corpus_bundles()[: 1 if tiny else None]):
        items.append({"id": f"bundle_{i}", "doc": inputs.relabel_bundle(rng, bundle)})
    for i, fan in enumerate(inputs.corpus_r3_fans((0,) if tiny else inputs.R3_PICKS)):
        fan = inputs.relabel_fan(rng, fan)
        items.append({"id": f"r3_{i}", "doc": inputs.downgrade_document(fan)})
        fans[f"r3_{i}"] = fan
    return {"items": items, "fans": fans}


# ---------------------------------------------------------------------------
# running


@dataclass
class Record:
    """One operation: a CLI call, or a library call in the session."""

    doc: str
    argv: tuple
    seconds: float
    rc: int = 0
    out: bytes = b""
    err: bytes = b""
    failure: str | None = None
    known: bool = False  # the failure is one of the known defects below
    result: object = None  # the session's return value

    @property
    def command(self) -> str:
        return self.argv[0]


def run_process(argv, stdin: bytes, deadline: float):
    """(wall seconds, exit code, stdout, stderr) of one child, killed at ``deadline``."""
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            argv, input=stdin, capture_output=True, env=CHILD_ENV, cwd=ROOT,
            timeout=max(0.1, deadline - start),
        )
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped the child
        return time.perf_counter() - start, -9, exc.stdout or b"", b"killed at the run's time budget"
    return time.perf_counter() - start, proc.returncode, proc.stdout, proc.stderr


SETUP_ARGV = (sys.executable, "-c", "import tchow.cli")
REFERENCE_ARGV = (sys.executable, str(BENCH / "reference.py"))
SETUP, REFERENCE = "setup", "reference"  # schedule entries besides the ops


def setup_sample(deadline: float) -> float:
    """Wall time of a fresh interpreter importing the CLI module."""
    dt, rc, _, err = run_process(SETUP_ARGV, b"", deadline)
    if rc != 0:
        raise RuntimeError(f"cannot import tchow.cli: {err.decode(errors='replace').strip()}")
    return dt


def reference_sample(deadline: float) -> float:
    """Wall time of a fresh interpreter doing the fixed reference work (``reference.py``)."""
    dt, rc, _, err = run_process(REFERENCE_ARGV, b"", deadline)
    if rc != 0:
        raise RuntimeError(f"the reference work failed: {err.decode(errors='replace').strip()}")
    return dt


def run_cli(plan: Plan, passes: int, rng: random.Random, tmp: Path | None, deadline: float):
    """Run every op ``passes`` times in a seeded order; with ``tmp``, also traced per op.

    Untraced, the set-up samples are spread among the ops, so that they and
    each command's samples see the same drift in machine speed, and
    ``REFERENCE_SAMPLES`` reference samples are spaced evenly among them, to
    measure that drift.  Returns the records, the wall time of the ops, the
    set-up samples, the slowdown (see ``reference.py``), the tracing
    overhead and the span totals.
    """
    schedule = []
    for _ in range(passes):
        schedule += rng.sample(plan.ops, len(plan.ops))
    if tmp is None:
        for _ in range(SETUP_SAMPLES):
            schedule.insert(rng.randrange(len(schedule) + 1), SETUP)
        every = len(schedule) / REFERENCE_SAMPLES
        for j in reversed(range(REFERENCE_SAMPLES)):
            schedule.insert(int(j * every), REFERENCE)
    records, setup, totals, ref = [], [], [], []
    traced_s = untraced_s = 0.0
    start = time.perf_counter()
    for op in schedule:
        if op is SETUP:
            setup.append(setup_sample(deadline))
            continue
        if op is REFERENCE:
            ref.append(reference_sample(deadline))
            continue
        dt, rc, out, err = run_process([sys.executable, "-m", "tchow.cli", *op.argv], op.stdin, deadline)
        rec = Record(op.doc, op.argv, dt, rc, out, err)
        records.append(rec)
        if tmp is None:
            continue
        span_file = tmp / f"spans_{len(records)}.json"
        tdt, trc, tout, _ = run_process(
            [sys.executable, str(BENCH / "spans.py"), str(span_file), *op.argv], op.stdin, deadline
        )
        untraced_s += dt
        traced_s += tdt
        if (trc, tout) != (rc, out):
            rec.failure = "traced run changed the exit code or stdout"
        if span_file.exists():
            totals.append(json.loads(span_file.read_text()))
        else:
            rec.failure = rec.failure or "traced run wrote no spans"
    wall = time.perf_counter() - start - sum(setup) - sum(ref)
    slow = reference.slowdown(ref, "process") if ref else None
    overhead = traced_s / untraced_s if untraced_s else None
    return records, wall, setup, {"setup": slow, "ops": slow}, overhead, totals


def run_session(plan: dict, seed: int, passes: int, tmp: Path | None, deadline: float):
    """One session child between two halves of the set-up samples; with ``tmp``, a second traced one.

    Untraced, a process reference sample precedes every set-up sample, and
    the session takes inline ones between its item visits; each kind gives
    the slowdown of the times it matches.
    """

    def once(trace_path):
        payload = json.dumps({**plan, "passes": passes, "seed": seed, "trace": trace_path}).encode()
        _, rc, out, err = run_process([sys.executable, str(BENCH / "session.py")], payload, deadline)
        if rc != 0:
            raise RuntimeError(f"session exited {rc}: {err.decode(errors='replace')[-2000:]}")
        return json.loads(out)

    def answers(res):
        return [(r["item"], r["op"], r["result"], r["error"]) for r in res["records"]]

    def setup_samples(count):
        for _ in range(count):
            ref.append(reference_sample(deadline))
            setup.append(setup_sample(deadline))

    setup, ref = [], []
    if tmp is None:
        setup_samples(SETUP_SAMPLES // 2)
        result = once(None)
        setup_samples(SETUP_SAMPLES - len(setup))
        slow = {"setup": reference.slowdown(ref, "process"), "ops": reference.slowdown(result["ref"], "inline")}
        return result, setup, slow, None, []
    result = once(None)
    span_file = tmp / "spans_session.json"
    traced = once(str(span_file))
    if answers(traced) != answers(result):
        raise RuntimeError("the traced session returned different results")
    return result, [], None, traced["wall_s"] / result["wall_s"], [json.loads(span_file.read_text())]


# ---------------------------------------------------------------------------
# verification

GR24_SMITH = [[rank, []] for rank in (1, 1, 2, 1, 1)]

# Known program defects (ROADMAP item 1), matched exactly.  An operation that
# fails in one of these ways counts in ``failed`` and leaves ``correct`` true;
# every other failure, crash or wrong answer makes ``correct`` false.
#
# 1. ``crosscheck`` formats a non-empty torsion list with ``:<8`` (cli.py:360),
#    so on every fan with torsion it exits 2 with this message.
TORSION_CROSSCHECK = (2, "parse error: unsupported format string passed to list.__format__")
# 2. ``chow`` and ``oracle`` disagree on the recorded rank-4 fan: the Smith
#    data of both, per k, as ``data/expected.json`` records them.
KNOWN_WRONG = EXPECTED["known_wrong"]


def smith_list(results) -> list:
    return [[r["smith"]["free_rank"], r["smith"]["torsion"]] for r in results]


def last_line(err: bytes) -> str:
    lines = err.decode(errors="replace").strip().splitlines()
    return lines[-1] if lines else ""


def known_wrong(ident: str, pipeline, toric) -> bool:
    """Whether chow = ``pipeline`` against oracle = ``toric`` is defect 2."""
    known = KNOWN_WRONG.get(ident)
    return known is not None and [known["chow"], known["oracle"]] == [pipeline, toric]


def fail(rec: Record, why: str, known: bool = False) -> None:
    rec.failure, rec.known = ("known defect: " if known else "") + why, known


def verify_cli(plan: Plan, records) -> None:
    """Set each record's failure, and ``known`` when it is a known defect."""
    parsed, first = {}, {}
    for i, rec in enumerate(records):
        same = first.setdefault((rec.doc, rec.argv), rec)
        if rec.failure:
            continue
        if b"Traceback" in rec.err:
            fail(rec, "traceback")
        elif rec.rc != 0 and not (rec.rc == 1 and rec.command in ("validate", "crosscheck")):
            # exit 1 is how these two report an invalid input or a mismatch:
            # their JSON is judged below
            fail(rec, f"exit code {rec.rc}: {last_line(rec.err)[:200]}")
        elif (rec.rc, rec.out) != (same.rc, same.out):
            fail(rec, "stdout differs across repeats")
        elif rec.command != "fixture":
            try:
                parsed[i] = json.loads(rec.out)
            except ValueError:
                fail(rec, "stdout is not a JSON document")

    chow, oracle = {}, {}
    for i, rec in enumerate(records):
        if i not in parsed:
            continue
        if rec.command == "chow":
            chow.setdefault(rec.doc, parsed[i]["results"])
            expected = EXPECTED["chow"].get(rec.doc)
            if expected and hashlib.sha256(rec.out).hexdigest() != expected:
                fail(rec, "chow --json bytes differ from the recorded digest")
            elif rec.doc == "gr24" and smith_list(chow[rec.doc]) != GR24_SMITH:
                fail(rec, "gr24 class groups are not free of ranks (1,1,2,1,1)")
        elif rec.command == "oracle":
            oracle.setdefault(rec.doc, smith_list(parsed[i]["results"]))

    for i, rec in enumerate(records):
        if rec.command == "chow":
            continue
        ident = plan.partner.get(rec.doc, rec.doc)
        results = chow.get(ident)
        ref = None if results is None else smith_list(results)
        if rec.failure:
            # defect 1; it needs the chow result to show the fan has torsion
            if (
                rec.command == "crosscheck"
                and rec.failure.startswith("exit code")
                and (rec.rc, last_line(rec.err)) == TORSION_CROSSCHECK
                and ref is not None
                and any(torsion for _, torsion in ref)
            ):
                fail(rec, "crosscheck exits 2 on a fan with torsion", known=True)
            continue
        doc = parsed.get(i)
        if rec.command == "fixture":
            if rec.out != (inputs.DATA / f"{rec.doc}.json").read_bytes():
                fail(rec, "fixture document differs from the recorded one")
        elif rec.command == "validate":
            if doc["valid"] is not True or rec.rc != 0:
                fail(rec, "valid input reported invalid")
        elif ref is None:
            fail(rec, "no chow result to check against")
        elif rec.command == "eff":
            if [doc["smith"]["free_rank"], doc["smith"]["torsion"]] != ref[doc["k"]]:
                fail(rec, f"eff Smith data differ from chow at k={doc['k']}")
        elif rec.command == "counts":
            if doc["results"] != [dict(r["counts"], k=r["k"]) for r in results]:
                fail(rec, "counts differ from the chow generator counts")
        elif rec.command == "oracle":
            toric = smith_list(doc["results"])
            if toric != ref:
                fail(rec, "oracle Smith data differ from chow", known=known_wrong(ident, ref, toric))
        elif rec.command == "crosscheck":
            pipeline = [[r["pipeline"]["free_rank"], r["pipeline"]["torsion"]] for r in doc["results"]]
            toric = [[r["oracle"]["free_rank"], r["oracle"]["torsion"]] for r in doc["results"]]
            agrees = doc["match"] is True and rec.rc == 0 and pipeline == toric
            if not agrees or pipeline != ref or toric != oracle.get(rec.doc, toric):
                known = not agrees and pipeline == ref and known_wrong(ident, pipeline, toric)
                fail(rec, "crosscheck disagrees with chow or oracle", known=known)


def correct(records) -> bool:
    """No failure other than the known defects."""
    return all(r.known for r in records if r.failure)


def verify_session(result: dict) -> list:
    """The session's operations as records, checked like ``verify_cli``."""
    records = [Record(r["item"], (r["op"],), r["s"], failure=r["error"], result=r["result"]) for r in result["records"]]
    chow = {}
    for rec in records:
        if rec.command == "chow" and not rec.failure:
            chow.setdefault(rec.doc, rec.result)
    for rec in records:
        res, ref = rec.result, chow.get(rec.doc)
        if rec.failure or rec.command == "build":
            continue
        if rec.command == "validate":
            if res is not True:
                fail(rec, "valid input reported invalid")
        elif ref is None:
            fail(rec, "no chow result to check against")
        elif rec.command == "chow":
            expected = EXPECTED["chow"].get(rec.doc)
            if res["sha256"] != ref["sha256"]:
                fail(rec, "presentations differ across revisits")
            elif expected and res["sha256"] != expected:
                fail(rec, "presentations differ from the recorded chow --json digest")
            elif rec.doc == "gr24" and res["smith"] != GR24_SMITH:
                fail(rec, "gr24 class groups are not free of ranks (1,1,2,1,1)")
        elif rec.command == "eff" and res != ref["smith"]:
            fail(rec, "eff Smith data differ from chow")
        elif rec.command == "oracle" and res != ref["smith"]:
            fail(rec, "oracle Smith data differ from chow")
        elif rec.command == "crosscheck" and not (res["match"] and res["pipeline"] == ref["smith"]):
            fail(rec, "crosscheck disagrees with chow")
    return records


# ---------------------------------------------------------------------------
# metrics


def tail(values):
    """Highest percentile with at least ten samples beyond it: (value, percentile)."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def end_to_end(records, wall, setup, slow, peak_rss_mb, report) -> dict:
    """The metrics, every time at the nominal machine speed (see ``reference``)."""
    times = [r.seconds for r in records]
    by_command = defaultdict(list)
    for r in records:
        by_command[r.command].append(r.seconds)
    good = sum(1 for r in records if not r.failure)
    tail_value, pct = tail(times)
    report.append(f"op_tail_s is p{pct:.1f} of {len(times)} operations")
    # Per command the geometric mean, not the median: a command's samples come
    # from inputs of very different cost, and their median jumped between
    # inputs from run to run, while an arithmetic mean follows the one costly
    # input.  The medians are reported for reading only.
    report += [f"{c}_p50_s {statistics.median(by_command[c])} s" for c in COMMANDS]
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": wall,
        "ops_per_s": good / wall,
        "op_p50_s": statistics.median(times),
        "op_tail_s": tail_value,
        **{f"{c}_gmean_s": statistics.geometric_mean(by_command[c]) for c in COMMANDS},
        "peak_rss_mb": peak_rss_mb,
    }
    report.append(f"slowdown {slow['ops']:.4f}, of set-up {slow['setup']:.4f}; measured times:")
    report += [f"  {name} {metrics[name]} {unit}" for name, unit in END_TO_END.items() if unit in ("s", "1/s")]

    def nominal(name, unit):
        factor = slow["setup" if name == "setup_s" else "ops"]
        return metrics[name] * {"s": 1 / factor, "1/s": factor}.get(unit, 1)

    return {name: {"value": nominal(name, unit), "unit": unit} for name, unit in END_TO_END.items()}


def chow_sizes(results) -> dict:
    """Generators, relation rows and largest relation entry of one ``chow --json``."""
    rows = [r for res in results for r in res["relations"]]
    return {
        "chow.generators": sum(len(res["generators"]) for res in results),
        "chow.relation_rows": len(rows),
        "chow.relation_max_bits": max((abs(v).bit_length() for r in rows for v in r), default=0),
    }


def per_layer(totals, sizes, overhead) -> dict:
    """Span totals of every process, and the chow sizes of each divisor."""
    agg = {name: [0, 0.0, 0.0, 0] for name in spans.NAMES}
    for snapshot in totals:
        for name, s in snapshot.items():
            a = agg[name]
            a[0] += s["calls"]
            a[1] += s["busy_s"]
            a[2] += s["self_s"]
            a[3] += s.get("distinct", 0)
    metrics = {}
    for name, (calls, busy, own, distinct) in agg.items():
        metrics[f"{name}.calls"] = calls
        metrics[f"{name}.busy_s"] = busy
        metrics[f"{name}.self_s"] = own
        if name in spans.DISTINCT:
            # no calls means no repeated work
            metrics[f"{name}.distinct_ratio"] = distinct / calls if calls else 1.0
    for key in ("chow.generators", "chow.relation_rows"):
        metrics[key] = sum(s[key] for s in sizes)
    metrics["chow.relation_max_bits"] = max((s["chow.relation_max_bits"] for s in sizes), default=0)
    metrics["trace.overhead_ratio"] = overhead
    return {name: {"value": metrics[name], "unit": unit} for name, unit in PER_LAYER.items()}


# ---------------------------------------------------------------------------


WORKLOADS = {"cli_examples": cli_examples, "cli_downgrades": cli_downgrades, "library_session": library_session}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="a small plan for the self-tests")
    args = parser.parse_args(argv)
    if not (SRC / "tchow" / "cli.py").is_file():
        print(f"no tchow sources under {SRC}", file=sys.stderr)
        return 2

    deadline = time.perf_counter() + RUN_BUDGET_S
    rng = random.Random(args.seed)
    plan = WORKLOADS[args.workload](rng, args.tiny)
    passes = max(1, round(args.seconds / PASS_S[args.workload]))
    setup_sample(deadline)  # compiles the bytecode once, untimed
    SCRATCH.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=SCRATCH)) if args.trace else None
    report = [
        f"workload {args.workload} seed {args.seed} passes {passes}",
        f"inputs_sha256 {inputs.digest(plan.docs if isinstance(plan, Plan) else plan)}",
    ]
    try:
        if isinstance(plan, Plan):
            records, wall, setup, slow, overhead, totals = run_cli(plan, passes, rng, tmp, deadline)
            verify_cli(plan, records)
            first = {}
            for r in records:
                if r.command == "chow" and not r.failure:
                    first.setdefault(r.doc, chow_sizes(json.loads(r.out)["results"]))
            peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
        else:
            result, setup, slow, overhead, totals = run_session(plan, args.seed, passes, tmp, deadline)
            records = verify_session(result)
            wall, peak = result["wall_s"], result["rss_mb"]
            first = {}
            for r in records:
                if r.command == "chow" and not r.failure:
                    first.setdefault(r.doc, r.result["sizes"])
    finally:
        if tmp is not None:
            shutil.rmtree(tmp, ignore_errors=True)

    failed = [r for r in records if r.failure]
    report.append(f"fail_ratio {len(failed) / len(records):.4f} ({len(failed)}/{len(records)})")
    report += [f"failed: {r.command} {r.doc}: {r.failure}" for r in failed[:20]]
    if args.trace:
        metrics = per_layer(totals, list(first.values()), overhead)
    else:
        metrics = end_to_end(records, wall, setup, slow, peak, report)
    report += [f"{name} {m['value']} {m['unit']}" for name, m in metrics.items()]
    print("\n".join(report))
    result_line = {
        "correct": correct(records),
        "attempted": len(records),
        "failed": len(failed),
        "metrics": metrics,
    }
    print(json.dumps(result_line))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Self-tests of the benchmark; run from the repository root::

    python3 bench/selftest.py

1. Every workload at its tiny size prints every metric named in
   BENCHMARK.json, with its unit, untraced and traced.
2. A traced CLI call prints the same stdout bytes and exit code as an
   untraced one, for every command.
3. Without the program's sources the benchmark exits non-zero and prints no
   result.
4. The outside checks: a wrong answer reported with exit code 1 is a failure
   that makes ``correct`` false; of the crashes and wrong answers, only the
   exact signatures of the known defects leave ``correct`` true.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import inputs
import run

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
# a weighted projective plane: its class groups have torsion
TORSION_FAN = {"rank": 2, "maximal_cones": [[[1, 2], [1, -2]], [[1, 2], [-1, 0]], [[-1, 0], [1, -2]]]}


def last_json_line(argv, cwd=run.ROOT):
    proc = subprocess.run(argv, capture_output=True, cwd=cwd, timeout=170)
    assert proc.returncode == 0, proc.stderr.decode()
    return json.loads(proc.stdout.decode().strip().splitlines()[-1])


def test_metrics_named_with_units():
    for workload in SPEC["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result = last_json_line(
                [sys.executable, str(run.BENCH / "run.py"), "--workload", workload["name"],
                 "--seed", "3", "--seconds", "1", "--trace", str(trace), "--tiny"]
            )
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
            assert result["correct"] is True and result["attempted"] >= 1
            wanted = {m["name"]: m["unit"] for m in SPEC[key]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            assert got == wanted, (workload["name"], trace, set(got) ^ set(wanted))
            for name, m in result["metrics"].items():
                assert isinstance(m["value"], (int, float)), (name, m)
                if trace == 0:
                    assert m["value"] > 0, (workload["name"], name, m)
            print(f"ok metrics {workload['name']} trace={trace}")


def test_traced_stdout_identical():
    divisor = inputs.canonical(inputs.fixture_document("p2_E"))
    fan = inputs.canonical(inputs.projectivized_p2_fan("E"))
    calls = [
        (("fixture", "p2_E"), b""),
        (("validate", "--json"), divisor),
        (("chow",), divisor),
        (("chow", "--json"), divisor),
        (("eff", "--k", "1"), divisor),
        (("counts", "--json"), divisor),
        (("oracle", "--json"), fan),
        (("crosscheck", "--json"), fan),
        (("crosscheck",), inputs.canonical(TORSION_FAN)),
        (("chow",), b"{not json"),
    ]
    run.SCRATCH.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.SCRATCH) as tmp:
        for argv, stdin in calls:
            deadline = time.perf_counter() + 120
            plain = run.run_process([sys.executable, "-m", "tchow.cli", *argv], stdin, deadline)
            traced = run.run_process(
                [sys.executable, str(run.BENCH / "spans.py"), str(Path(tmp) / "s.json"), *argv], stdin, deadline
            )
            assert plain[1:] == traced[1:], (argv, plain[1:], traced[1:])
            spans = json.loads((Path(tmp) / "s.json").read_text())
            assert set(spans) == set(run.spans.NAMES)
            print(f"ok traced stdout {' '.join(argv)}")


def test_refuses_without_sources():
    run.SCRATCH.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.SCRATCH) as tmp:
        shutil.copy(run.ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(run.BENCH, Path(tmp) / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [*SPEC["command"], "--workload", SPEC["workloads"][0]["name"], "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            capture_output=True, cwd=tmp, timeout=170,
        )
        assert proc.returncode != 0 and b"correct" not in proc.stdout, proc
    print("ok refuses without sources")


def chow_output(*smith) -> bytes:
    results = [
        {"k": k, "counts": {"r": 0, "v": 0, "t": 0}, "generators": [], "relations": [],
         "smith": {"free_rank": rank, "torsion": torsion}}
        for k, (rank, torsion) in enumerate(smith)
    ]
    return json.dumps({"command": "chow", "results": results}).encode()


def crosscheck_output(pipeline, toric) -> bytes:
    results = [
        {"k": k, "pipeline": {"free_rank": p[0], "torsion": p[1]},
         "oracle": {"free_rank": o[0], "torsion": o[1]}, "match": p == o}
        for k, (p, o) in enumerate(zip(pipeline, toric))
    ]
    return json.dumps({"command": "crosscheck", "match": pipeline == toric, "results": results}).encode()


def judged(ident, chow_smith, argv, rc, out=b"", err=b"", failure=None):
    """(failure, correct) of one op on ``ident.fan`` or ``ident``, given its divisor's chow."""
    plan = run.Plan(partner={f"{ident}.fan": ident})
    doc = ident if argv[0] == "validate" else f"{ident}.fan"
    records = [run.Record(ident, run.CHOW, 1.0, 0, chow_output(*chow_smith)), run.Record(doc, argv, 1.0, rc, out, err, failure)]
    run.verify_cli(plan, records)
    assert records[0].failure is None, records[0].failure
    return records[1].failure, run.correct(records)


def test_outside_checks():
    free = [[1, []], [1, []]]
    torsion = [[1, []], [1, [2]]]
    # (op, None: no failure; True: a known defect; False: correct is false)
    cases = [
        # a mismatch that crosscheck reports with exit 1
        (("d", free, run.CROSSCHECK, 1, crosscheck_output(free, [[1, []], [2, []]])), False),
        # a valid input that validate reports invalid, with exit 1
        (("d", free, run.VALIDATE, 1, b'{"command": "validate", "valid": false, "violations": []}'), False),
        (("d", free, run.CROSSCHECK, 0, crosscheck_output(free, free)), None),
        # known defect 1, and crashes that only look like it
        (("d", torsion, run.CROSSCHECK, 2, b"", run.TORSION_CROSSCHECK[1].encode() + b"\n"), True),
        (("d", free, run.CROSSCHECK, 2, b"", run.TORSION_CROSSCHECK[1].encode() + b"\n"), False),
        (("d", torsion, run.CROSSCHECK, 2, b"", b"parse error: something else\n"), False),
        (("d", torsion, run.CROSSCHECK, 2, b"", run.TORSION_CROSSCHECK[1].encode(), "traced run changed the exit code or stdout"), False),
        (("d", torsion, run.CROSSCHECK, 1, b"", b"Traceback (most recent call last):\n"), False),
        (("d", torsion, run.ORACLE, -9, b"", b"killed"), False),
    ]
    # known defect 2, exactly as recorded, and any other wrong answer on that fan
    known = run.KNOWN_WRONG["r4_defect"]
    cases += [
        (("r4_defect", known["chow"], run.ORACLE, 0, chow_output(*known["oracle"])), True),
        (("r4_defect", known["chow"], run.CROSSCHECK, 1, crosscheck_output(known["chow"], known["oracle"])), True),
        (("r4_defect", known["chow"], run.ORACLE, 0, chow_output(*known["chow"][:-1], [2, []])), False),
    ]
    for args, want in cases:
        failure, correct = judged(*args)
        assert (failure is None) is (want is None), (args, failure)
        assert correct is (want is not False), (args, failure, correct)
    print("ok outside checks")


if __name__ == "__main__":
    test_outside_checks()
    test_traced_stdout_identical()
    test_refuses_without_sources()
    test_metrics_named_with_units()

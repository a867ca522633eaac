"""Self-test of the benchmark.

    python3 perfbench/selftest.py

1. Runs every workload at smoke size, untraced and traced, and checks that
   the last stdout line carries exactly the metrics BENCHMARK.json names,
   with their units, and that every output passed the gate.
2. Feeds the gate the reports of `run_all(provider=...)` with a corrupted
   family, and checks that it counts failures (failed_ratio above 0).
3. Checks that the gate fails an empty range, a nonzero exit code and an
   `oracle --diff` difference.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import gate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def expect(condition, detail):
    """A check that also holds under `python -O`."""
    if not condition:
        raise SystemExit(f"selftest FAILED: {detail}")


def check_workloads(bench):
    expected = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    for workload in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            argv = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                    "--seed", "7", "--seconds", "1", "--trace", str(trace), "--smoke"]
            proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=170)
            expect(proc.returncode == 0, (workload, trace, proc.stdout[-2000:], proc.stderr[-2000:]))
            result = json.loads(proc.stdout.splitlines()[-1])
            expect(set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys())
            expect(result["correct"] is True and result["failed"] == 0, result)
            expect(result["attempted"] >= 1, "no operations attempted")
            units = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(units == expected[trace], (
                workload, trace,
                sorted(set(units) ^ set(expected[trace])),
                {k: (units.get(k), u) for k, u in expected[trace].items() if units.get(k) != u},
            ))
            print(f"ok  {workload} trace={trace}: {len(units)} metrics, "
                  f"{result['attempted']} operations")


def check_corrupted_family():
    sys.path.insert(0, str(ROOT / "src"))
    from gramcalc.identities import GrammarFamilies, run_all
    from gramcalc.laurent import LaurentPoly

    class Corrupted(GrammarFamilies):
        def poly(self, name, n):
            poly = super().poly(name, n)
            if name == "deriv_Q" and n == 4:
                poly = poly + LaurentPoly.monomial(("x",), (2,), 1)
            return poly

    reports = run_all(max_n=8, oracle_max_n=5, provider=Corrupted())
    attempted, failed, problems = gate.gate_reports([r.to_json() for r in reports])
    expect(attempted == len(reports) and failed / attempted > 0, (attempted, failed))
    expect(any(p.startswith("deriv_recurrence:") for p in problems), problems)
    print(f"ok  corrupted deriv_Q: failed_ratio {failed}/{attempted}")


def check_gate_cases():
    empty = {"name": "peak_M", "range": [1, 0], "status": "pass"}
    expect(gate.gate_reports([empty])[1] == 1, "an empty range passed the gate")
    line = "pass peak_M [n=1..0] (0 ms)\n1/1 identities pass\n"
    expect(gate.gate_call(["check", "peak_M"], 0, line)[1] == 1, "an empty check range passed")
    expect(gate.gate_call(["family", "dumont", "--n", "3"], 2, "")[1] == 1, "exit code 2 passed")
    differ = "grammar: x\noracle:  y\nDIFFER\n"
    _, failed, problems = gate.gate_call(["oracle", "dumont", "--n", "3", "--diff"], 0, differ)
    expect(failed == 1 and "differ" in problems[0], problems)
    expect(
        gate.strip_timings("pass a [n=0..3] (12 ms)") == gate.strip_timings("pass a [n=0..3] (7 ms)"),
        "timings are not stripped before digesting",
    )
    print("ok  gate fails empty ranges, nonzero exits and oracle differences")


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_gate_cases()
    check_corrupted_family()
    check_workloads(bench)
    print("selftest passed")


if __name__ == "__main__":
    main()

"""gramcalc benchmark harness.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a checkout of the repository; gramcalc is imported from its `src/`.
Each workload pass runs in a fresh child process, one at a time (a closed
loop with one client).  Passes repeat until the next one would end after
`--seconds`.  Every output is checked (gate.py), and the last stdout line is
one JSON object: correct, attempted, failed and metrics.  With --trace 0 the
metrics are the end-to-end ones, with times divided by the square root of
the machine slowdown a gramcalc-free probe measures (see `Samples`); with
--trace 1 one untraced pass is followed by traced passes, and the metrics
are the per-layer ones.  The full record, with provenance and undivided
times, goes to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import threading
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import gate
import inputs
from spans import IDENTITY_SPAN, LAYERS, ORACLES
from workloads import ALL_IDENTITIES, PREDICTIONS, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKER = Path(__file__).resolve().parent / "worker.py"
PY = sys.executable
CLI_SHIM = "import sys; from gramcalc.cli import main; sys.exit(main(sys.argv[1:]))"
IMPORT_PROBE = "import gramcalc, time; print(time.perf_counter())"
# Fixed work in a fresh interpreter that runs no gramcalc code: stdlib
# imports, then building a dict of tuples.  See `slowdown`.
SPEED_PROBE = (
    "import argparse, json, fractions, dataclasses, typing, decimal, email.message, "
    "http.client, xml.dom.minidom, unittest\n"
    "d = {}\n"
    "for i in range(30000):\n"
    "    d[(i % 97, i % 89, i)] = (i, str(i))\n"
    "import time; print(time.perf_counter())"
)
SPEED_NOMINAL_S = 0.15
# Workloads slow down less than the probe does: over ten runs the fitted
# exponent of pass time on probe time was 0.77 for check_default and 0.48
# for check_deep.  One exponent between them serves every workload.
SLOWDOWN_EXPONENT = 0.5
SAMPLES_PER_PASS = 3
CHILD_TIMEOUT_S = 150
# p90 needs ten samples beyond it
MIN_LATENCIES = {"cli_queries": 100}

END_TO_END_UNITS = {
    "setup_s": "s",
    "verify_s": "s",
    "verify_cpu_s": "s",
    "query_ms_p50": "ms",
    "query_ms_p90": "ms",
    "queries_per_s": "1/s",
    "peak_rss_mb": "MiB",
}


@dataclass
class Child:
    rc: int
    out: str
    err: str
    seconds: float  # spawn to exit
    cpu_s: float
    rss_mb: float


@dataclass
class Pass:
    wall_s: float  # the workload's own time: in the worker, or the whole stream
    cpu_s: float
    total_s: float  # spawn of the first child to exit of the last
    latencies: list
    rss_mb: float
    outputs: list
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    import_s: list = field(default_factory=list)
    traces: list = field(default_factory=list)


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def spawn(argv, stdin: bytes = b"") -> Child:
    """Run one child to exit; its own rusage comes from wait4."""
    with tempfile.TemporaryFile(dir=OUT) as err_file:
        start = perf_counter()
        proc = subprocess.Popen(
            argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=err_file,
            cwd=ROOT, env=child_env(),
        )
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            proc.stdin.write(stdin)
            proc.stdin.close()
            out = proc.stdout.read()
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            killer.cancel()
            if proc.returncode is None:
                proc.kill()
                proc.wait()
        seconds = perf_counter() - start
        err_file.seek(0)
        err = err_file.read()
    return Child(
        proc.returncode, out.decode(), err.decode(errors="replace"), seconds,
        usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024,
    )


# -- passes -------------------------------------------------------------------


def _gate(p: Pass, calls, codes):
    for argv, code, out in zip(calls, codes, p.outputs):
        attempted, failed, problems = gate.gate_call(argv, code, out)
        p.attempted += attempted
        p.failed += failed
        p.problems += problems


def _broken_pass(calls, child: Child) -> Pass:
    p = Pass(child.seconds, child.cpu_s, child.seconds, [child.seconds], child.rss_mb,
             [""] * len(calls))
    p.attempted, p.failed = len(calls), len(calls)
    p.problems.append(f"worker exit {child.rc}: {child.err.strip()[-500:]}")
    return p


def worker_pass(workload, calls, trace: bool) -> Pass:
    """All calls in one fresh worker process."""
    job = {"calls": calls, "trace": trace, "src": str(SRC),
           "spans": str(OUT / f"spans-{workload}.bin")}
    child = spawn([PY, str(WORKER)], json.dumps(job).encode())
    if child.rc != 0:
        return _broken_pass(calls, child)
    result = json.loads(child.out.splitlines()[-1])
    runs = result["calls"]
    # one call per process: its latency is the user's, spawn to exit
    latencies = [child.seconds] if len(runs) == 1 else [r["s"] for r in runs]
    p = Pass(result["wall_s"], result["cpu_s"], child.seconds, latencies, child.rss_mb,
             [r["out"] for r in runs], import_s=[result["import_s"]],
             traces=[result["trace"]] if trace else [])
    _gate(p, calls, [r["rc"] for r in runs])
    return p


def process_per_call_pass(workload, calls, trace: bool) -> Pass:
    """Each call in its own fresh interpreter, one after another."""
    start = perf_counter()
    children, codes, outputs, import_s, traces = [], [], [], [], []
    broken = []
    for j, argv in enumerate(calls):
        if trace:
            job = {"calls": [argv], "trace": True, "src": str(SRC),
                   "spans": str(OUT / f"spans-{workload}-call{j}.bin")}
            child = spawn([PY, str(WORKER)], json.dumps(job).encode())
            if child.rc != 0:
                broken.append(f"worker exit {child.rc}: {child.err.strip()[-300:]}")
                codes.append(child.rc)
                outputs.append("")
            else:
                result = json.loads(child.out.splitlines()[-1])
                codes.append(result["calls"][0]["rc"])
                outputs.append(result["calls"][0]["out"])
                import_s.append(result["import_s"])
                traces.append(result["trace"])
        else:
            child = spawn([PY, "-c", CLI_SHIM] + argv)
            codes.append(child.rc)
            outputs.append(child.out)
        children.append(child)
    wall = perf_counter() - start
    p = Pass(wall, sum(c.cpu_s for c in children), wall, [c.seconds for c in children],
             max(c.rss_mb for c in children), outputs, import_s=import_s, traces=traces)
    _gate(p, calls, codes)
    p.problems += broken
    return p


def pass_runner(workload):
    return process_per_call_pass if workload == "cli_queries" else worker_pass


def run_passes(workload, calls, trace, seconds, smoke, samples=None):
    """Passes until the next would end after `seconds` (and, for
    cli_queries, until there are enough latency samples).  Given a
    `Samples`, setup and speed are sampled after every pass too, so that
    they span the run rather than one moment of it."""
    run_pass = pass_runner(workload)
    passes = []
    start = perf_counter()
    while True:
        passes.append(run_pass(workload, calls, trace))
        if samples is not None:
            samples.take()
        if smoke:
            return passes
        elapsed = perf_counter() - start
        per_pass = statistics.median(p.total_s for p in passes)
        latencies = sum(len(p.latencies) for p in passes)
        if elapsed + per_pass > seconds and latencies >= MIN_LATENCIES.get(workload, 1):
            return passes


# -- metrics ------------------------------------------------------------------


def probe_seconds(code):
    """Seconds from spawning a fresh interpreter running `code` to the
    perf_counter() it prints."""
    start = perf_counter()
    child = spawn([PY, "-c", code])
    if child.rc != 0:
        raise RuntimeError(f"probe failed: {child.err.strip()[-500:]}")
    return float(child.out) - start


@dataclass
class Samples:
    """Setup samples (spawn to `import gramcalc` done) and speed samples
    (SPEED_PROBE), taken in alternation.

    On a shared machine the same work can take half as long again from one
    minute to the next; pass times and probe times rise and fall together.
    `slowdown` is the median speed sample over SPEED_NOMINAL_S.  End-to-end
    times are divided by slowdown ** SLOWDOWN_EXPONENT, which takes most of
    that drift out of a comparison between commits.  SPEED_PROBE runs no
    gramcalc code, so a change to gramcalc cannot move it.  Undivided times
    stay in the record.
    """

    setup: list = field(default_factory=list)
    speed: list = field(default_factory=list)

    def take(self):
        for _ in range(SAMPLES_PER_PASS):
            self.setup.append(probe_seconds(IMPORT_PROBE))
            self.speed.append(probe_seconds(SPEED_PROBE))

    def slowdown(self):
        return statistics.median(self.speed) / SPEED_NOMINAL_S


def quantile(values, q):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(passes, samples: Samples, divisor: float):
    """End-to-end metrics, with every time divided by `divisor`."""
    latencies = [s / divisor for p in passes for s in p.latencies]
    setup = [s / divisor for s in samples.setup]
    metrics = {
        "setup_s": statistics.median(setup),
        "verify_s": statistics.median(p.wall_s for p in passes) / divisor,
        "verify_cpu_s": statistics.median(p.cpu_s for p in passes) / divisor,
        "query_ms_p50": 1000 * quantile(latencies, 50),
        "query_ms_p90": 1000 * quantile(latencies, 90),
        "queries_per_s": len(latencies) * divisor / sum(p.total_s for p in passes),
        "peak_rss_mb": statistics.median(p.rss_mb for p in passes),
    }
    samples = {
        "setup_s": len(setup), "verify_s": len(passes), "verify_cpu_s": len(passes),
        "query_ms_p50": len(latencies), "query_ms_p90": len(latencies),
        "queries_per_s": len(latencies), "peak_rss_mb": len(passes),
    }
    return {k: (v, END_TO_END_UNITS[k], samples[k]) for k, v in metrics.items()}


CALLS, SELF_S, TOTAL_S = 0, 1, 2  # columns of the per-name span stats
# metric -> (span names it sums, column)
SPAN_METRICS = {
    "structures.oracle.calls": (ORACLES, CALLS),
    "structures.oracle.self_s": (ORACLES, SELF_S),
    "structures.perm_stats.calls": (("structures.perm_stats",), CALLS),
    "structures.perm_stats.self_s": (("structures.perm_stats",), SELF_S),
    "laurent.mul.calls": (("laurent.LaurentPoly.__mul__",), CALLS),
    "laurent.mul.self_s": (("laurent.LaurentPoly.__mul__",), SELF_S),
    "laurent.add.calls": (("laurent.LaurentPoly.__add__",), CALLS),
    "laurent.add.self_s": (("laurent.LaurentPoly.__add__",), SELF_S),
    "laurent.substitute.self_s": (("laurent.LaurentPoly.substitute",), SELF_S),
    "laurent.exact_divide.self_s": (("laurent.LaurentPoly.exact_divide",), SELF_S),
    "laurent.evaluate.self_s": (("laurent.LaurentPoly.evaluate",), SELF_S),
    "laurent.substitute_rational.s": (("laurent.substitute_rational",), TOTAL_S),
    "grammar.derive.calls": (("grammar.Grammar.derive",), CALLS),
    "grammar.derive.self_s": (("grammar.Grammar.derive",), SELF_S),
    "grammar.verify_transformation.s": (("grammar.verify_transformation",), TOTAL_S),
    "families.family_poly.calls": (("families.family_poly",), CALLS),
    "families.family_poly.self_s": (("families.family_poly",), SELF_S),
    "series.closed_form.calls": (("series.closed_form_series",), CALLS),
    "series.closed_form.s": (("series.closed_form_series",), TOTAL_S),
    "series.mul.calls": (("series.TruncSeries.__mul__",), CALLS),
    "series.mul.self_s": (("series.TruncSeries.__mul__",), SELF_S),
    "series.div.self_s": (("series.TruncSeries.__truediv__", "series.divide_exact"), SELF_S),
    "cli.main.calls": (("cli.main",), CALLS),
    "cli.main.self_s": (("cli.main",), SELF_S),
}


def _merge(traces):
    """Sum the per-process trace summaries of one pass."""
    names, counters, tallies = {}, {}, {"family_poly_calls": 0, "family_poly_hits": 0, "derive_steps": 0}
    for t in traces:
        for name, row in t["names"].items():
            acc = names.setdefault(name, [0, 0.0, 0.0])
            for k in range(3):
                acc[k] += row[k]
        for key, value in t["counters"].items():
            counters[key] = counters.get(key, 0) + value
        for key in tallies:
            tallies[key] += t[key]
    return names, counters, tallies


def _pass_layer_metrics(p: Pass):
    names, counters, tallies = _merge(p.traces)
    out = {}
    for metric, (span_names, col) in SPAN_METRICS.items():
        out[metric] = sum(names.get(n, [0, 0.0, 0.0])[col] for n in span_names)
    gaussian = [row for n, row in names.items() if n.startswith("scalar.GaussianRational.")]
    out["scalar.gaussian_ops.calls"] = sum(r[CALLS] for r in gaussian)
    out["scalar.gaussian_ops.self_s"] = sum(r[SELF_S] for r in gaussian)
    out["laurent.mul.term_pairs"] = counters.get("laurent.mul.term_pairs", 0)
    out["laurent.new.calls"] = counters.get("laurent.new.calls", 0)
    out["structures.visited"] = counters.get("structures.visited", 0)
    out["families.derive_steps"] = tallies["derive_steps"]
    calls = tallies["family_poly_calls"]
    out["families.chain_hit_ratio"] = tallies["family_poly_hits"] / calls if calls else 0.0
    out["identities.run_identity.self_s"] = sum(
        row[SELF_S] for n, row in names.items() if n.startswith(IDENTITY_SPAN)
    )
    for name in ALL_IDENTITIES:
        out[f"identity.{name}.s"] = names.get(IDENTITY_SPAN + name, [0, 0.0, 0.0])[TOTAL_S]
    for layer in LAYERS:
        out[f"layer.{layer}.self_s"] = sum(
            row[SELF_S] for n, row in names.items() if n.startswith(layer + ".")
        )
    return out


def _unit(metric):
    if metric.endswith("_s") or metric.endswith(".s"):
        return "s"
    if metric.endswith("ratio"):
        return "ratio"
    return "count"


def per_layer(untraced: Pass, traced):
    rows = [_pass_layer_metrics(p) for p in traced]
    metrics = {
        k: (statistics.median_low if _unit(k) == "count" else statistics.median)(r[k] for r in rows)
        for k in rows[0]
    }
    metrics["cli.import_s"] = statistics.median([s for p in traced for s in p.import_s] or [0.0])
    metrics["trace.overhead_ratio"] = (
        statistics.median(p.wall_s for p in traced) / untraced.wall_s
    )
    samples = {k: len(traced) for k in metrics}
    samples["cli.import_s"] = sum(len(p.import_s) for p in traced)
    return {k: (v, _unit(k), samples[k]) for k, v in sorted(metrics.items())}


# -- provenance ---------------------------------------------------------------


def provenance():
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = proc.stdout.strip() or commit
    h, lines = hashlib.sha256(), 0
    for path in sorted(SRC.rglob("*.py")):
        data = path.read_bytes()
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "commit": commit,
        "src_sha256": h.hexdigest(),
        "src_py_lines": lines,
    }


# -- main ---------------------------------------------------------------------


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, one pass (self-test)")
    args = parser.parse_args(argv)

    if not (SRC / "gramcalc" / "cli.py").is_file():
        print(f"error: no gramcalc sources under {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    calls = inputs.build_calls(args.workload, args.seed, smoke=args.smoke)

    probe_seconds(IMPORT_PROBE)  # writes the bytecode caches
    samples = Samples()
    raw = {}
    if args.trace:
        untraced = pass_runner(args.workload)(args.workload, calls, False)
        traced = run_passes(args.workload, calls, True, args.seconds - untraced.total_s, args.smoke)
        passes = [untraced] + traced
        metrics = per_layer(untraced, traced)
    else:
        samples.take()
        passes = run_passes(args.workload, calls, False, args.seconds, args.smoke, samples)
        metrics = end_to_end(passes, samples, samples.slowdown() ** SLOWDOWN_EXPONENT)
        raw = {k: v for k, (v, _, _) in end_to_end(passes, samples, 1.0).items()}

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    digests = sorted({gate.digest(calls, p.outputs) for p in passes})
    problems = [msg for p in passes for msg in p.problems]
    if len(digests) > 1:
        problems.append(f"stdout differs between passes: {digests}")
    correct = failed == 0 and not problems

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload,
        "why": WORKLOADS[args.workload],
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "argv": calls,
        "slowdown": samples.slowdown() if samples.speed else None,
        "metrics_undivided": raw,
        "setup_samples_s": samples.setup,
        "speed_samples_s": samples.speed,
        "passes": [
            {"traced": bool(p.traces), "wall_s": p.wall_s, "cpu_s": p.cpu_s,
             "total_s": p.total_s, "rss_mb": p.rss_mb, "latencies_s": p.latencies}
            for p in passes
        ],
        "loop": "closed, one client, one child process at a time",
        "metrics": {k: {"value": v, "unit": u, "samples": n} for k, (v, u, n) in metrics.items()},
        "failed_ratio": {"value": failed / attempted, "failed": failed, "attempted": attempted},
        "stdout_sha256": digests[0] if len(digests) == 1 else digests,
        "problems": problems[:50],
        "provenance": provenance(),
        "predictions": PREDICTIONS,
    }
    (OUT / f"result-{tag}.json").write_text(json.dumps(record, indent=1) + "\n")

    print(f"# {args.workload} seed={args.seed} trace={args.trace}: {WORKLOADS[args.workload]}")
    for name, (value, unit, count) in metrics.items():
        print(f"{name:34s} {value:14.6f} {unit:5s} n={count}")
    print(f"{'failed_ratio':34s} {failed / attempted:14.6f} ratio {failed}/{attempted} operations")
    if samples.speed:
        print(f"times above are divided by slowdown ** {SLOWDOWN_EXPONENT}; "
              f"slowdown {record['slowdown']:.4f}")
    print(f"stdout_sha256 {record['stdout_sha256']}")
    for problem in problems[:20]:
        print(f"FAIL {problem}")
    print(f"record {OUT.name}/result-{tag}.json")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

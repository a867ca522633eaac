"""One workload pass in a fresh interpreter.

Reads a job from stdin as JSON: {"calls": [argv, ...], "trace": bool,
"spans": path or null, "src": path}.  Imports gramcalc.cli, optionally
installs the tracer, runs each argv through `gramcalc.cli.main` with stdout
captured, and prints one JSON result line to the real stdout.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import time


def run_call(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            # looked up on each call, so a traced wrapper is the one used
            code = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 2
    seconds = time.perf_counter() - start
    return {"rc": code, "out": out.getvalue(), "err": err.getvalue(), "s": seconds}


def main():
    job = json.load(sys.stdin)
    start = time.perf_counter()
    import gramcalc.cli as cli

    import_s = time.perf_counter() - start
    here = os.path.realpath(cli.__file__)
    if not here.startswith(os.path.realpath(job["src"]) + os.sep):
        print(f"gramcalc imported from {here}, not from {job['src']}", file=sys.stderr)
        return 2
    tracer = None
    if job["trace"]:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    wall0, cpu0 = time.perf_counter(), time.process_time()
    results = [run_call(cli, argv) for argv in job["calls"]]
    wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    payload = {"import_s": import_s, "wall_s": wall, "cpu_s": cpu, "calls": results}
    if tracer is not None:
        tracer.write(job["spans"])
        payload["trace"] = tracer.summary()
    sys.stdout.write(json.dumps(payload) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Correctness gate and output digest.

An operation is one CLI call or one identity report.  It fails when:
  - an identity report is not `pass`, or its range is empty (hi < lo);
  - the reports are not the ones asked for;
  - a CLI exit code is not 0, or its stdout does not have the expected shape;
  - `oracle --diff` reports a difference.
"""

from __future__ import annotations

import hashlib
import re

from workloads import ALL_IDENTITIES

_REPORT = re.compile(
    r"^(?P<status>\S+)\s+(?P<name>\S+) \[n=(?P<lo>-?\d+)\.\.(?P<hi>-?\d+)\] \(\d+ ms\)"
)
_SUMMARY = re.compile(r"^(\d+)/(\d+) identities pass$")
_TIMINGS = (
    (re.compile(r"\(\d+ ms\)"), "(- ms)"),
    (re.compile(r'"millis": \d+'), '"millis": -'),
)


def strip_timings(text: str) -> str:
    for pattern, replacement in _TIMINGS:
        text = pattern.sub(replacement, text)
    return text


def digest(calls, outputs) -> str:
    """sha256 over each call's argv and its stdout with timing fields removed."""
    h = hashlib.sha256()
    for argv, out in zip(calls, outputs):
        h.update(" ".join(argv).encode() + b"\n")
        h.update(strip_timings(out).encode() + b"\0")
    return h.hexdigest()


def parse_reports(stdout: str):
    """(records, summary) from `check` text output; records are dicts with
    name, range and status, like IdentityReport.to_json()."""
    records, summary = [], None
    for line in stdout.splitlines():
        match = _REPORT.match(line)
        if match:
            records.append(
                {
                    "name": match["name"],
                    "range": [int(match["lo"]), int(match["hi"])],
                    "status": match["status"],
                }
            )
            continue
        match = _SUMMARY.match(line)
        if match:
            summary = (int(match[1]), int(match[2]))
    return records, summary


def gate_reports(records):
    """(attempted, failed, problems) over identity reports."""
    problems = []
    for record in records:
        lo, hi = record["range"]
        if record["status"] != "pass":
            problems.append(f"{record['name']}: status {record['status']}")
        elif hi < lo:
            problems.append(f"{record['name']}: empty range [n={lo}..{hi}]")
    return len(records), len(problems), problems


def _shape_problem(argv, stdout: str):
    """Why this call's stdout is malformed, or None."""
    lines = stdout.splitlines()
    kind = argv[0]
    if kind == "check":
        records, summary = parse_reports(stdout)
        if summary != (sum(r["status"] == "pass" for r in records), len(records)):
            return f"summary line {summary} does not match {len(records)} reports"
        return None
    if kind == "oracle":
        if len(lines) != 3 or lines[2] != "equal":
            return "oracle and grammar differ" if "DIFFER" in lines else "bad oracle output"
        return None
    if kind == "series":
        order = int(argv[argv.index("--order") + 1])
        if [line.split(":", 1)[0] for line in lines] != [str(n) for n in range(order + 1)]:
            return f"series output is not coefficients 0..{order}"
        return None
    if kind == "trees":
        if len(lines) != 1 or not lines[0].isdigit():
            return "count is not a nonnegative integer"
        return None
    if kind == "label":
        if len(lines) != 1 or " | " not in lines[0]:
            return "bad labeling line"
        return None
    if kind == "family":
        if len(lines) != 1 or not lines[0]:
            return "bad family line"
        return None
    return f"unknown call kind {kind!r}"


def gate_call(argv, returncode, stdout: str):
    """(attempted, failed, problems) for one CLI call and any reports in it."""
    problems = []
    if returncode != 0:
        problems.append(f"exit code {returncode}")
    shape = _shape_problem(argv, stdout)
    if shape:
        problems.append(shape)
    records = []
    if argv[0] == "check":
        records, _ = parse_reports(stdout)
        names = tuple(r["name"] for r in records)
        expected = ALL_IDENTITIES if argv[1] == "all" else (argv[1],)
        if names != expected:
            problems.append(f"reports {names} where {expected} were asked for")
    attempted, failed = 1, int(bool(problems))
    n, bad, report_problems = gate_reports(records)
    attempted += n
    failed += bad
    problems += report_problems
    label = " ".join(argv[:2])
    return attempted, failed, [f"{label}: {p}" for p in problems]

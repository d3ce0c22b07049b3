"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload alice_bob --seed 1 --seconds 30 --trace 0

``--trace 0`` reports the end-to-end metrics with no tracing; ``--trace 1``
alternates untraced and traced iterations and reports per-layer metrics
plus the tracing overhead.  Human-readable lines come first; the last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  See ``perfbench/README.md``.

Every output goes to ``perfbench/_out/`` (ignored by git): a scratch
directory removed at exit, and the span dump of a traced run.
"""

from __future__ import annotations

import argparse
import compileall
import json
import resource
import shutil
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "_out"
REFERENCES = ROOT / "perfbench" / "references.json"
if __name__ == "__main__":
    # Run as a script, sys.path[0] is perfbench/; import it as a package instead.
    sys.path[0] = str(ROOT)

from perfbench import layers, spans  # noqa: E402
from perfbench.stats import percentile, quartiles  # noqa: E402
from perfbench.workloads import WORKLOADS, Outcome, Workload  # noqa: E402

#: Child processes that each time one set-up; ``setup_s`` is their median.
SETUP_RUNS = 3
#: Upper bound on one child process, in seconds.
CHILD_TIMEOUT = 120
#: End-to-end metrics of an untraced run, in report order.
END_TO_END = ("setup_s", "run_cal", "peak_rss_mb")
#: Steps of the calibration loop (about 25 ms of pure Python).
CALIBRATION_STEPS = 100_000


class Checker:
    """Compares each call's per-operation digests with the expected ones.

    The expected output is the reference recorded for (workload, seed)
    when there is one, else the first checked call's output.  A call
    whose whole digest differs counts every operation whose own digest
    differs from the expected call's; if the expected call is itself
    unknown (its digest missed the reference), all of them.
    """

    def __init__(self, reference: Optional[str]) -> None:
        self.reference = reference
        self.expected_parts: Optional[List[str]] = None
        self.attempted = 0
        self.failed = 0

    def add(self, outcome: Outcome) -> int:
        """Account one call's outcome; returns its failed-operation count."""
        if self.expected_parts is None and (
            self.reference is None or outcome.digest == self.reference
        ):
            self.expected_parts = list(outcome.parts)
        expected = self.expected_parts
        if expected is not None and outcome.parts == expected:
            bad = 0
        elif expected is not None and len(outcome.parts) == len(expected):
            bad = sum(1 for got, want in zip(outcome.parts, expected) if got != want)
        else:
            bad = len(outcome.parts)
        self.attempted += len(outcome.parts)
        self.failed += bad
        return bad

    def add_error(self, operations: int) -> None:
        """Account a call that raised: every operation it held failed."""
        self.attempted += operations
        self.failed += operations

    @property
    def operations(self) -> int:
        """Operations one call holds (1 until a call has been checked)."""
        return len(self.expected_parts) if self.expected_parts else 1

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def load_reference(workload: str, seed: int) -> Optional[str]:
    """The recorded output digest for (workload, seed), if any."""
    if not REFERENCES.is_file():
        return None
    table = json.loads(REFERENCES.read_text())
    return table.get(workload, {}).get(str(seed))


def child(args: argparse.Namespace, role: str, scratch: Path) -> Dict:
    """Run this script in a fresh interpreter for one role; returns its JSON line."""
    command = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(args.seed),
        "--role", role, "--scratch", str(scratch),
    ]
    done = subprocess.run(
        command, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT
    )
    if done.returncode != 0:
        raise RuntimeError(f"{role} child failed ({done.returncode}):\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def calibrate() -> float:
    """Seconds one fixed pure-Python loop takes: a 16-bit LFSR stepped in place.

    The loop is timed beside every steady-state iteration.  Other tenants
    of a shared machine slow it about as much as they slow the workload,
    so the ratio of the two times is far steadier than either one.
    """
    started = time.perf_counter()
    state = 0xACE1
    for _ in range(CALIBRATION_STEPS):
        bit = (state ^ (state >> 2) ^ (state >> 3) ^ (state >> 5)) & 1
        state = (state >> 1) | (bit << 15)
    return time.perf_counter() - started


def iterate(workload: Workload, tracer: Optional[spans.Tracer] = None):
    """One untimed start, the timed call, and the check: (seconds, outcome).

    With a tracer, the layer wrappers are in place for the timed call only.
    """
    workload.start()
    progress = layers.campaign_progress(tracer) if tracer else None
    installed = layers.install(tracer) if tracer else None
    try:
        started = time.perf_counter()
        value = workload.call(progress)
        seconds = time.perf_counter() - started
    finally:
        if installed:
            installed.uninstall()
    return seconds, workload.check(value)


def checked(workload: Workload, checker: Checker, tracer: Optional[spans.Tracer] = None):
    """:func:`iterate`, counting a raised error as failed operations.

    Returns ``(seconds, outcome)``, or ``None`` when the iteration raised.
    """
    try:
        seconds, outcome = iterate(workload, tracer)
    except Exception:
        traceback.print_exc()
        checker.add_error(checker.operations)
        return None
    checker.add(outcome)
    return seconds, outcome


def role_main(args: argparse.Namespace) -> int:
    """Child process: build the fixture, or time one set-up."""
    scratch = Path(args.scratch)
    workload = WORKLOADS[args.workload](args.seed, scratch)
    if args.role == "fixture":
        workload.bind()
        workload.prepare()
        print(json.dumps({"ok": True}))
        return 0
    # A private store copy per set-up child; the fixture stays shared.
    workload.scratch = Path(tempfile.mkdtemp(dir=scratch, prefix="setup-"))
    started = time.perf_counter()
    workload.bind()
    _, outcome = iterate(workload)
    setup_s = time.perf_counter() - started
    print(json.dumps({"setup_s": setup_s, "parts": outcome.parts}))
    return 0


def end_to_end(args, workload: Workload, checker: Checker, scratch: Path) -> Dict[str, float]:
    """Set-up children, then the untraced timed loop."""
    setups = []
    for _ in range(SETUP_RUNS):
        reply = child(args, "setup", scratch)
        setups.append(reply["setup_s"])
        checker.add(Outcome(reply["parts"], 0))
    workload.bind()
    _, first = iterate(workload)
    checker.add(first)

    seconds: List[float] = []
    ratios: List[float] = []
    outcomes: List[Outcome] = []
    deadline = time.perf_counter() + args.seconds
    attempts = 0
    before = calibrate()
    while attempts == 0 or time.perf_counter() < deadline:
        attempts += 1
        done = checked(workload, checker)
        after = calibrate()
        if done:
            seconds.append(done[0])
            ratios.append(2.0 * done[0] / (before + after))
            outcomes.append(done[1])
        before = after
    if not seconds:
        raise RuntimeError("every timed iteration raised")
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    q1, run_s, q3 = quartiles(seconds)
    packets = sum(o.packets for o in outcomes) / len(outcomes)
    setup_q1, setup_s, setup_q3 = quartiles(setups)
    print(f"workload {workload.name}  seed {args.seed}  closed loop, 1 client")
    print(f"setup_s        {setup_s:.4f} s      (median of {len(setups)} set-ups, "
          f"q1 {setup_q1:.4f}, q3 {setup_q3:.4f})")
    cal_q1, run_cal, cal_q3 = quartiles(ratios)
    print(f"run_cal        {run_cal:.4f} ratio  (q1 {cal_q1:.4f}, q3 {cal_q3:.4f}, n={len(ratios)})")
    print(f"run_s          {run_s:.4f} s      (q1 {q1:.4f}, q3 {q3:.4f}, n={len(seconds)})")
    print(f"packets_per_s  {packets / run_s:.1f} 1/s   ({packets:.0f} packets per iteration)")
    hits = [s for o in outcomes for s in o.hit_s]
    misses = [s for o in outcomes for s in o.miss_s]
    if hits or misses:
        jobs = sum(len(o.parts) for o in outcomes)
        print(f"jobs_per_s     {jobs / sum(seconds):.1f} 1/s")
        for label, sample in (("hit", hits), ("miss", misses)):
            for q in (50, 90):
                try:
                    value = f"{percentile(sample, q) * 1e3:.3f} ms"
                except ValueError:
                    value = "n/a"
                print(f"{f'{label}_p{q}_ms':<15}{value}  (n={len(sample)})")
    print(f"error_rate     {checker.error_rate:.4f} fraction ({checker.failed}/{checker.attempted})")
    print(f"peak_rss_mb    {peak_rss_mb:.1f} MB")
    metrics = {"setup_s": setup_s, "run_cal": run_cal, "peak_rss_mb": peak_rss_mb}
    return {name: metrics[name] for name in END_TO_END}


def traced(args, workload: Workload, checker: Checker) -> Dict[str, float]:
    """Alternate untraced and traced iterations; report per-layer figures."""
    workload.bind()
    _, first = iterate(workload)
    checker.add(first)

    tracer = spans.Tracer()
    plain: List[float] = []
    wrapped: List[float] = []
    deadline = time.perf_counter() + args.seconds
    attempts = 0
    while attempts < 2 or time.perf_counter() < deadline:
        traced_now = attempts % 2 == 1
        attempts += 1
        done = checked(workload, checker, tracer if traced_now else None)
        if done:
            (wrapped if traced_now else plain).append(done[0])
    if not (plain and wrapped):
        raise RuntimeError("every traced or every untraced iteration raised")

    wall = sum(wrapped)
    n = len(wrapped)
    totals = spans.self_times(tracer.spans)
    run_plain = quartiles(plain)[1]
    run_traced = quartiles(wrapped)[1]
    overhead = run_traced / run_plain

    print(f"workload {workload.name}  seed {args.seed}  traced iterations {n}, "
          f"untraced {len(plain)}")
    print(f"{'layer':<20}{'calls':>12}{'self_s':>12}{'share':>9}")
    metrics: Dict[str, float] = {}
    for layer in layers.LAYERS:
        entry = totals.get(layer, spans.LayerTotals())
        calls, self_s, share = entry.calls / n, entry.self_s / n, entry.self_s / wall
        print(f"{layer:<20}{calls:>12.0f}{self_s:>12.4f}{share:>9.3f}")
        metrics[f"{layer}.calls"] = calls
        metrics[f"{layer}.share"] = share
    outside = wall - spans.root_coverage(tracer.spans)
    print(f"{'(outside spans)':<20}{'':>12}{outside / n:>12.4f}{outside / wall:>9.3f}")
    shares = sum(metrics[f"{layer}.share"] for layer in layers.LAYERS)
    print(f"shares sum to {shares:.3f}; above 1 where spans of concurrent worker "
          "threads overlap in wall time")
    counters = layers.derived_counters(tracer.counters, n)
    for name, value in counters.items():
        print(f"  {name:<52}{value:.6g}")
    print(f"tracing overhead: traced run_s {run_traced:.4f} s / untraced run_s "
          f"{run_plain:.4f} s = {overhead:.3f}")
    print(f"error_rate {checker.error_rate:.4f} fraction ({checker.failed}/{checker.attempted})")
    dump = OUT / f"spans-{workload.name}-seed{args.seed}.json"
    tracer.write(dump, wall)
    print(f"spans: {len(tracer.spans)} written to {dump.relative_to(ROOT)}")

    metrics.update(counters)
    metrics["trace.overhead"] = overhead
    metrics["trace.run_s"] = run_traced
    return {name: metrics[name] for name in layers.metric_names()}


UNITS = {"setup_s": "s", "run_cal": "ratio", "peak_rss_mb": "MB",
         "trace.overhead": "ratio", "trace.run_s": "s"}


def unit_of(name: str) -> str:
    """Unit of a reported metric."""
    if name in UNITS:
        return UNITS[name]
    if name.endswith(("_ratio", ".share")):
        return "fraction"
    if name.endswith("_per_s"):
        return "1/s"
    return "count"


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="record the output digest of this seed in references.json")
    parser.add_argument("--role", choices=("fixture", "setup"), help=argparse.SUPPRESS)
    parser.add_argument("--scratch", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: library sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.role:
        return role_main(args)

    compileall.compile_dir(str(SRC), quiet=1)
    OUT.mkdir(parents=True, exist_ok=True)
    scratch = Path(tempfile.mkdtemp(dir=OUT, prefix="run-"))
    try:
        workload = WORKLOADS[args.workload](args.seed, scratch)
        if type(workload).prepare is not Workload.prepare:
            child(args, "fixture", scratch)
        if args.record:
            return record(args, workload)
        checker = Checker(load_reference(args.workload, args.seed))
        if args.trace:
            metrics = traced(args, workload, checker)
        else:
            metrics = end_to_end(args, workload, checker, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(json.dumps({
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)}
                    for name, value in metrics.items()},
    }))
    return 0


def record(args: argparse.Namespace, workload: Workload) -> int:
    """Store this seed's output digest as the reference for later runs."""
    workload.bind()
    _, outcome = iterate(workload)
    table = json.loads(REFERENCES.read_text()) if REFERENCES.is_file() else {}
    table.setdefault(args.workload, {})[str(args.seed)] = outcome.digest
    for name in table:
        table[name] = dict(sorted(table[name].items(), key=lambda item: int(item[0])))
    REFERENCES.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")
    print(f"{args.workload} seed {args.seed}: {outcome.digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

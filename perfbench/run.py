"""Benchmark of the ascseq command line, driven in process from one thread.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from `src/`.
The seed draws the map-objects inputs; the other two workloads are fixed
calls.  Each pass calls `ascseq.cli.main` once per job of the workload, times
every call, and then checks every output with the benchmark's own code (see
`jobs.py`).  Passes repeat while the next one is expected to end within
`--seconds` (at least one runs), and timings are medians over passes or over
calls.

--trace 0 prints the end-to-end metrics.  --trace 1 alternates plain and
traced passes and prints the per-layer metrics (see `spans.py`), including
the traced-to-plain wall time ratio.  The last line of stdout is the result
object; the line before it holds the provenance and the sample counts.

A failed operation is a call with an unexpected exit code or a wrong answer;
`correct` is false only when some call gave a wrong answer.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import inputs
import jobs
import spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 16
SETUP_BATCH = 4  # spread over the first passes, so one slow spell counts less
SETUP_CODE = ("from ascseq.cli import main; "
              "raise SystemExit(main(['stats', 'ascent', '0 1 0']))")
CHECK_ERRORS = (ValueError, KeyError, TypeError, IndexError)  # malformed output


@dataclass
class Pass:
    wall_s: float = 0.0
    latencies_s: list[float] = field(default_factory=list)
    failed: int = 0
    wrong: int = 0
    bytes_out: int = 0
    tracer: spans.Tracer | None = None


def run_pass(main, workload: list[jobs.Job], tracer: spans.Tracer | None = None) -> Pass:
    """Call the CLI once per job; check the outputs after the timed region."""
    result = Pass(tracer=tracer)
    outcomes = []
    start = perf_counter()
    with spans.installed(tracer) if tracer else contextlib.nullcontext():
        for job in workload:
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                t0 = perf_counter()
                try:
                    if tracer:
                        rc = tracer.timed(spans.CLI_SPAN, main, job.argv)
                    else:
                        rc = main(job.argv)
                except SystemExit as exc:  # argparse rejects its arguments
                    rc = exc.code
                result.latencies_s.append(perf_counter() - t0)
            outcomes.append((job, rc, out.getvalue()))
    result.wall_s = perf_counter() - start
    for job, rc, text in outcomes:
        result.bytes_out += len(text.encode())
        try:
            verdict = job.check(rc, text)
        except CHECK_ERRORS:
            verdict = "output"
        result.failed += verdict is not None
        result.wrong += verdict == "output"
    return result


def measure_setup(samples: int) -> list[float]:
    """Seconds for a fresh interpreter to import the CLI and make one call."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    cmd = [sys.executable, "-c", SETUP_CODE]
    times = []
    for _ in range(samples):
        t0 = perf_counter()
        # Capture stdout: with a pipe, run() returns at the child's exit,
        # while a bare timed wait() polls in steps of up to 50 ms.
        subprocess.run(cmd, cwd=ROOT, env=env, check=True, timeout=60,
                       capture_output=True)
        times.append(perf_counter() - t0)
    return times


def end_to_end(passes: list[Pass], setup: list[float]) -> tuple[dict, dict]:
    latencies = [t for p in passes for t in p.latencies_s]
    metrics = {
        "wall_s": (statistics.median(p.wall_s for p in passes), "s"),
        "op_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "op_p99_ms": (statistics.quantiles(latencies, n=100, method="inclusive")[98]
                      * 1e3, "ms"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
                        "MB"),  # ru_maxrss is in KiB on Linux
    }
    samples = {"wall_s": len(passes), "pass_wall_s": [p.wall_s for p in passes],
               "op_p50_ms": len(latencies), "op_p99_ms": len(latencies),
               "setup_s": len(setup), "peak_rss_mb": 1}
    return metrics, samples


def per_layer(plain: list[Pass], traced: list[Pass]) -> tuple[dict, dict]:
    def med(fn) -> float:
        return statistics.median(fn(p.tracer) for p in traced)

    def span(name: str) -> spans.Span:
        return traced[0].tracer.spans[name]

    def self_s(name: str):
        return (med(lambda t: t.spans[name].self_s), "s")

    objects = traced[0].tracer.objects
    stream_s = med(lambda t: t.spans["enumeration.stream"].self_s)
    metrics = {
        "cli.calls": (span("cli").calls, "count"),
        "cli.self_s": self_s("cli"),
        "cli.bytes_out": (traced[0].bytes_out, "bytes"),
        "core.parse.self_s": self_s("core.parse"),
        "core.validate.calls": (span("core.validate").calls, "count"),
        "core.validate.self_s": self_s("core.validate"),
        "core.format.self_s": self_s("core.format"),
        "patterns.domain_check.calls": (span("patterns.domain_check").calls, "count"),
        "patterns.domain_check.self_s": self_s("patterns.domain_check"),
        "patterns.domain_check.max_ms":
            (med(lambda t: t.spans["patterns.domain_check"].max_s) * 1e3, "ms"),
        "enumeration.stream.objects": (objects, "count"),
        "enumeration.stream.self_s": (stream_s, "s"),
        "enumeration.stream.us_per_object":
            (stream_s / objects * 1e6 if objects else 0.0, "us"),
        "enumeration.tally.self_s": self_s("enumeration.tally"),
        "enumeration.verify.self_s": self_s("enumeration.verify"),
        "stats.calls": (span("stats").calls, "count"),
        "stats.self_s": self_s("stats"),
        "bijection.forward.calls": (span("bijection.forward").calls, "count"),
        "bijection.forward.self_s": self_s("bijection.forward"),
        "bijection.inverse.calls": (span("bijection.inverse").calls, "count"),
        "bijection.inverse.self_s": self_s("bijection.inverse"),
        "trace.overhead_ratio":
            (statistics.median(p.wall_s for p in traced)
             / statistics.median(p.wall_s for p in plain), "ratio"),
    }
    samples = {"traced_passes": len(traced), "plain_passes": len(plain)}
    return metrics, samples


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(args, samples: dict) -> dict:
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
        "platform": platform.platform(), "git_commit": git_commit(),
        "samples": samples,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(jobs.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "ascseq" / "cli.py").is_file():
        print(f"error: no ascseq sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from ascseq import cli

    inputs.self_test()
    workload = jobs.WORKLOADS[args.workload](random.Random(args.seed))

    plain: list[Pass] = []
    traced: list[Pass] = []
    setup: list[float] = []
    start = perf_counter()
    while True:
        began = perf_counter()
        if not args.trace and len(setup) < SETUP_SAMPLES:
            setup += measure_setup(SETUP_BATCH)
        plain.append(run_pass(cli.main, workload))
        if args.trace:
            traced.append(run_pass(cli.main, workload, spans.Tracer()))
        now = perf_counter()
        if now - start + (now - began) > args.seconds:  # the next round would overrun
            break
    if args.trace:
        metrics, samples = per_layer(plain, traced)
    else:
        setup += measure_setup(SETUP_SAMPLES - len(setup))
        metrics, samples = end_to_end(plain, setup)

    done = plain + traced
    attempted = sum(len(p.latencies_s) for p in done)
    failed = sum(p.failed for p in done)
    samples["operations"] = attempted
    if args.trace:
        metrics["fail_ratio"] = (failed / attempted, "ratio")
    print(json.dumps({"provenance": provenance(args, samples),
                      "fail_ratio": failed / attempted}))
    print(json.dumps({
        "correct": not any(p.wrong for p in done),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

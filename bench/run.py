"""Benchmark for fanocalc: cold and warm end-to-end times, and per-layer traces.

Usage, from the root of a checkout:

    python3 bench/run.py --workload paper-suite --seed 1 --seconds 30 --trace 0

Workloads (see ``workloads.py``):

* ``paper-suite``: ``fanocalc run --all --format json``, the ten built-in
  scenarios.  Repeated inputs, so caches inside the engine pay off.
* ``grass-ladder``: ``tensor_chern`` of the tangent bundle on fixed
  Grassmannians up to Gr(3,7) and all basis-pair products on Gr(3,8) and
  Gr(4,8).  Only ``chern`` and ``schubert`` work.
* ``scenario-files``: ``fanocalc check`` on seeded generated files of about
  two thousand identity assertions.  Parsing and ``blowup`` dominate; the
  only workload that uses ``--seed``.

With ``--trace 0`` the run reports the end-to-end metrics.  Times are in
reference seconds: wall time scaled for the drift of a shared host's speed
(see ``clock.py``); the text lines give the wall-time medians beside them.

* ``setup_s``: median time of a fresh interpreter running
  ``import fanocalc``.
* ``cold_s``: median time of a child process that runs one pass
  (``cold.py``), interpreter start included.  One cold child runs first and
  is discarded, so bytecode exists.  ``cold_rss_mb`` is the median peak RSS
  of the measured children, from ``os.wait4``.
* ``warm_s``: median time of one in-process pass, after one discarded pass.
  ``warm_s.tail`` is the highest percentile of the warm passes that has at
  least ten samples beyond it; the text output states which.
* ``failed_ratio`` (text only, as it is zero when all is well): failed
  checks over checks attempted, which the JSON line carries as ``failed``
  and ``attempted``.

With ``--trace 1`` the run wraps fanocalc's layers (``spans.py``), traces
the first pass of the process (``.cold``) and later passes (``.warm``,
medians), and reports per-layer calls, self times and ratios, plus
``trace.overhead_ratio``: traced over untraced warm pass time, from
alternating passes.

The amount of work is fixed per workload for a given ``--seconds`` (the
sample counts in ``PLANS`` are for 30 seconds and scale linearly), so two
commits are compared on the same work; a run lasts about 20 to 70 seconds
on a 2-vCPU host, depending on the workload.  Every output is checked; the last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Child processes run one at a time with
``PYTHONHASHSEED=0``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import spans
import workloads
from clock import Clock

ROOT = workloads.ROOT
BENCH = Path(__file__).resolve().parent
WORKDIR = ROOT / ".bench_build" / "fanocalc-bench"
REF_SECONDS = 30
# Sample counts at REF_SECONDS: (setup imports, cold children, warm passes).
PLANS = {
    "paper-suite": (10, 15, 300),
    "grass-ladder": (10, 2, 11),
    "scenario-files": (10, 6, 11),
}
TAIL_BEYOND = 10
TRACE_WARM_PASSES = 3
CHILD_TIMEOUT_S = 120


def _parse_args(argv):
    parser = argparse.ArgumentParser(description="fanocalc benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=REF_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(workloads.SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(args: list) -> tuple:
    """Run ``python3 ARGS`` to completion: (wall_s, peak_rss_mb, exit code, stdout, stderr)."""
    out_path, err_path = WORKDIR / "child.out", WORKDIR / "child.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, *args], stdin=subprocess.DEVNULL, stdout=out, stderr=err,
            cwd=ROOT, env=_child_env(),
        )
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
            timer.join()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (
        wall,
        usage.ru_maxrss / 1024,
        proc.returncode,
        out_path.read_text(encoding="utf-8"),
        err_path.read_text(encoding="utf-8", errors="replace"),
    )


class Samples:
    """Raw wall and scaled (reference) seconds of the samples of one metric."""

    def __init__(self):
        self.raw: list[float] = []
        self.scaled: list[float] = []

    def add(self, sample: tuple) -> None:
        raw, scaled = sample
        self.raw.append(raw)
        self.scaled.append(scaled)


def _scaled(count: int, seconds: int, floor: int) -> int:
    return max(floor, round(count * seconds / REF_SECONDS))


def _tail(samples: list) -> tuple:
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples beyond it."""
    ordered = sorted(samples)
    rank = len(ordered) - TAIL_BEYOND  # 1-based rank of the reported sample
    return ordered[rank - 1], 100 * rank // len(ordered)


def measure(work, args, checks: workloads.Checks) -> tuple:
    """Untraced run: returns (metrics, notes) for the end-to-end metrics."""
    n_setup, n_cold, n_warm = PLANS[work.name]
    n_setup = _scaled(n_setup, args.seconds, 3)
    n_cold = _scaled(n_cold, args.seconds, 1)
    n_warm = _scaled(n_warm, args.seconds, TAIL_BEYOND + 1)

    clock = Clock()
    timing_path = WORKDIR / "cold-timing.json"

    def cold_pass(what):
        timing_path.unlink(missing_ok=True)
        clock.refresh()
        wall, rss, code, out, err = run_child([str(BENCH / "cold.py"), str(timing_path), *work.cold_args])
        checks.expect(code == 0, f"{what}: exit code {code}: {err.strip()[-500:]}")
        try:
            inner = json.loads(timing_path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            checks.expect(False, f"{what}: no timing from the child")
            return (wall, clock.add(wall)), rss, out
        # The child scaled its own pass; scale interpreter start and exit here.
        outside = wall - inner["raw_s"] - inner["probe_s"]
        return (wall - inner["probe_s"], clock.add(outside) + inner["scaled_s"]), rss, out

    _, _, reference = cold_pass("discarded cold pass")
    work.check(reference, checks, "cold pass")

    setup = Samples()
    for _ in range(n_setup):
        clock.refresh()
        wall, _, code, _, err = run_child(["-c", "import fanocalc"])
        checks.expect(code == 0, f"import fanocalc: exit code {code}: {err.strip()[-500:]}")
        setup.add((wall, clock.add(wall)))

    cold, rss = Samples(), []
    for i in range(n_cold):
        sample, peak, out = cold_pass(f"cold pass {i}")
        checks.expect(out == reference, f"cold pass {i}: output differs from the first cold pass")
        cold.add(sample)
        rss.append(peak)

    warm_reference = work.warm_pass()
    work.check(warm_reference, checks, "warm pass")
    checks.expect(warm_reference == reference, "warm output differs from cold output")
    warm = Samples()
    for i in range(n_warm):
        gc.collect()
        out, raw, scaled = clock.sample(work.warm_pass)
        warm.add((raw, scaled))
        checks.expect(out == warm_reference, f"warm pass {i}: output differs from the first warm pass")

    tail, percentile = _tail(warm.scaled)
    metrics = {
        "setup_s": (statistics.median(setup.scaled), "s"),
        "cold_s": (statistics.median(cold.scaled), "s"),
        "warm_s": (statistics.median(warm.scaled), "s"),
        "warm_s.tail": (tail, "s"),
        "cold_rss_mb": (statistics.median(rss), "MB"),
    }
    notes = {
        "setup_s": f"median of {n_setup} fresh `import fanocalc` processes;"
                   f" wall median {statistics.median(setup.raw):.4g} s",
        "cold_s": f"median of {n_cold} one-pass child processes, after 1 discarded;"
                  f" wall median {statistics.median(cold.raw):.4g} s",
        "warm_s": f"median of {n_warm} in-process passes, after 1 discarded;"
                  f" wall median {statistics.median(warm.raw):.4g} s",
        "warm_s.tail": f"p{percentile} of {n_warm} warm passes, {TAIL_BEYOND} beyond it;"
                       f" wall p{percentile} {_tail(warm.raw)[0]:.4g} s",
        "cold_rss_mb": f"median peak RSS of {n_cold} cold children",
    }
    return metrics, notes


def trace(work, args, checks: workloads.Checks) -> tuple:
    """Traced run: returns (metrics, notes) for the per-layer metrics."""
    tracer = spans.Tracer()

    def traced_pass():
        gc.collect()
        undo = spans.install(tracer)
        try:
            tracer.begin_pass()
            start = time.perf_counter()
            out = work.warm_pass(tracer)
            elapsed = time.perf_counter() - start
            summary = tracer.end_pass()
        finally:
            spans.uninstall(undo)
        problems = spans.cache_mismatches(summary)
        checks.expect(not problems, f"traced pass {summary['pass']}: {'; '.join(problems)}")
        return out, elapsed, summary

    reference, _, cold_summary = traced_pass()
    work.check(reference, checks, "traced cold pass")
    traced, untraced, summaries = [], [], []
    for i in range(_scaled(TRACE_WARM_PASSES, args.seconds, 1)):
        out, elapsed, summary = traced_pass()
        traced.append(elapsed)
        summaries.append(summary)
        checks.expect(out == reference, f"traced pass {i + 1}: output differs from the first traced pass")
        gc.collect()
        start = time.perf_counter()
        out = work.warm_pass()
        untraced.append(time.perf_counter() - start)
        checks.expect(out == reference, f"untraced pass {i + 1}: output differs from the traced passes")

    cold_values = spans.pass_metrics(cold_summary)
    warm_values = [spans.pass_metrics(s) for s in summaries]
    metrics = {}
    for name, unit in spans.LAYER_METRICS:
        metrics[name + ".cold"] = (cold_values[name], unit)
        metrics[name + ".warm"] = (statistics.median(v[name] for v in warm_values), unit)
    metrics["trace.overhead_ratio"] = (statistics.median(traced) / statistics.median(untraced), "ratio")
    notes = {
        "trace.overhead_ratio": f"median of {len(traced)} traced over median of {len(untraced)} untraced warm passes",
    }
    return metrics, notes


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (workloads.SRC / "fanocalc" / "__init__.py").is_file():
        print(f"bench: no fanocalc sources under {workloads.SRC}", file=sys.stderr)
        return 2
    if os.environ.get("PYTHONHASHSEED") != "0":
        # Re-execute so the in-process passes hash like the children do.
        os.execve(sys.executable, [sys.executable, *sys.argv], _child_env())
    WORKDIR.mkdir(parents=True, exist_ok=True)

    cli = workloads.import_fanocalc()
    work = workloads.make(args.workload, cli, args.seed, WORKDIR / "scenario-files")
    checks = workloads.Checks()
    metrics, notes = (trace if args.trace else measure)(work, args, checks)

    print(f"# fanocalc benchmark: workload={args.workload} seed={args.seed}"
          f" seconds={args.seconds} trace={args.trace}")
    print(f"# python {platform.python_version()} ({platform.python_implementation()}),"
          f" nproc {len(os.sched_getaffinity(0))}, {platform.platform()}")
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name} = {value:.6g} {unit}{note}")
    ratio = checks.failed / checks.attempted
    print(f"failed_ratio = {ratio:.6g} ratio  ({checks.failed} of {checks.attempted} checks)")
    for problem in checks.problems:
        print(f"# check failed: {problem}")
    result = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())

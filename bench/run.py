#!/usr/bin/env python3
"""realdp benchmark: one workload per run, one operation at a time.

    python3 bench/run.py --workload classify --seed 1 --seconds 16 --trace 0

Run from the root of a checkout; realdp is imported from its `src/`.  With
`--trace 0` the run measures the end-to-end metrics: a closed loop of seeded
operations for `--seconds`, in slices, with cold set-ups and cold CLI
processes between the slices.  Every time is reported at a reference
machine speed, measured next to it by a calibration loop and, for a fresh
process, by a reference interpreter start (speed.py).
With `--trace 1` it wraps realdp's public functions and reports per-layer
metrics instead (see tracer.py).  Every answer is checked against the
harness's own reference (reference.py).  Lines starting with '#' describe the
run; the last line is the result as one JSON object.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import select
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

CHILD_TIMEOUT_S = 150
MIN_OPS = 100
# The closed loop runs in SLICES slices.  Before each slice the run starts
# fresh interpreters for set-up and for the CLI case, each for at least
# COLD_BUDGET_S (and at least once); setup_s and cold_cli_s are the medians.
SLICES = 4
COLD_BUDGET_S = 0.8
UNITS = {"setup_s": "s", "ops_per_s": "ops/s", "op_p50_ms": "ms", "op_p90_ms": "ms",
         "peak_rss_mb": "MB", "cold_cli_s": "s"}
MEASUREMENT_NOTE = ("all measurements act only on the harness's own processes "
                    "(perf_counter, thread_time, getrusage, CPU affinity); no machine-wide tracing")
NPROC = len(os.sched_getaffinity(0))


def log(message):
    print(f"# {message}", flush=True)


def environment(seed):
    cpu = "unknown"
    with contextlib.suppress(OSError), open("/proc/cpuinfo", encoding="utf-8") as handle:
        cpu = next((line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")), cpu)
    return {
        "python": platform.python_version(),
        "cpu": cpu,
        "nproc": NPROC,
        "seed": seed,
        "commit": git_commit(),
        "note": MEASUREMENT_NOTE,
    }


def git_commit():
    """The checked-out commit, read from .git without starting git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def import_realdp():
    """Import realdp from the checkout; returns the import time in seconds."""
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import realdp.cli  # noqa: F401
    return time.perf_counter() - start


def percentile(values, q):
    """q-th percentile (0 < q < 100) by statistics.quantiles' default method."""
    return statistics.quantiles(values, n=100)[q - 1]


class Pass:
    """The outcome of running a list of operations once.  `scaled` holds
    each latency at the reference speed, scaled by the mean of the clock's
    (speed.Clock) scales before and after the operation."""

    def __init__(self, clock):
        self.clock = clock
        self.latencies = []
        self.scaled = []
        self.kinds = []
        self.problems = []
        self.digest = hashlib.sha256()

    def run(self, op):
        before = self.clock.refresh()
        start = time.perf_counter()
        raised = None
        try:
            answer = op.call()
        except Exception as exc:  # an operation that raises counts as failed
            raised = exc
        latency = time.perf_counter() - start
        after = self.clock.refresh()
        self.latencies.append(latency)
        self.scaled.append(latency * (before + after) / 2)
        self.kinds.append(op.kind)
        if raised is not None:
            problem, summary = f"{op.kind}: raised {type(raised).__name__}: {raised}", "raised"
        else:
            problem, summary = op.check(answer), op.summary(answer)
        if problem:
            self.problems.append(problem)
        self.digest.update(summary.encode() + b"\n")

    @property
    def attempted(self):
        return len(self.latencies)


def run_cli_in_process(R, argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = R.cli.main(argv)
    return code, out.getvalue()


def check_cli_output(wl, code, stdout):
    try:
        payload = json.loads(stdout)
    except json.JSONDecodeError:
        return [f"CLI printed no JSON (exit {code}): {stdout[:200]!r}"]
    return wl.cli_problems(code, payload)


def child_env():
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))


def cold_process(argv, workdir):
    """Run one fresh process on the harness's CPU.  Returns its wall time,
    the factor that turns time spent computing into time at the reference
    speed, the wall time of the faster of two reference starts run just
    before and just after it (speed.start_s), its exit code and its standard
    output.

    While the process runs, the harness runs the calibration loop every
    CALIBRATE_EVERY_S, on the same CPU, so that regime changes during a long
    process are seen.  The CPU time those calibrations take from the process
    is subtracted from its wall time."""
    out_path = workdir / "stdout"
    env = child_env()
    started = [speed.start_s(ROOT, env)]
    scales, taken = [speed.scale(speed.loop_s())], 0.0
    with open(out_path, "w", encoding="utf-8") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=out, stderr=subprocess.DEVNULL)
        try:
            pidfd = os.pidfd_open(proc.pid)
            try:
                while not select.select([pidfd], [], [], speed.CALIBRATE_EVERY_S)[0]:
                    if time.perf_counter() - start > CHILD_TIMEOUT_S:
                        raise TimeoutError(f"{argv} ran for more than {CHILD_TIMEOUT_S} s")
                    before = time.thread_time()
                    scales.append(speed.scale(speed.loop_s()))
                    taken += time.thread_time() - before
                wall = time.perf_counter() - start
            finally:
                os.close(pidfd)
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
    scales.append(speed.scale(speed.loop_s()))
    started.append(speed.start_s(ROOT, env))
    return wall - taken, statistics.fmean(scales), min(started), proc.returncode, out_path.read_text(encoding="utf-8")


def cold_setup(name, seed, workdir):
    """(setup_s, import_s, start scale) of one fresh interpreter, times at the
    reference speed: `import realdp` at the reference start's speed, the
    set-up after it at the loop's."""
    _, scale, started, code, stdout = cold_process(
        [sys.executable, str(HERE / "cold_setup.py"), str(SRC), name, str(seed)], workdir)
    if code != 0:
        raise RuntimeError(f"cold_setup.py exited with {code}")
    sample = json.loads(stdout.splitlines()[-1])
    start_scale = speed.REFERENCE_START_S / started
    import_s = sample["import_s"] * start_scale
    return import_s + (sample["setup_s"] - sample["import_s"]) * scale, import_s, start_scale


def cold_cli(wl, argv, workdir):
    """Time of one fresh `python -m realdp` process at the reference speed,
    its start scale and its problems.  The part as long as the reference
    start counts REFERENCE_START_S, the rest is scaled by the loop."""
    wall, scale, started, code, stdout = cold_process([sys.executable, "-m", "realdp", *argv], workdir)
    cli_s = speed.REFERENCE_START_S + (wall - started) * scale
    return cli_s, speed.REFERENCE_START_S / started, check_cli_output(wl, code, stdout)


def run_cycles(wl, result, seconds):
    """Closed loop over whole cycles until `seconds` have passed, so that
    every slice has the same mix of operations."""
    start = time.perf_counter()
    while True:
        for _ in wl.CYCLE:
            result.run(wl.next_op())
        if time.perf_counter() - start >= seconds:
            return


def measure(name, seed, seconds):
    """Untraced run: the end-to-end metrics, every time at the reference
    speed (speed.py).

    The closed loop is cut into SLICES slices.  Fresh interpreters for the
    set-up and for the CLI case run before each slice, so that the samples
    behind every median are spread over the whole run.
    """
    import workloads

    # One CPU for the harness and the processes it starts, so that the
    # calibration runs on the CPU whose speed it stands for.
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    import_realdp()  # also writes the bytecode caches before any cold start
    R = workloads.Realdp()
    wl = workloads.WORKLOADS[name](R, seed)
    wl.setup()
    problems = wl.setup_problems()

    ops = Pass(speed.Clock())
    setups, imports, cli_times, start_factors = [], [], [], []
    workdir = Path(tempfile.mkdtemp(prefix=".bench_tmp_", dir=ROOT))
    try:
        argv = wl.cli_case(workdir)
        for _ in range(SLICES):
            start = time.perf_counter()
            while time.perf_counter() - start < COLD_BUDGET_S:
                setup_s, import_s, factor = cold_setup(name, seed, workdir)
                setups.append(setup_s)
                imports.append(import_s)
                start_factors.append(factor)
            start = time.perf_counter()
            while time.perf_counter() - start < COLD_BUDGET_S:
                cli_s, factor, cli_problems = cold_cli(wl, argv, workdir)
                cli_times.append(cli_s)
                start_factors.append(factor)
                problems += cli_problems
            run_cycles(wl, ops, seconds / SLICES)
        while ops.attempted < MIN_OPS:
            run_cycles(wl, ops, 0)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    problems += ops.problems

    lat_ms = [1000 * x for x in ops.scaled]
    metrics = {
        "setup_s": statistics.median(setups),
        "ops_per_s": 1000 * len(lat_ms) / sum(lat_ms),
        "op_p50_ms": statistics.median(lat_ms),
        "op_p90_ms": percentile(lat_ms, 90),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "cold_cli_s": statistics.median(cli_times),
    }
    scales = [speed.scale(x) for x in ops.clock.calibrations]

    log(f"environment {json.dumps(environment(seed))}")
    log(f"pinned to CPU {cpu} with the processes it starts")
    log(f"times are at the reference speed: each measured time is scaled by {speed.REFERENCE_S * 1000:g} ms "
        f"over the time of the calibration loop next to it; loop scales, quartiles of "
        f"{len(scales)}: {[round(x, 3) for x in statistics.quantiles(scales, n=4)]}")
    log(f"cold processes: interpreter start and module loading are at the speed at which the faster of "
        f"the reference starts before and after each takes {speed.REFERENCE_START_S * 1000:g} ms; "
        f"start scales, quartiles of {len(start_factors)}: "
        f"{[round(x, 3) for x in statistics.quantiles(start_factors, n=4)]}")
    log(f"workload {name}: {ops.attempted} operations in {sum(ops.latencies):.1f} s of closed loop, "
        f"{sum(ops.scaled):.1f} s at the reference speed "
        f"({', '.join(f'{k} {ops.kinds.count(k)}' for k in dict.fromkeys(wl.CYCLE))}); "
        f"ops_per_s, op_p50_ms and op_p90_ms from {len(lat_ms)} latencies, "
        f"{sum(1 for x in lat_ms if x > metrics['op_p90_ms'])} above p90")
    log(f"fail_ratio = {len(ops.problems)}/{ops.attempted} = {len(ops.problems) / ops.attempted:.4f}")
    log(f"setup_s: median of {len(setups)} cold starts {[round(x, 4) for x in setups]}; "
        f"import realdp median {statistics.median(imports):.4f} s")
    log(f"cold_cli_s: median of {len(cli_times)} runs of `python -m realdp {' '.join(argv[:2])} ...` "
        f"{[round(x, 4) for x in cli_times]}")
    log(f"answer digest {ops.digest.hexdigest()} over {ops.attempted} operations")
    log_known_defect(wl)
    for problem in problems[:20]:
        log(f"FAILED {problem}")
    return {
        "correct": not problems,
        "attempted": ops.attempted,
        "failed": len(ops.problems),
        "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()},
    }


def log_known_defect(wl):
    """Report a known realdp defect whose inputs the workload leaves out."""
    if hasattr(wl, "known_defect"):
        log(wl.known_defect())


def trace_ops(wl, seconds):
    """Operation count of a traced run: whole cycles, fixed by workload and
    `--seconds` so that counters repeat exactly for a seed."""
    cycles = max(1, round(seconds * wl.TRACE_CYCLES_PER_S))
    return cycles * len(wl.CYCLE)


def trace(name, seed, seconds):
    """Traced run: the CLI case and set-up in-process, then one untraced and
    one traced pass over the same operations."""
    import_s = import_realdp()
    import workloads
    from tracer import Tracer

    R = workloads.Realdp()
    wl = workloads.WORKLOADS[name](R, seed)
    tracer = Tracer()
    problems = []
    workdir = Path(tempfile.mkdtemp(prefix=".bench_tmp_", dir=ROOT))
    tracer.install()
    try:
        code, stdout = run_cli_in_process(R, wl.cli_case(workdir))
        problems += check_cli_output(wl, code, stdout)
        wl.setup()
    finally:
        tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)
    problems += wl.setup_problems()

    count = trace_ops(wl, seconds)
    op_list = [wl.next_op() for _ in range(count)]
    plain = Pass(speed.Clock())
    for op in op_list:
        plain.run(op)
    traced = Pass(speed.Clock())
    tracer.install()
    try:
        for op in op_list:
            traced.run(op)
    finally:
        tracer.uninstall()
    problems += plain.problems + traced.problems
    if plain.digest.hexdigest() != traced.digest.hexdigest():
        problems.append("traced answers differ from untraced answers")

    overhead = sum(traced.scaled) / sum(plain.scaled)
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in tracer.metrics().items()}
    metrics["cli.import_s"] = {"value": import_s, "unit": "s"}
    metrics["trace.overhead_ratio"] = {"value": overhead, "unit": "ratio"}

    log(f"environment {json.dumps(environment(seed))}")
    log(f"traced workload {name}: CLI case and set-up, then {count} operations untraced "
        f"({sum(plain.latencies):.2f} s) and traced ({sum(traced.latencies):.2f} s); "
        f"overhead ratio {overhead:.3f}")
    log(f"answer digest {traced.digest.hexdigest()} (untraced pass {plain.digest.hexdigest()})")
    log(f"work counters {json.dumps(tracer.work_counts(), sort_keys=True)}")
    log_known_defect(wl)
    for problem in problems[:20]:
        log(f"FAILED {problem}")
    return {
        "correct": not problems,
        "attempted": traced.attempted,
        "failed": len(traced.problems),
        "metrics": metrics,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("classify", "hyperbolicity", "conic_sections"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "realdp" / "__init__.py").is_file():
        print(f"error: no realdp sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    if args.trace:
        result = trace(args.workload, args.seed, args.seconds)
    else:
        result = measure(args.workload, args.seed, args.seconds)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

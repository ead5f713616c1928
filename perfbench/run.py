"""Benchmark ``roughdiff run`` end to end, or layer by layer with --trace 1.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload em-sweeps --seed 1 --seconds 20 --trace 0

With ``--trace 0`` each measured run is a fresh
``python -m roughdiff.cli run <config> --out-dir <tmp>`` process, repeated
until ``--seconds`` have passed (a closed loop, one run at a time), after
``SETUP_RUNS`` set-up processes that import roughdiff and load the config.
With ``--trace 1`` the scenario runs in this process with one worker,
alternating untraced runs with runs under the span wrappers of
``tracer.py``.  Every run's outputs go through the correctness gate of
``workloads.py``.  The last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics; each metric is the median
over the runs made.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time

import tracer
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SETUP_RUNS = 5
RUN_TIMEOUT_S = 150.0
THREAD_PINS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class BenchError(Exception):
    """The benchmark cannot run here (no package, a failing set-up)."""


def declared_metrics():
    """(end-to-end names, unit of every metric) from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    return [m["name"] for m in spec["end_to_end"]], units


def package_src():
    """Absolute directory holding this checkout's roughdiff package.

    Only ``<checkout>/src`` counts, so a copy installed elsewhere never
    stands in for the code under test."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    spec = importlib.util.find_spec("roughdiff")
    if spec is None or spec.origin is None or not os.path.abspath(
            spec.origin).startswith(src + os.sep):
        raise BenchError(f"no roughdiff package under {src}")
    return src


def child_env(src):
    env = dict(os.environ)
    env["PYTHONPATH"] = src
    env.update(dict.fromkeys(THREAD_PINS, "1"))
    return env


def timed_process(cmd, env, cwd, log_path):
    """Run cmd to completion: (exit code, wall s, cpu s, peak RSS MB).

    CPU time and peak RSS come from wait4, so they cover the process and
    every child it reaped (the run's worker pool)."""
    with open(log_path, "wb") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, env=env, cwd=cwd, stdout=log,
                                stderr=subprocess.STDOUT)
    lock = threading.Lock()
    exited = False

    def kill():
        with lock:
            if not exited:
                proc.kill()

    timer = threading.Timer(RUN_TIMEOUT_S, kill)
    timer.start()
    wall = None
    try:
        # wait without reaping, so the timer can never signal a reused pid
        os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
        wall = time.perf_counter() - t0
    finally:
        with lock:
            exited = True
            if wall is None:    # interrupted: leave no child running
                proc.kill()
        timer.cancel()
        timer.join()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    cpu = usage.ru_utime + usage.ru_stime
    return proc.returncode, wall, cpu, usage.ru_maxrss * 1024 / 1e6


def dir_bytes(path):
    return sum(os.path.getsize(os.path.join(d, f))
               for d, _, files in os.walk(path) for f in files)


def write_config(tmp, cfg):
    path = os.path.join(tmp, "scenario.json")
    with open(path, "w") as fh:
        json.dump(cfg, fh, indent=2)
    return path


class Tally:
    """Per-run metric samples, failures and report digests."""

    def __init__(self, workload, cfg):
        self.workload, self.cfg = workload, cfg
        self.samples = {}
        self.attempted = 0
        self.failures = []
        self.digests = {}

    def add(self, **metrics):
        for name, value in metrics.items():
            self.samples.setdefault(name, []).append(value)

    def record(self, problems):
        self.attempted += 1
        if problems:
            self.failures.append(problems)

    def check(self, out_dir, exit_code=0):
        """Gate one run's outputs; record its digests."""
        problems = ([f"exit status {exit_code}"] if exit_code != 0
                    else workloads.check_outputs(self.workload, self.cfg,
                                                 out_dir))
        self.record(problems)
        if not problems:
            for name, digest in workloads.report_digests(out_dir).items():
                self.digests.setdefault(name, set()).add(digest)

    def medians(self, names):
        return {name: statistics.median(self.samples[name])
                for name in names}


def measure_end_to_end(workload, cfg, src, tmp, seconds, names):
    env = child_env(src)
    cfg_path = write_config(tmp, cfg)
    log = os.path.join(tmp, "child.log")
    tally = Tally(workload, cfg)
    setup = [sys.executable, "-c",
             "import sys; from roughdiff import runner; "
             "runner.load_scenario(sys.argv[1])", cfg_path]
    # the first import compiles bytecode, which users pay once, not per run
    timed_process(setup, env, tmp, log)
    for _ in range(SETUP_RUNS):
        code, wall, _, _ = timed_process(setup, env, tmp, log)
        if code != 0:
            raise BenchError(f"set-up process failed:\n{_tail(log)}")
        tally.add(setup_s=wall)

    deadline = time.perf_counter() + seconds
    while tally.attempted == 0 or time.perf_counter() < deadline:
        out_dir = os.path.join(tmp, f"out{tally.attempted}")
        cmd = [sys.executable, "-m", "roughdiff.cli", "run", cfg_path,
               "--out-dir", out_dir, "--workers", str(workload.workers)]
        code, wall, cpu, rss = timed_process(cmd, env, tmp, log)
        artifact = dir_bytes(out_dir) / 1e6 if os.path.isdir(out_dir) else 0.0
        tally.check(out_dir, code)
        if code != 0:
            print(_tail(log), file=sys.stderr)
        tally.add(run_s=wall, cpu_s=cpu, peak_rss_mb=rss,
                  artifact_mb=artifact)
        shutil.rmtree(out_dir, ignore_errors=True)
    return tally, tally.medians(names)


def measure_layers(workload, cfg, tmp, seconds, trace_path):
    os.environ.update(dict.fromkeys(THREAD_PINS, "1"))
    from roughdiff import runner

    cfg_path = write_config(tmp, cfg)
    tally = Tally(workload, cfg)

    def one_run(tr):
        out_dir = os.path.join(tmp, f"out{tally.attempted}")
        t0 = time.perf_counter()
        try:
            with (tracer.installed(tr) if tr else contextlib.nullcontext()):
                runner.run_scenario(cfg_path, workers=1, out_dir=out_dir)
        except Exception as exc:  # a failed run is counted, not fatal
            tally.record([f"{type(exc).__name__}: {exc}"])
            return False
        wall = time.perf_counter() - t0
        tally.check(out_dir)
        shutil.rmtree(out_dir, ignore_errors=True)
        tally.add(**(tr.metrics() if tr else {"untraced_s": wall}))
        return True

    one_run(None)   # warm-up: lazy imports inside numpy and scipy
    deadline = time.perf_counter() + seconds
    last = None
    while True:
        one_run(None)
        tr = tracer.Tracer()
        if one_run(tr):
            last = tr
        if time.perf_counter() >= deadline:
            break
    if last is None:
        return tally, {}
    metrics = tally.medians([n for n in tally.samples if n != "untraced_s"])
    metrics["trace.overhead_frac"] = (
        metrics["trace.wall_s"] / statistics.median(tally.samples["untraced_s"])
        - 1.0)
    last.dump(trace_path)
    print(f"trace written to {os.path.relpath(trace_path, ROOT)}")
    return tally, metrics


def _tail(path, lines=20):
    with open(path, errors="replace") as fh:
        return "".join(fh.readlines()[-lines:])


def report(tally, metrics, units, seed):
    """Human-readable lines, then the JSON result line."""
    n = {name: len(v) for name, v in tally.samples.items()}
    failed = len(tally.failures)
    print(f"workload {tally.workload.name} seed {seed}: "
          f"{tally.attempted} runs, {failed} failed")
    for problems in tally.failures:
        print("  failure: " + "; ".join(problems))
    for name, value in metrics.items():
        count = n.get(name, n.get("trace.wall_s", 0))
        print(f"metric {name} = {value:.6g} {units[name]} "
              f"(median of {count})")
    print(f"metric fail_frac = {failed / tally.attempted:.6g} ratio "
          f"({failed} of {tally.attempted} runs)")
    for name, digests in sorted(tally.digests.items()):
        same = "" if len(digests) == 1 else f" ({len(digests)} distinct)"
        print(f"sha256 {name} {min(digests)}{same}")
    result = {
        "correct": failed == 0 and bool(metrics),
        "attempted": tally.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every workload for quick tests")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    try:
        src = package_src()
        end_to_end, units = declared_metrics()
    except (BenchError, OSError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    workload = workloads.WORKLOADS[args.workload]
    cfg = workload.config(args.seed, args.size)
    tmp = tempfile.mkdtemp(prefix=".perfbench-tmp-", dir=ROOT)
    try:
        if args.trace:
            out = os.path.join(ROOT, ".perfbench-traces")
            os.makedirs(out, exist_ok=True)
            trace_path = os.path.join(
                out, f"{args.workload}-seed{args.seed}.json")
            tally, metrics = measure_layers(workload, cfg, tmp, args.seconds,
                                            trace_path)
        else:
            tally, metrics = measure_end_to_end(workload, cfg, src, tmp,
                                                args.seconds, end_to_end)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    report(tally, metrics, units, args.seed)
    return 0


if __name__ == "__main__":
    # SIGTERM unwinds like an exception: the running child is killed and
    # the temp dir removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    sys.exit(main())

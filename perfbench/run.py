"""End-to-end and per-layer benchmark of the hetsel CLI.

    python3 perfbench/run.py --workload select-10k --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout. Each workload runs one CLI command
as a fresh process, one at a time (closed loop, one client), on inputs made
from ``--seed``, until ``--seconds`` of measurement are used up; at least one
command always runs. Every command's artifacts are verified. The last line
of standard output is the result object; the line before it holds the raw
samples, the quality figures and the environment.

With ``--trace 1`` the same untraced commands run first, then the command
runs once more in this process with span recorders around the program's
public functions (see ``spans.py``), and the result carries the per-layer
metrics instead of the end-to-end ones.
"""
from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

import numpy as np

import gen
import spans
import verify

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")

M = 10_000
SETUP_REPEATS = 3
COMMAND_TIMEOUT_S = 120
# The console script's entry point, run from the source tree.
ENTRY = "import sys; from hetsel.cli import main; sys.exit(main())"

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "deconv.kernel_marginals_s": "s",
    "deconv.kernel_marginals_calls": "count",
    "deconv.kernel_pairs": "count",
    "deconv.kernel_marginals_hwm_mb": "MB",
    "deconv.fit_weights_s": "s",
    "deconv.fit_iterations": "count",
    "deconv.fit_objective": "1",
    "deconv.clfdr_s": "s",
    "deconv.clfdr_calls": "count",
    "deconv.oracle_clfdr_s": "s",
    "selection.oracle_thresholds_s": "s",
    "selection.calibrate_thresholds_s": "s",
    "selection.build_units_s": "s",
    "selection.select_dd_s": "s",
    "selection.select_dd_calls": "count",
    "selection.select_oracle_s": "s",
    "selection.baselines_s": "s",
    "model.zvalue_pvalue_s": "s",
    "rvalue.scan_s": "s",
    "rvalue.replays": "count",
    "rvalue.replay_ms_p50": "ms",
    "rvalue.replay_ms_p95": "ms",
    "rvalue.self_s": "s",
    "sim.run_replications_s": "s",
    "sim.generate_s": "s",
    "sim.rep_busy_s": "s",
    "sim.parallel_efficiency": "1",
    "cli.read_records_s": "s",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
    "quality.clfdr_rmse": "1",
    "quality.rank_corr": "1",
}


class Workload:
    """One CLI command on seeded inputs, with its artifact check and the
    quality figure it yields (if any)."""

    def __init__(self, name, needs_input, argv, check, quality=None):
        self.name = name
        self.needs_input = needs_input
        self.argv = argv
        self.check = check
        self.quality = quality


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "select-10k",
            True,
            lambda inp, out, seed: ["select", "--input", inp, "--output", out,
                                    "--alpha", "0.1", "--mu0", "0"],
            lambda out, run: verify.check_select(out, run.input_path, gen.ALPHA, gen.MU0),
            ("quality.clfdr_rmse", lambda out, run: verify.clfdr_rmse(out, run.input_path)),
        ),
        Workload(
            "rvalue-mu0-10k",
            True,
            lambda inp, out, seed: ["rvalue", "--input", inp, "--output", out,
                                    "--definition", "mu0", "--alpha", "0.1"],
            lambda out, run: verify.check_rvalue(out, run.input_path),
            ("quality.rank_corr", lambda out, run: verify.rank_corr(out, run.truth_path)),
        ),
        Workload(
            "simulate-correlated",
            False,
            lambda inp, out, seed: ["simulate", "--design", "correlated", "--sigma", "1",
                                    "--m", str(M), "--reps", "4", "--seed", str(seed),
                                    "--output", out],
            lambda out, run: verify.check_simulate(out, reps=4),
        ),
    )
}


class Run:
    """State of one benchmark run: its directory, inputs and tallies."""

    def __init__(self, workload, seed):
        self.workload = workload
        self.seed = seed
        self.dir = os.path.join(WORK, f"{workload.name}-s{seed}-p{os.getpid()}")
        os.makedirs(self.dir)
        self.input_path = self.truth_path = None
        if workload.needs_input:
            self.input_path, self.truth_path = gen.write_inputs(self.dir, seed, M)
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.quality = {}

    def command(self, k):
        """The argv and output directory of the run's k-th command."""
        out = os.path.join(self.dir, f"out{k}")
        return self.workload.argv(self.input_path, out, self.seed), out

    def verify(self, out, returncode):
        """Checks one command's artifacts and records its problems. The
        quality figure comes from the first command that passes."""
        self.attempted += 1
        if returncode != 0:
            problems = [f"exit status {returncode}"]
        else:
            try:
                problems = self.workload.check(out, self)
                if not problems and self.workload.quality and not self.quality:
                    name, measure = self.workload.quality
                    self.quality[name] = measure(out, self)
            except (OSError, ValueError, KeyError, TypeError) as exc:
                problems = [f"unreadable artifact: {type(exc).__name__}: {exc}"]
        self.failed += bool(problems)
        self.problems.extend(f"command {self.attempted}: {p}" for p in problems)
        shutil.rmtree(out, ignore_errors=True)


def _kill_group(pgid):
    try:
        os.killpg(pgid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def spawn(argv, env, log_path):
    """Runs ``python3 argv`` as a fresh process in its own session and waits
    for it. Returns (wall seconds, peak RSS MB, exit status). The peak RSS is
    the largest of the process and the children it waited for."""
    with open(log_path, "ab") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, *argv], stdout=log, stderr=subprocess.STDOUT,
            env=env, cwd=ROOT, start_new_session=True,
        )
        timer = threading.Timer(COMMAND_TIMEOUT_S, _kill_group, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
            timer.join()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    _kill_group(proc.pid)  # workers left behind by a failed command
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


def measure_setup(env, log_path):
    """Median time for a fresh interpreter to import hetsel.cli, after one
    untimed import that writes the bytecode cache."""
    times = []
    for i in range(SETUP_REPEATS + 1):
        wall, _, rc = spawn(["-c", "import hetsel.cli"], env, log_path)
        if rc != 0:
            raise RuntimeError(f"importing hetsel.cli failed (exit {rc}); see {log_path}")
        if i:
            times.append(wall)
    return statistics.median(times), times


def run_untraced(run, seconds, env, log_path):
    """Closed loop: the next command starts only after the previous one ends,
    and only while it is expected to finish within ``seconds``."""
    walls, rss, steal = [], [], []
    begin = time.perf_counter()
    while not walls or time.perf_counter() - begin + statistics.median(walls) <= seconds:
        argv, out = run.command(len(walls))
        before = cpu_ticks()
        wall, peak, rc = spawn(["-c", ENTRY, *argv], env, log_path)
        steal.append(steal_share(before, cpu_ticks()))
        run.verify(out, rc)
        walls.append(wall)
        rss.append(peak)
    return walls, rss, steal


def run_traced(run):
    """Runs the command in this process with spans; returns (wall, layers, missing)."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import hetsel.cli

    dump_dir = os.path.join(run.dir, "spans")
    os.makedirs(dump_dir)
    tracer = spans.Tracer(f"{run.workload.name}-s{run.seed}", dump_dir)
    argv, out = run.command("traced")
    tracer.install()
    try:
        with tracer.span(spans.ROOT_SPAN):
            try:
                rc = hetsel.cli.main(argv)
            except SystemExit as exc:
                rc = exc.code if isinstance(exc.code, int) else 1
            except Exception as exc:  # a crash counts as a failed command
                rc = f"{type(exc).__name__}: {exc}"
    finally:
        tracer.uninstall()
    recorded = tracer.collect()
    run.verify(out, rc)
    with open(os.path.join(WORK, f"spans-{run.workload.name}-s{run.seed}.json"), "w") as fh:
        json.dump(recorded, fh)
    root = [s for s in recorded if s["name"] == spans.ROOT_SPAN][0]
    wall = root["end"] - root["start"]
    return wall, spans.layer_metrics(recorded, os.getpid()), tracer.missing


def cpu_ticks():
    """(steal, total) CPU ticks of the machine so far, or None. Steal is time
    the hypervisor gave this machine's CPUs to others; it slows every timing."""
    try:
        with open("/proc/stat", encoding="utf-8") as fh:
            fields = [int(v) for v in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return (fields[7] if len(fields) > 7 else 0), sum(fields)


def steal_share(before, after):
    """Share of the machine's CPU ticks stolen between two ``cpu_ticks``."""
    if before is None or after is None or after[1] <= before[1]:
        return None
    return (after[0] - before[0]) / (after[1] - before[1])


def environment():
    cpu_model = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model,
    }


def git_sha():
    """HEAD of the checkout when it is a git work tree, read from .git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be a nonnegative integer")

    if not os.path.isfile(os.path.join(SRC, "hetsel", "cli.py")):
        print(f"no hetsel sources under {SRC}: run from a source checkout", file=sys.stderr)
        return 2

    os.makedirs(WORK, exist_ok=True)
    run = Run(WORKLOADS[args.workload], args.seed)
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    log_path = os.path.join(run.dir, "commands.log")
    try:
        setup, setup_samples = measure_setup(env, log_path)
        walls, rss, steal = run_untraced(run, args.seconds, env, log_path)
        wall = statistics.median(walls)
        detail = {
            "workload": run.workload.name,
            "seed": run.seed,
            "trace": args.trace,
            "samples": {"wall_s": walls, "peak_rss_mb": rss, "setup_s": setup_samples,
                        "cpu_steal_share": steal},
            "environment": environment(),
        }
        if args.trace:
            traced_wall, layers, missing = run_traced(run)
            # The in-process run skips interpreter start-up and the import,
            # which the untraced wall time includes; add them back.
            layers["trace.overhead_s"] = traced_wall + setup - wall
            layers.update(run.quality)
            metrics = {
                name: _metric(layers.get(name, 0), unit)
                for name, unit in PER_LAYER_UNITS.items()
            }
            detail.update(
                traced_wall_s=traced_wall,
                missing_functions=missing,
                not_measured=[n for n in PER_LAYER_UNITS if not layers.get(n)],
            )
        else:
            values = {"wall_s": wall, "setup_s": setup, "peak_rss_mb": statistics.median(rss)}
            metrics = {
                name: _metric(values[name], unit) for name, unit in END_TO_END_UNITS.items()
            }
    finally:
        shutil.rmtree(run.dir, ignore_errors=True)

    detail.update(fail_rate=run.failed / run.attempted, problems=run.problems,
                  quality=run.quality)
    print(json.dumps(detail))
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Self-check of the benchmark: run it after changing any file here.

    python3 perfbench/selfcheck.py

Checks that the input generator is byte-identical for a fixed seed, that
the closed-form oracle clfdr matches the library's, that each artifact
verifier accepts the program's real output and rejects a deliberately
corrupted copy, and that the metric names and units agree with
BENCHMARK.json. Prints one line per check; exits non-zero on any failure.
"""
from __future__ import annotations

import csv
import filecmp
import json
import os
import shutil
import subprocess
import sys

import numpy as np

import gen
import run
import spans
import verify

SMALL_M = 500
SIM_REPS = 2
failures = []


def check(name, ok):
    print(f"{'PASS' if ok else 'FAIL'} {name}")
    if not ok:
        failures.append(name)


def cli(args, env):
    cmd = [sys.executable, "-c", run.ENTRY, *args]
    subprocess.run(cmd, env=env, cwd=run.ROOT, check=True, capture_output=True)


def rewrite_csv(path, edit):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    rows = edit(rows)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(rows)


def corrupted(src_dir, work, name, edit_file, edit):
    """Copy of an artifact directory with one file edited."""
    dst = os.path.join(work, name)
    shutil.copytree(src_dir, dst)
    edit(os.path.join(dst, edit_file))
    return dst


def check_generator(work):
    a, b, c = (os.path.join(work, d) for d in ("gen-a", "gen-b", "gen-c"))
    for d in (a, b, c):
        os.makedirs(d)
    gen.write_inputs(a, 7, SMALL_M)
    gen.write_inputs(b, 7, SMALL_M)
    gen.write_inputs(c, 8, SMALL_M)
    same = all(filecmp.cmp(f"{a}/{f}", f"{b}/{f}", shallow=False)
               for f in ("input.csv", "truth.csv"))
    check("generator is byte-identical for a fixed seed", same)
    check("generator differs across seeds",
          not filecmp.cmp(f"{a}/input.csv", f"{c}/input.csv", shallow=False))


def check_oracle():
    from hetsel import TruePrior, oracle_clfdr

    _, x, sigma, _ = gen.draw(11, SMALL_M)
    prior = TruePrior.uniform_mixture(gen.PRIOR)
    diff = np.max(np.abs(gen.oracle_clfdr(x, sigma) - oracle_clfdr(prior, x, sigma, gen.MU0)))
    check(f"oracle clfdr matches the library's closed form (max diff {diff:.1e})", diff < 1e-12)


def check_missing_function(work):
    """A traced function that no longer exists is reported, not fatal."""
    import hetsel.cli

    tracer = spans.Tracer("selfcheck", work)
    tracer.install(spans.TARGETS + (("rvalue", "no_such_function", "rvalue.gone", "plain"),))
    try:
        wrapped = hasattr(hetsel.cli.read_records, "__wrapped__")
    finally:
        tracer.uninstall()
    check("a missing traced function is listed, the others still wrapped",
          tracer.missing == ["rvalue.no_such_function"] and wrapped)
    check("uninstall restores the original functions",
          not hasattr(hetsel.cli.read_records, "__wrapped__"))


def check_select(work, env):
    gen.write_inputs(work, 5, SMALL_M)
    inp = os.path.join(work, "input.csv")
    out = os.path.join(work, "select")
    cli(["select", "--input", inp, "--output", out, "--alpha", "0.1", "--mu0", "0"], env)
    check("select: real output passes", verify.check_select(out, inp, gen.ALPHA, gen.MU0) == [])

    def overspend(path):
        # Select every group-1 unit (x >= mu0, clfdr > alpha): the budget breaks.
        def edit(rows):
            for row in rows[1:]:
                if row[5] == "1":
                    row[6] = "1"
            return rows
        rewrite_csv(path, edit)

    bad = corrupted(out, work, "select-budget", "selection.csv", overspend)
    problems = verify.check_select(bad, inp, gen.ALPHA, gen.MU0)
    check("select: budget violation rejected", any("budget" in p for p in problems))
    bad = corrupted(out, work, "select-drop", "selection.csv",
                    lambda p: rewrite_csv(p, lambda rows: rows[:-1]))
    check("select: dropped row rejected", verify.check_select(bad, inp, gen.ALPHA, gen.MU0) != [])


def check_rvalue(work, env):
    inp = os.path.join(work, "input.csv")
    out = os.path.join(work, "rvalue")
    cli(["rvalue", "--input", inp, "--output", out, "--definition", "mu0", "--alpha", "0.1"], env)
    check("rvalue: real output passes", verify.check_rvalue(out, inp) == [])

    def duplicate_rank(path):
        def edit(rows):
            ranked = [row for row in rows[1:] if row[4] != ""]
            ranked[1][4] = ranked[0][4]
            return rows
        rewrite_csv(path, edit)

    bad = corrupted(out, work, "rvalue-dup", "rvalues.csv", duplicate_rank)
    check("rvalue: duplicated rank rejected", verify.check_rvalue(bad, inp) != [])
    bad = corrupted(out, work, "rvalue-drop", "rvalues.csv",
                    lambda p: rewrite_csv(p, lambda rows: rows[:-1]))
    check("rvalue: dropped row rejected", verify.check_rvalue(bad, inp) != [])


def check_simulate(work, env):
    out = os.path.join(work, "simulate")
    cli(["simulate", "--design", "correlated", "--sigma", "1", "--m", "1000",
         "--reps", str(SIM_REPS), "--seed", "3", "--output", out], env)
    check("simulate: real output passes", verify.check_simulate(out, SIM_REPS) == [])

    def edit_report(edit):
        def apply(path):
            with open(path, encoding="utf-8") as fh:
                doc = json.load(fh)
            edit(doc)
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
        return apply

    bad = corrupted(out, work, "sim-drop", "report.json",
                    edit_report(lambda d: d["per_rep"]["DD"].pop()))
    check("simulate: dropped replicate rejected", verify.check_simulate(bad, SIM_REPS) != [])
    bad = corrupted(out, work, "sim-fdr", "report.json",
                    edit_report(lambda d: d["per_rep"]["BH"][0].update(fdp=1.5)))
    check("simulate: FDR outside [0, 1] rejected", verify.check_simulate(bad, SIM_REPS) != [])
    bad = corrupted(out, work, "sim-method", "report.json",
                    edit_report(lambda d: d["summary"].pop("OR")))
    check("simulate: missing method rejected", verify.check_simulate(bad, SIM_REPS) != [])


def check_benchmark_json():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    check("workload names match BENCHMARK.json",
          [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS))
    check("end-to-end metrics match BENCHMARK.json",
          {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS)
    check("per-layer metrics match BENCHMARK.json",
          {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS)


def main():
    work = os.path.join(run.WORK, f"selfcheck-{os.getpid()}")
    os.makedirs(work)
    env = dict(os.environ, PYTHONPATH=run.SRC)
    sys.path.insert(0, run.SRC)
    try:
        check_generator(work)
        check_oracle()
        check_missing_function(work)
        check_select(work, env)
        check_rvalue(work, env)
        check_simulate(work, env)
        check_benchmark_json()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"{len(failures)} failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

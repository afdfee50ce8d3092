"""Checks of the program's artifacts, and the quality figures drawn from them.

Each ``check_*`` function returns a list of problems; an empty list means
the artifact is correct. They read only the artifacts and the benchmark's
own inputs, never the program's code.
"""
from __future__ import annotations

import csv
import json
import math
import os

import numpy as np

import gen

BUDGET_TOL = 1e-9
METHODS = ("DD", "OR", "Clfdr", "BH")


def _read_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _read_input(path):
    """(ids, x text, sigma text) from the generated input.csv."""
    ids, xs, ss = [], [], []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        next(reader)
        for uid, x, s in reader:
            ids.append(uid)
            xs.append(x)
            ss.append(s)
    return ids, xs, ss


def _check_units(rows, input_path):
    """Rows must list the input units in input order with x and sigma
    unchanged to the last bit."""
    ids, xs, ss = _read_input(input_path)
    if len(rows) != len(ids):
        return [f"{len(rows)} rows for {len(ids)} input units"]
    for i, row in enumerate(rows):
        if row["id"] != ids[i]:
            return [f"row {i}: id {row['id']!r}, expected {ids[i]!r}"]
        if float(row["x"]) != float(xs[i]) or float(row["sigma"]) != float(ss[i]):
            return [f"row {i}: x or sigma does not round-trip"]
    return []


def check_select(out_dir, input_path, alpha, mu0):
    rows = _read_rows(os.path.join(out_dir, "selection.csv"))
    problems = _check_units(rows, input_path)
    if problems:
        return problems
    x = np.array([float(r["x"]) for r in rows])
    clfdr = np.array([float(r["clfdr"]) for r in rows])
    selected = np.array([int(r["selected"]) for r in rows])
    if not np.all((clfdr >= 0) & (clfdr <= 1)):
        problems.append("clfdr outside [0, 1]")
    budget = float(np.sum(clfdr[selected == 1] - alpha))
    if not budget <= BUDGET_TOL:
        problems.append(f"budget sum(clfdr - alpha) = {budget!r} over selected units")
    gain, cheap = x - mu0 >= 0, clfdr - alpha <= 0
    if np.any(selected[gain & cheap] != 1):
        problems.append("a group-0 unit is not selected")
    if np.any(selected[~gain & ~cheap] != 0):
        problems.append("a group-3 unit is selected")
    with open(os.path.join(out_dir, "summary.json"), encoding="utf-8") as fh:
        n_dd = json.load(fh)["n_selected"]["dd"]
    if n_dd != int(selected.sum()):
        problems.append(f"summary counts {n_dd} DD selections, csv {int(selected.sum())}")
    return problems


def check_rvalue(out_dir, input_path):
    rows = _read_rows(os.path.join(out_dir, "rvalues.csv"))
    problems = _check_units(rows, input_path)
    if problems:
        return problems
    m = len(rows)
    ranks = []
    for i, row in enumerate(rows):
        if row["r_prime"] == "":
            if row["r"] != "":
                return [f"row {i}: unranked unit has r = {row['r']!r}"]
        else:
            if row["r"] == "" or not math.isfinite(float(row["r"])):
                return [f"row {i}: ranked unit has no finite r"]
            ranks.append(float(row["r_prime"]))
    expected = [k / m for k in range(1, len(ranks) + 1)]
    if sorted(ranks) != expected:
        problems.append("ranked r_prime values are not exactly {1..n}/m")
    return problems


def check_simulate(out_dir, reps):
    with open(os.path.join(out_dir, "report.json"), encoding="utf-8") as fh:
        report = json.load(fh)
    problems = []
    for method in METHODS:
        summary = report["summary"].get(method)
        records = report["per_rep"].get(method)
        if summary is None or records is None:
            problems.append(f"method {method} missing")
            continue
        if len(records) != reps:
            problems.append(f"{method}: {len(records)} per-rep records for {reps} reps")
        fdrs = [r["fdp"] for r in records] + [summary["fdr"], summary["mfdr_estimate"]]
        if not all(0.0 <= v <= 1.0 for v in fdrs):
            problems.append(f"{method}: an FDR outside [0, 1]")
    if len(report["seed_ledger"]) != reps:
        problems.append(f"{len(report['seed_ledger'])} seed-ledger entries for {reps} reps")
    return problems


# -- quality figures -----------------------------------------------------------


def clfdr_rmse(out_dir, input_path):
    """RMSE of the clfdr column of selection.csv against the exact clfdr of
    the generating prior at the input units."""
    _, xs, ss = _read_input(input_path)
    reference = gen.oracle_clfdr([float(v) for v in xs], [float(v) for v in ss])
    rows = _read_rows(os.path.join(out_dir, "selection.csv"))
    clfdr = np.array([float(r["clfdr"]) for r in rows])
    return float(np.sqrt(np.mean((clfdr - reference) ** 2)))


def _average_ranks(values):
    order = np.argsort(values, kind="mergesort")
    ranks = np.empty(len(values))
    ordered = values[order]
    start = 0
    for stop in range(1, len(values) + 1):
        if stop == len(values) or ordered[stop] != ordered[start]:
            ranks[order[start:stop]] = 0.5 * (start + stop - 1)
            start = stop
    return ranks


def rank_corr(out_dir, truth_path):
    """Spearman correlation between the r-values of ranked units and their
    true effects (average ranks for ties)."""
    _, mu = gen.read_truth(truth_path)
    rows = _read_rows(os.path.join(out_dir, "rvalues.csv"))
    ranked = [i for i, r in enumerate(rows) if r["r"] != ""]
    if len(ranked) < 2:
        return 0.0
    r = _average_ranks(np.array([float(rows[i]["r"]) for i in ranked]))
    t = _average_ranks(np.asarray(mu, dtype=float)[ranked])
    return float(np.corrcoef(r, t)[0, 1])

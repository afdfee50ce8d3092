"""Command-line surface: CSV ingestion, pipelines, and artifact persistence.

This is the only module that knows a file format: the others return
columns, decision vectors, dataclasses and dicts, and the writers here
turn them into bytes. The sums an artifact reports over a selection
(modified power, leftover budget, counts) are taken here too.

Commands
--------
deconv-fit   fit the discretized effect prior and save it as JSON
select       score units, run the prioritized selection, write CSV + summary
rvalue       rank units by r-value under either definition
simulate     run a replication study on one of the built-in designs

Input CSVs are comma-separated with a header row, UTF-8 (a leading
byte-order mark is skipped), decimal points.
Two layouts are accepted: direct columns (id, x, sigma), or rate-comparison
columns (id, y, y_prime, n, n_prime) which are preprocessed into an effect
x = y - y_prime with a binomial standard error.
"""
from __future__ import annotations

import argparse
import csv
import gc
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, fields
from itertools import compress, islice, repeat

# One BLAS thread per process, set before numpy loads OpenBLAS: simulate
# runs its replicates in forked processes, and two processes with two
# spinning BLAS threads each on two CPUs are slower than one process. A
# user's OPENBLAS_NUM_THREADS or OMP_NUM_THREADS is kept.
if "OPENBLAS_NUM_THREADS" not in os.environ and "OMP_NUM_THREADS" not in os.environ:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy as np

from . import __version__
from .deconv import _clfdr_table, _quantiles, clfdr_by_group, fit_prior_by_group
from .model import zvalue_pvalue
from .selection import select_bh, select_clfdr_stepup, select_dd

__all__ = [
    "RunConfig",
    "ayp_standard_error",
    "trim_by_se_percentile",
    "read_records",
    "run",
    "main",
]

_DIRECT_HEADER = ["id", "x", "sigma"]
# Lines per block of read_records, and rows per block of _write_csv: the
# text of one block stays small at any number of units.
_BLOCK_LINES = 4096
_AYP_HEADER = ["id", "y", "y_prime", "n", "n_prime"]
_PRIOR_FIT_SCHEMA = "hetsel/prior-fit/v2"


@dataclass(frozen=True)
class RunConfig:
    """Validated invocation: one command plus every knob it needs. The
    defaults here are the command-line defaults too."""

    command: str
    input: str | None = None
    output: str | None = None
    alpha: float = 0.1
    mu0: float | None = None
    k: int = 50
    seed: int = 0  # simulate only: master seed of the replication streams
    reps: int = 10
    sigma_split: tuple = ()  # ascending, distinct sigma cuts
    trim: tuple | None = None
    definition: str = "mu0"
    grid_points: int = 200
    design: str | None = None
    sigma2: float | None = None
    sigma_max: float | None = None
    sigma: float | None = None
    m: int | None = None


def ayp_standard_error(y: float, y_prime: float, n: int, n_prime: int) -> float:
    """Binomial standard error of a difference of two passing rates.

    sqrt(y (1 - y) / n + y' (1 - y') / n'); raises ValueError when both
    variance terms vanish (a degenerate unit) or inputs leave their domain.
    """
    for name, rate in (("y", y), ("y_prime", y_prime)):
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"{name} must be a rate in [0, 1]")
    for name, cnt in (("n", n), ("n_prime", n_prime)):
        if cnt < 1:
            raise ValueError(f"{name} must be a count of at least 1")
    var = y * (1.0 - y) / n + y_prime * (1.0 - y_prime) / n_prime
    if var <= 0.0:
        raise ValueError("both variance terms are zero: degenerate unit")
    return math.sqrt(var)


def trim_by_se_percentile(ids, x, sigma, lower: float, upper: float):
    """Drops the units whose sigma falls strictly outside the given empirical
    percentiles (same quantile convention as the prior grid).

    Returns the kept ``(ids, x, sigma)`` in input order.
    """
    if not (0.0 <= lower < upper <= 1.0):
        raise ValueError("need 0 <= lower < upper <= 1")
    sig = np.asarray(sigma, dtype=float)
    lo, hi = _quantiles(sig, [lower, upper])
    keep = (lo <= sig) & (sig <= hi)
    if not keep.any():
        raise ValueError("percentile trim removed every record")
    return list(compress(ids, keep.tolist())), np.asarray(x, dtype=float)[keep], sig[keep]


def read_records(path):
    """Parses an input CSV into ``(ids, x, sigma)``: a list of ids and two
    float arrays. Errors carry line numbers.

    Extra columns after the recognized prefix are ignored, so the CSV the
    ``select`` command writes can be re-ingested directly.

    The file is read in blocks of lines. A block of the direct layout that
    is plain comma-separated text is split with ``str.split`` and parsed
    with ``float``. The first other block (one that holds a quote, is cut
    short by a decode error, or is of the rate layout) and the rest of the
    file go through ``csv.reader`` line by line (``_scan_lines``). Both
    give the same records and the same errors.
    """
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = [h.strip().lower() for h in next(reader)]
        except StopIteration:
            raise ValueError(f"{path}: empty file, header row required") from None
        except csv.Error as exc:
            raise ValueError(f"{path}:1: {exc}") from None
        if header[: len(_DIRECT_HEADER)] == _DIRECT_HEADER:
            ayp = False
        elif header[: len(_AYP_HEADER)] == _AYP_HEADER:
            ayp = True
        else:
            raise ValueError(
                f"{path}: unrecognized header {header!r}; expected a prefix "
                f"{_DIRECT_HEADER} or {_AYP_HEADER}"
            )
        ids, x_parts, sigma_parts = [], [], []
        lineno = reader.line_num + 1
        while True:
            block, error = [], None
            try:
                # extend keeps the lines read before a decode error.
                block.extend(islice(fh, _BLOCK_LINES))
            except UnicodeDecodeError as exc:
                error = exc
            if not block and error is None:
                break
            records = None if ayp or error else _split_direct(block)
            if records is None:
                # csv.reader reads this block and the rest of the file, so
                # the next block is empty.
                records = _scan_lines(path, block, fh, error, ayp, lineno)
            ids.extend(records[0])
            x_parts.append(records[1])
            sigma_parts.append(records[2])
            lineno += len(block)
    if not ids:
        raise ValueError(f"{path}: no data rows")
    return ids, np.concatenate(x_parts), np.concatenate(sigma_parts)


def _split_direct(block):
    """``(ids, x, sigma)`` of a block of direct-layout lines, one record
    per line, as ``_scan_lines`` returns them. None when the block
    needs ``csv.reader``: it holds a quote, NUL or lone CR, a line of
    another width or longer than the csv field limit, or a value that
    ``_scan_lines`` would reject."""
    text = "".join(block)
    if "\r" in text:
        text = text.replace("\r\n", "\n")
    if '"' in text or "\0" in text or "\r" in text:
        return None
    lines = text.split("\n")
    if not lines[-1]:
        lines.pop()
    widths = set(map(str.count, lines, repeat(",", len(lines))))
    if len(widths) != 1 or max(map(len, lines)) > csv.field_size_limit():
        return None
    n = widths.pop() + 1
    if n < len(_DIRECT_HEADER):
        return None
    cells = ",".join(lines).split(",")
    try:
        x = np.fromiter(map(float, cells[1::n]), float, len(lines))
        sigma = np.fromiter(map(float, cells[2::n]), float, len(lines))
    except ValueError:
        return None
    if not (np.isfinite(x).all() and np.isfinite(sigma).all() and (sigma > 0).all()):
        return None
    return cells[0::n], x, sigma


def _scan_lines(path, block, fh, error, ayp, lineno):
    """``(ids, x, sigma)`` of the csv records of ``block`` and then of the
    rest of ``fh``, whose first line is line ``lineno``. A bad record is
    named by the line it starts on. ``error``, a decode error met while
    reading the block, is raised where the reader reaches it instead of
    ``fh``."""

    def lines():
        yield from block
        if error is not None:
            raise error
        # Not "yield from": closing this generator would close the file.
        for line in fh:
            yield line

    width = len(_AYP_HEADER if ayp else _DIRECT_HEADER)
    ids, x_col, sigma_col = [], [], []
    reader = csv.reader(lines())
    # line_num counts the lines read, so a record starts one line after
    # the previous record ends: a quoted field can span lines.
    start = lineno
    try:
        for row in reader:
            at, start = start, lineno + reader.line_num
            if not row:
                continue
            try:
                if len(row) < width:
                    raise ValueError(f"expected at least {width} fields")
                if ayp:
                    rid, y, yp, n, npr = row[:width]
                    x = float(y) - float(yp)
                    sigma = ayp_standard_error(float(y), float(yp), int(n), int(npr))
                else:
                    rid, xs, ss = row[:width]
                    x, sigma = float(xs), float(ss)
                if not (sigma > 0 and math.isfinite(sigma) and math.isfinite(x)):
                    raise ValueError("need sigma > 0 and finite x")
            except ValueError as exc:
                raise ValueError(f"{path}:{at}: {exc}") from None
            ids.append(rid)
            x_col.append(x)
            sigma_col.append(sigma)
    except csv.Error as exc:
        # A row csv.reader cannot read, such as a field over its size
        # limit; line_num counts the lines it has read.
        raise ValueError(f"{path}:{lineno + reader.line_num - 1}: {exc}") from None
    return ids, np.array(x_col, dtype=float), np.array(sigma_col, dtype=float)


def _group_ids(sigma: np.ndarray, cuts) -> np.ndarray:
    """Fit group of each unit: the number of (ascending) cuts at or below
    its sigma."""
    if not cuts:
        return np.zeros(sigma.size, dtype=int)
    return np.digitize(sigma, np.asarray(cuts, dtype=float))


def _envelope(kind: str, config: RunConfig, extra: dict | None = None) -> dict:
    """Wraps a payload with the schema, the tool and the CLI configuration.

    A ``config`` block in the payload is merged into the CLI block, its own
    keys winning, so the command-line settings are never dropped.
    """
    cfg = {
        "command": config.command,
        "alpha": config.alpha,
        "mu0": config.mu0,
        "grid_size": config.k,
        "sigma_split": list(config.sigma_split),
        "trim": list(config.trim) if config.trim else None,
    }
    doc = {
        "schema": f"hetsel/{kind}/v1",
        "tool": {"name": "hetsel", "version": __version__},
        "config": cfg,
    }
    if extra:
        extra = dict(extra)
        cfg.update(extra.pop("config", {}))
        doc.update(extra)
    return doc


def _write_json(path, doc):
    """Writes ``doc`` as ``json.dump(doc, fh, indent=2, sort_keys=True)``
    followed by a newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _text(values, missing=None) -> list:
    """``repr`` text of each float in ``values``; "" where ``missing``."""
    out = list(map(float.__repr__, values.tolist()))
    if missing is not None:
        for i in np.flatnonzero(missing).tolist():
            out[i] = ""
    return out


def _write_csv(path, header, columns):
    """Writes a header row and the rows of ``columns``, equal-length lists
    of str cells, as ``csv.writer`` writes them with its defaults.

    When no cell needs quoting (none holds a comma, a quote, CR or LF;
    checked once per column), blocks of rows are joined directly;
    otherwise ``csv.writer`` writes them.
    """
    plain = len(header) > 1 and not any(
        any(c in text for c in ',"\r\n') for text in map("".join, (header, *columns))
    )
    with open(path, "w", newline="", encoding="utf-8") as fh:
        if not plain:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(zip(*columns))
            return
        fh.write(",".join(header) + "\r\n")
        rows = map(",".join, zip(*columns))
        while block := list(islice(rows, _BLOCK_LINES)):
            fh.write("\r\n".join(block) + "\r\n")


def _prepare(config: RunConfig):
    ids, x, sigma = read_records(config.input)
    if config.trim:
        ids, x, sigma = trim_by_se_percentile(ids, x, sigma, *config.trim)
    return ids, x, sigma, _group_ids(sigma, config.sigma_split)


def _fit_summary(fit) -> dict:
    """How one group's prior was fit: quality, bandwidths and grid."""
    bw, grid = fit.bandwidths, fit.grid
    return {
        "objective": float(fit.objective),
        "kkt_gap": float(fit.kkt_gap),
        "bandwidths": {"h_x": bw.h_x, "h_sigma": bw.h_sigma},
        "grid": {"left": grid.left, "eta": grid.eta, "k": grid.k},
    }


def _prior_fit(fit) -> dict:
    """One group's entry in ``prior_fit.json``."""
    nodes, weights = fit.grid.nodes.tolist(), fit.weights.tolist()
    return dict(_fit_summary(fit), schema=_PRIOR_FIT_SCHEMA, nodes=nodes, weights=weights)


def _cmd_deconv_fit(config: RunConfig) -> int:
    _, x, sigma, groups = _prepare(config)
    fits = fit_prior_by_group(x, sigma, groups, k=config.k)
    doc = _envelope(
        "prior-fit-set",
        config,
        {"fits": {str(g): _prior_fit(fit) for g, fit in fits.items()}},
    )
    os.makedirs(config.output, exist_ok=True)
    _write_json(os.path.join(config.output, "prior_fit.json"), doc)
    return 0


def _cmd_select(config: RunConfig) -> int:
    ids, x, sigma, groups = _prepare(config)
    fits = fit_prior_by_group(x, sigma, groups, k=config.k)
    clfdr = clfdr_by_group(fits, groups, x, sigma, config.mu0)
    dd = select_dd(x, clfdr, config.alpha, config.mu0)
    s = np.tanh(dd.t)
    stepup = select_clfdr_stepup(clfdr, config.alpha)
    _, pvals = zvalue_pvalue(x, sigma, config.mu0)
    bh = select_bh(pvals, config.alpha)

    os.makedirs(config.output, exist_ok=True)
    _write_csv(
        os.path.join(config.output, "selection.csv"),
        ["id", "x", "sigma", "clfdr", "s", "group", "selected"],
        [ids, *map(_text, (x, sigma, clfdr, s)),
         *(list(map(int.__repr__, v.tolist())) for v in (dd.group, dd.decisions))],
    )

    def power(decisions):
        # A sum past the float range takes its limit +-inf, as in select_dd.
        sel = np.flatnonzero(decisions)
        if not sel.size:
            return 0.0
        with np.errstate(over="ignore", invalid="ignore"):
            total = float(np.sum(x[sel] - config.mu0))
        if math.isnan(total):
            raise ValueError(
                f"the modified power at mu0 = {config.mu0!r} overflows the float range "
                "both ways: its gains sum to +inf and its losses to -inf"
            )
        return total

    selected = np.flatnonzero(dd.decisions)
    dd_power = power(dd.decisions)

    summary = _envelope(
        "select-summary",
        config,
        {
            "n_units": len(ids),
            "n_selected": {
                "dd": int(dd.decisions.sum()),
                "clfdr_stepup": int(stepup.sum()),
                "bh": int(bh.sum()),
            },
            "modified_power": {
                "dd": dd_power,
                "clfdr_stepup": power(stepup),
                "bh": power(bh),
            },
            "fit": {str(g): _fit_summary(f) for g, f in fits.items()},
        },
    )
    _write_json(os.path.join(config.output, "summary.json"), summary)
    result = {
        "etp_star": dd_power,
        "capacity": float(-np.sum(clfdr[selected] - config.alpha)) if selected.size else 0.0,
    }
    _write_json(
        os.path.join(config.output, "selection_result.json"),
        _envelope("selection-result", config, result),
    )
    trace = dd.trace_columns
    unit = trace["unit"]
    _write_csv(
        os.path.join(config.output, "trace.csv"),
        ["step", "unit", "etp_star", "capacity"],
        # A checkpoint (unit -1) has an empty unit cell.
        [trace["step"], np.where(unit < 0, "", unit.astype(str)).tolist(),
         _text(trace["etp_star"]), _text(trace["capacity"])],
    )
    return 0


def _cmd_rvalue(config: RunConfig) -> int:
    # Imported here, so the other commands do not load the module.
    from .rvalue import (
        dd_alpha_evaluator,
        dd_mu0_evaluator,
        default_alpha_grid,
        default_mu0_grid,
        rvalue_vary_alpha,
        rvalue_vary_mu0,
    )

    ids, x, sigma, groups = _prepare(config)
    fits = fit_prior_by_group(x, sigma, groups, k=config.k)
    if config.definition == "alpha":
        clfdr = clfdr_by_group(fits, groups, x, sigma, config.mu0)
        table = rvalue_vary_alpha(
            len(ids),
            dd_alpha_evaluator(x, clfdr, config.mu0),
            default_alpha_grid(config.grid_points),
        )
    else:
        mu0s = default_mu0_grid(x, config.grid_points)
        clfdr_at = _clfdr_table(fits, groups, x, sigma, mu0s)
        table = rvalue_vary_mu0(len(ids), dd_mu0_evaluator(x, clfdr_at, config.alpha), mu0s)
        # The k x m table is not read past the scan: free it before the writer.
        del clfdr_at
    os.makedirs(config.output, exist_ok=True)
    _write_rvalues(config, ids, x, sigma, table)
    return 0


def _write_rvalues(config: RunConfig, ids, x, sigma, table):
    """Writes the units ``ids``, ``x`` and ``sigma`` with their r-values from
    ``table`` as ``rvalues.csv``, one row per unit, and the scan's metadata
    as ``rvalues.json``, into ``config.output``.

    Each float is its ``repr`` text; a missing value (r infinite for a unit
    never selected, r_prime NaN) is an empty cell. The ids must be strings,
    as ``read_records`` returns them. ``table.tied`` is not a column: a unit
    is tied iff its r cell is non-empty and appears in another row.
    ``rvalues.json`` counts the distinct finite r (``n_distinct_r``) and
    the units that share the most common one (``largest_tie``, 0 when no
    unit is ranked).
    """
    # Each r is a point of a strictly monotone grid, so its bit pattern is
    # its value: each distinct one is encoded and counted once.
    bits, inverse, counts = np.unique(table.r.view(np.int64), return_inverse=True,
                                      return_counts=True)
    values = bits.view(float)
    ranked = np.isfinite(values)
    r = np.array(_text(values, ~ranked), dtype=object)[inverse]
    m = len(ids)
    _write_csv(
        os.path.join(config.output, "rvalues.csv"),
        ["id", "x", "sigma", "r", "r_prime", "definition", "grid_resolution"],
        [ids, _text(x), _text(sigma), r.tolist(), _text(table.r_prime, np.isnan(table.r_prime)),
         [table.definition] * m, [repr(table.grid_resolution)] * m],
    )
    doc = {
        "definition": table.definition,
        "grid_resolution": table.grid_resolution,
        "n_grid": table.n_grid,
        "n_distinct_r": int(ranked.sum()),
        "largest_tie": int(counts[ranked].max(initial=0)),
    }
    _write_json(os.path.join(config.output, "rvalues.json"), _envelope("rvalues", config, doc))


def _cmd_simulate(config: RunConfig) -> int:
    # Imported here, so the other commands do not load the module.
    from .sim import CorrelatedTwoGroup, SimDesign, TwoComponent, UniformIndep, run_replications

    size = {} if config.m is None else {"m": config.m}
    if config.design == "two-component":
        if config.sigma2 is None:
            raise ValueError("--sigma2 is required for the two-component design")
        family = TwoComponent(sigma2=config.sigma2, **size)
    elif config.design == "uniform":
        if config.sigma_max is None:
            raise ValueError("--sigma-max is required for the uniform design")
        family = UniformIndep(sigma_max=config.sigma_max, **size)
    elif config.design == "correlated":
        if config.sigma is None:
            raise ValueError("--sigma is required for the correlated design")
        family = CorrelatedTwoGroup(sigma=config.sigma, **size)
    else:
        raise ValueError(f"unknown design {config.design!r}")

    mu0 = config.mu0 if config.mu0 is not None else family.DEFAULT_MU0
    design = SimDesign(
        family=family,
        mu0=mu0,
        alpha=config.alpha,
        reps=config.reps,
        master_seed=config.seed,
    )
    report = run_replications(design, k=config.k)
    os.makedirs(config.output, exist_ok=True)
    _write_json(
        os.path.join(config.output, "report.json"),
        _envelope("replication-report", config, _report_doc(report)),
    )
    _write_csv(
        os.path.join(config.output, "report_tidy.csv"),
        ["design", "method", "metric", "rep", "value"],
        # The metrics are ints and floats, whose str is csv.writer's text.
        [list(map(str, column)) for column in zip(*_tidy_rows(report))],
    )
    return 0


def _report_doc(report) -> dict:
    """The ``report.json`` payload of a ``ReplicationReport``."""
    return {
        "design": report.design_label,
        "config": report.config,
        "oracle_thresholds": {"c1": report.thresholds.c1, "c2": report.thresholds.c2},
        "summary": {m: asdict(s) for m, s in report.summary.items()},
        "per_rep": {m: [asdict(r) for r in recs] for m, recs in report.per_rep.items()},
        "seed_ledger": [list(k) for k in report.seed_ledger],
        "clfdr_mse": list(report.clfdr_mse),
    }


def _tidy_rows(report):
    """The ``report_tidy.csv`` rows: [design, method, metric, rep, value]."""
    return (
        [report.design_label, method, metric, rep, value]
        for method, recs in report.per_rep.items()
        for rep, rec in enumerate(recs)
        for metric, value in asdict(rec).items()
    )


_COMMANDS = {
    "deconv-fit": _cmd_deconv_fit,
    "select": _cmd_select,
    "rvalue": _cmd_rvalue,
    "simulate": _cmd_simulate,
}


def run(config: RunConfig) -> int:
    """Executes one command; returns the process exit status.

    Runtime failures are reported as a machine-readable JSON object on
    stderr with exit status 1.
    """
    try:
        return _COMMANDS[config.command](config)
    except (ValueError, OSError, RuntimeError) as exc:
        report = {
            "error": {
                "type": type(exc).__name__,
                "message": str(exc),
                "command": config.command,
            }
        }
        print(json.dumps(report, sort_keys=True), file=sys.stderr)
        return 1


def _add_shared(parser, *, mu0: bool | None, alpha: float | None = RunConfig.alpha):
    """Adds the flags of the commands that read an input CSV. ``mu0`` says
    whether --mu0 is required (None: no such flag); ``alpha`` is the
    --alpha default."""
    parser.add_argument("--input", required=True, help="input CSV path")
    parser.add_argument("--output", required=True, help="output directory")
    parser.add_argument("--alpha", type=float, default=alpha, help="target FDR level")
    if mu0 is not None:
        parser.add_argument(
            "--mu0",
            type=float,
            required=mu0,
            help="reference level: the null region is mu <= mu0",
        )
    parser.add_argument("--grid-size", type=int, default=RunConfig.k, dest="k")
    parser.add_argument(
        "--sigma-split",
        type=str,
        default="",
        help="comma-separated sigma cut points defining fit groups",
    )
    parser.add_argument(
        "--trim",
        type=str,
        default="",
        help="lower,upper sigma percentile trim, e.g. 0.01,0.99 (default off)",
    )


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hetsel",
        description="Prioritized ranking and selection for heteroscedastic units",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("deconv-fit", help="fit the effect prior")
    _add_shared(p_fit, mu0=None)

    p_sel = sub.add_parser("select", help="run the prioritized selection")
    _add_shared(p_sel, mu0=True)

    # The r-value command fixes one threshold parameter and varies the
    # other, so which flag it takes depends on the definition; both
    # default to None and are checked in main.
    p_rv = sub.add_parser("rvalue", help="rank units by r-value")
    _add_shared(p_rv, mu0=False, alpha=None)
    p_rv.add_argument("--definition", choices=["alpha", "mu0"], required=True)
    p_rv.add_argument("--grid-points", type=int, default=RunConfig.grid_points)

    p_sim = sub.add_parser("simulate", help="run a replication study")
    p_sim.add_argument("--output", required=True)
    p_sim.add_argument(
        "--design", choices=["two-component", "uniform", "correlated"], required=True
    )
    p_sim.add_argument("--sigma2", type=float, help="second-half sigma (two-component)")
    p_sim.add_argument("--sigma-max", type=float, help="sigma upper bound (uniform)")
    p_sim.add_argument("--sigma", type=float, help="sigma scale (correlated)")
    p_sim.add_argument("--m", type=int, help="units per replication")
    p_sim.add_argument("--reps", type=int, default=RunConfig.reps)
    p_sim.add_argument("--alpha", type=float, default=RunConfig.alpha)
    p_sim.add_argument("--mu0", type=float)
    p_sim.add_argument("--seed", type=int, default=RunConfig.seed)
    p_sim.add_argument("--grid-size", type=int, default=RunConfig.k, dest="k")
    return parser


def _parse_pair(text: str, flag: str):
    parts = [p for p in text.split(",") if p.strip()]
    if len(parts) != 2:
        raise ValueError(f"{flag} expects two comma-separated values")
    return float(parts[0]), float(parts[1])


def config_from_args(args: argparse.Namespace) -> RunConfig:
    """The ``RunConfig`` of what argparse parsed: each field the command's
    flags set, and the dataclass default for the fields it has no flag for."""
    parsed = vars(args)
    given = {f.name: parsed[f.name] for f in fields(RunConfig) if f.name in parsed}
    mu0 = given.get("mu0")
    if mu0 is not None and not math.isfinite(mu0):
        raise ValueError(f"--mu0 must be finite, got {mu0}")
    text = given.get("sigma_split")
    cuts = tuple(sorted(float(v) for v in text.split(",") if v.strip())) if text else ()
    if not all(math.isfinite(v) for v in cuts):
        raise ValueError(f"--sigma-split cuts must be finite, got {text}")
    if len(set(cuts)) < len(cuts):
        raise ValueError(f"--sigma-split cuts must be distinct, got {text}")
    given["sigma_split"] = cuts
    given["trim"] = _parse_pair(given["trim"], "--trim") if given.get("trim") else None
    return RunConfig(**given)


def main(argv=None) -> int:
    """Parses ``argv`` (the process's own arguments when None), runs the
    command and returns its exit status.

    When ``argv`` is None, ``main`` is the process's entry point (the
    ``hetsel`` script, ``python -m hetsel.cli``), and it calls
    ``gc.freeze()`` once before the command runs. That moves every object
    the imports left alive, most of them numpy's, into the collector's
    permanent generation, so the full collections the interpreter runs at
    exit do not walk them again: about 10 ms of every command. A caller
    that passes ``argv``, such as a test, may run more in its process,
    and its collector is left as it was.
    """
    parser = make_parser()
    args = parser.parse_args(argv)
    if args.command == "rvalue":
        varied = args.definition
        fixed = "alpha" if varied == "mu0" else "mu0"
        if getattr(args, fixed) is None:
            parser.error(f"--{fixed} is required with --definition {varied}")
        if getattr(args, varied) is not None:
            parser.error(f"--{varied} is the parameter --definition {varied} varies; "
                         f"give only --{fixed}")
    try:
        config = config_from_args(args)
    except ValueError as exc:
        parser.error(str(exc))
    if argv is None:
        gc.freeze()
    return run(config)


if __name__ == "__main__":
    sys.exit(main())

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

``main(argv)`` is the entry point, for the ``hetsel`` script and for
callers in Python alike. Each option is an argparse flag and nothing
else: ``main`` checks the parsed namespace in place (``_check``) and each
command reads its flags from it.

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
from dataclasses import asdict
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
    "ayp_standard_error",
    "trim_by_se_percentile",
    "read_records",
    "main",
]

_DIRECT_HEADER = ["id", "x", "sigma"]
# Lines per block of read_records, and rows per block of _write_csv: the
# text of one block stays small at any number of units.
_BLOCK_LINES = 4096
_AYP_HEADER = ["id", "y", "y_prime", "n", "n_prime"]
_PRIOR_FIT_SCHEMA = "hetsel/prior-fit/v2"


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


def _envelope(kind: str, args, extra: dict | None = None) -> dict:
    """Wraps a payload with the schema, the tool and the CLI configuration
    read from ``args``, the flags as ``_check`` leaves them.

    A ``config`` block in the payload is merged into the CLI block, its own
    keys winning, so the command-line settings are never dropped.
    """
    cfg = {
        "command": args.command,
        "alpha": args.alpha,
        "mu0": args.mu0,
        "grid_size": args.k,
        "sigma_split": list(args.sigma_split),
        "trim": list(args.trim) if args.trim else None,
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


def _prepare(args):
    ids, x, sigma = read_records(args.input)
    if args.trim:
        ids, x, sigma = trim_by_se_percentile(ids, x, sigma, *args.trim)
    return ids, x, sigma, _group_ids(sigma, args.sigma_split)


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


def _cmd_deconv_fit(args) -> int:
    _, x, sigma, groups = _prepare(args)
    fits = fit_prior_by_group(x, sigma, groups, k=args.k)
    doc = _envelope(
        "prior-fit-set",
        args,
        {"fits": {str(g): _prior_fit(fit) for g, fit in fits.items()}},
    )
    os.makedirs(args.output, exist_ok=True)
    _write_json(os.path.join(args.output, "prior_fit.json"), doc)
    return 0


def _cmd_select(args) -> int:
    ids, x, sigma, groups = _prepare(args)
    fits = fit_prior_by_group(x, sigma, groups, k=args.k)
    clfdr = clfdr_by_group(fits, groups, x, sigma, args.mu0)
    dd = select_dd(x, clfdr, args.alpha, args.mu0)
    s = np.tanh(dd.t)
    stepup = select_clfdr_stepup(clfdr, args.alpha)
    _, pvals = zvalue_pvalue(x, sigma, args.mu0)
    bh = select_bh(pvals, args.alpha)

    os.makedirs(args.output, exist_ok=True)
    _write_csv(
        os.path.join(args.output, "selection.csv"),
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
            total = float(np.sum(x[sel] - args.mu0))
        if math.isnan(total):
            raise ValueError(
                f"the modified power at mu0 = {args.mu0!r} overflows the float range "
                "both ways: its gains sum to +inf and its losses to -inf"
            )
        return total

    selected = np.flatnonzero(dd.decisions)
    dd_power = power(dd.decisions)

    summary = _envelope(
        "select-summary",
        args,
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
    _write_json(os.path.join(args.output, "summary.json"), summary)
    result = {
        "etp_star": dd_power,
        "capacity": float(-np.sum(clfdr[selected] - args.alpha)) if selected.size else 0.0,
    }
    _write_json(
        os.path.join(args.output, "selection_result.json"),
        _envelope("selection-result", args, result),
    )
    trace = dd.trace_columns
    unit = trace["unit"]
    _write_csv(
        os.path.join(args.output, "trace.csv"),
        ["step", "unit", "etp_star", "capacity"],
        # A checkpoint (unit -1) has an empty unit cell.
        [trace["step"], np.where(unit < 0, "", unit.astype(str)).tolist(),
         _text(trace["etp_star"]), _text(trace["capacity"])],
    )
    return 0


def _cmd_rvalue(args) -> int:
    # Imported here, so the other commands do not load the module.
    from .rvalue import (
        dd_alpha_evaluator,
        dd_mu0_evaluator,
        default_alpha_grid,
        default_mu0_grid,
        rvalue_vary_alpha,
        rvalue_vary_mu0,
    )

    ids, x, sigma, groups = _prepare(args)
    fits = fit_prior_by_group(x, sigma, groups, k=args.k)
    if args.definition == "alpha":
        clfdr = clfdr_by_group(fits, groups, x, sigma, args.mu0)
        table = rvalue_vary_alpha(
            len(ids),
            dd_alpha_evaluator(x, clfdr, args.mu0),
            default_alpha_grid(args.grid_points),
        )
    else:
        mu0s = default_mu0_grid(x, args.grid_points)
        clfdr_at = _clfdr_table(fits, groups, x, sigma, mu0s)
        table = rvalue_vary_mu0(len(ids), dd_mu0_evaluator(x, clfdr_at, args.alpha), mu0s)
        # The k x m table is not read past the scan: free it before the writer.
        del clfdr_at
    os.makedirs(args.output, exist_ok=True)
    _write_rvalues(args, ids, x, sigma, table)
    return 0


def _write_rvalues(args, ids, x, sigma, table):
    """Writes the units ``ids``, ``x`` and ``sigma`` with their r-values from
    ``table`` as ``rvalues.csv``, one row per unit, and the scan's metadata
    as ``rvalues.json``, into ``args.output``.

    Each float is its ``repr`` text; a missing value (r infinite for a unit
    never selected, r_prime NaN) is an empty cell. The ids must be strings,
    as ``read_records`` returns them. A unit is tied iff its r cell is
    non-empty and appears in another row. ``rvalues.json`` counts the
    distinct finite r (``n_distinct_r``) and the units that share the most
    common one (``largest_tie``, 0 when no unit is ranked).
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
        os.path.join(args.output, "rvalues.csv"),
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
    _write_json(os.path.join(args.output, "rvalues.json"), _envelope("rvalues", args, doc))


def _cmd_simulate(args) -> int:
    # Imported here, so the other commands do not load the module.
    from .sim import CorrelatedTwoGroup, SimDesign, TwoComponent, UniformIndep, run_replications

    family_class, param = {
        "two-component": (TwoComponent, "sigma2"),
        "uniform": (UniformIndep, "sigma_max"),
        "correlated": (CorrelatedTwoGroup, "sigma"),
    }[args.design]
    value = getattr(args, param)
    if value is None:
        raise ValueError(f"--{param.replace('_', '-')} is required for the {args.design} design")
    size = {} if args.m is None else {"m": args.m}
    family = family_class(**{param: value}, **size)

    mu0 = args.mu0 if args.mu0 is not None else family.DEFAULT_MU0
    design = SimDesign(
        family=family,
        mu0=mu0,
        alpha=args.alpha,
        reps=args.reps,
        master_seed=args.seed,
    )
    report = run_replications(design, k=args.k)
    os.makedirs(args.output, exist_ok=True)
    _write_json(
        os.path.join(args.output, "report.json"),
        _envelope("replication-report", args, _report_doc(report)),
    )
    _write_csv(
        os.path.join(args.output, "report_tidy.csv"),
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


def _add_shared(parser, *, mu0: bool | None, alpha: float | None = 0.1):
    """Adds the flags of the commands that read an input CSV. ``mu0`` says
    whether --mu0 is required (None: no such flag, and ``args.mu0`` is
    None); ``alpha`` is the --alpha default."""
    parser.add_argument("--input", required=True, help="input CSV path")
    parser.add_argument("--output", required=True, help="output directory")
    parser.add_argument("--alpha", type=float, default=alpha, help="target FDR level")
    if mu0 is None:
        parser.set_defaults(mu0=None)
    else:
        parser.add_argument(
            "--mu0",
            type=float,
            required=mu0,
            help="reference level: the null region is mu <= mu0",
        )
    parser.add_argument("--grid-size", type=int, default=50, dest="k")
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
    # default to None and are checked in _check.
    p_rv = sub.add_parser("rvalue", help="rank units by r-value")
    _add_shared(p_rv, mu0=False, alpha=None)
    p_rv.add_argument("--definition", choices=["alpha", "mu0"], required=True)
    p_rv.add_argument("--grid-points", type=int, default=200)

    p_sim = sub.add_parser("simulate", help="run a replication study")
    p_sim.add_argument("--output", required=True)
    p_sim.add_argument(
        "--design", choices=["two-component", "uniform", "correlated"], required=True
    )
    p_sim.add_argument("--sigma2", type=float, help="second-half sigma (two-component)")
    p_sim.add_argument("--sigma-max", type=float, help="sigma upper bound (uniform)")
    p_sim.add_argument("--sigma", type=float, help="sigma scale (correlated)")
    p_sim.add_argument("--m", type=int, help="units per replication")
    p_sim.add_argument("--reps", type=int, default=10)
    # --alpha and --grid-size default as select's do.
    p_sim.add_argument("--alpha", type=float, default=p_sel.get_default("alpha"))
    p_sim.add_argument("--mu0", type=float)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--grid-size", type=int, default=p_sel.get_default("k"), dest="k")
    # No sigma groups and no trim: the config block records them as such.
    p_sim.set_defaults(sigma_split="", trim="")
    return parser


def _floats(text: str, flag: str) -> list:
    """The numbers of the comma-separated ``text``; blank cells are skipped."""
    try:
        return [float(v) for v in text.split(",") if v.strip()]
    except ValueError:
        raise ValueError(f"{flag} must be finite numbers, got {text}") from None


def _check(args: argparse.Namespace) -> None:
    """Checks the flags ``make_parser`` parsed into ``args`` and rewrites
    ``sigma_split`` into its sorted cuts (a tuple) and ``trim`` into its
    (lower, upper) pair, or None. Raises ValueError with the usage message.
    """
    if args.command == "rvalue":
        varied = args.definition
        fixed = "alpha" if varied == "mu0" else "mu0"
        if getattr(args, fixed) is None:
            raise ValueError(f"--{fixed} is required with --definition {varied}")
        if getattr(args, varied) is not None:
            raise ValueError(f"--{varied} is the parameter --definition {varied} varies; "
                             f"give only --{fixed}")
    if args.mu0 is not None and not math.isfinite(args.mu0):
        raise ValueError(f"--mu0 must be finite, got {args.mu0}")
    text = args.sigma_split
    cuts = tuple(sorted(_floats(text, "--sigma-split cuts")))
    if not all(math.isfinite(v) for v in cuts):
        raise ValueError(f"--sigma-split cuts must be finite, got {text}")
    if len(set(cuts)) < len(cuts):
        raise ValueError(f"--sigma-split cuts must be distinct, got {text}")
    args.sigma_split = cuts
    trim = _floats(args.trim, "--trim bounds")
    if args.trim and len(trim) != 2:
        raise ValueError("--trim expects two comma-separated values")
    args.trim = tuple(trim) or None


def main(argv=None) -> int:
    """Parses ``argv`` (the process's own arguments when None), runs the
    command and returns its exit status.

    A flag that fails ``_check`` is a usage error (exit status 2). A
    command's runtime failure is reported as a machine-readable JSON object
    on stderr with exit status 1.

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
    try:
        _check(args)
    except ValueError as exc:
        parser.error(str(exc))
    if argv is None:
        gc.freeze()
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, OSError, RuntimeError) as exc:
        error = {"type": type(exc).__name__, "message": str(exc), "command": args.command}
        print(json.dumps({"error": error}, sort_keys=True), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

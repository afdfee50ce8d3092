"""Seeded simulation designs, the replication runner, and metric aggregation.

Three generative designs are provided:

* ``TwoComponent``: two random halves (each unit joins either group with
  probability 0.5) with normal effect priors centered at 5 and 7 (sd 0.5);
  the first group has sigma = 1, the second sigma = sigma2. Reference level
  defaults to 6.
* ``UniformIndep``: effects from a two-interval uniform mixture
  (weight 1 - pi1 on (-3, -1), pi1 = 0.2 on (1, 2)) independent of
  sigma ~ U(0.5, sigma_max). Reference level defaults to 0.
* ``CorrelatedTwoGroup``: sigma is 0.25 s or 1.25 s with equal probability
  and the effect mixture depends on the sigma group, so larger effects ride
  on noisier units. Reference level defaults to 1.

Each design's law is stated once, in ``joint_model``, with the priors and
sigma laws of ``hetsel.law``, a module that only this one imports:
replicates are drawn from it and the oracle cutoffs are the population
cutoffs of that law, computed by quadrature without random draws. Each
replication draws from an isolated, replayable stream; four methods run on
every replicate:
the data-driven step-wise procedure (DD), the fixed-cutoff rule with exact
scores (OR), the clfdr step-up baseline on exact scores, and
Benjamini-Hochberg on p-values.
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Union

import numpy as np

from .deconv import clfdr_by_group, fit_prior_by_group
from .law import ConstantSigma, JointModel, TruePrior, UniformSigma, oracle_thresholds
from .model import MetricsRecord, etp, etp_star, fdp, zvalue_pvalue
from .selection import ThresholdPair, select_bh, select_clfdr_stepup, select_dd, select_oracle

__all__ = [
    "TwoComponent",
    "UniformIndep",
    "CorrelatedTwoGroup",
    "SimDesign",
    "Replicate",
    "MethodSummary",
    "ReplicationReport",
    "METHODS",
    "generate",
    "joint_model",
    "run_replications",
]

METHODS = ("DD", "OR", "Clfdr", "BH")

# Stream namespace under the master seed: replicate r draws from
# (master, _REP_STREAM, r). The oracle cutoffs draw nothing.
_REP_STREAM = 0

# Weight of the non-null interval (1, 2) in the UniformIndep prior.
_PI1 = 0.2


@dataclass(frozen=True)
class TwoComponent:
    sigma2: float
    m: int = 10000
    DEFAULT_MU0 = 6.0

    def __post_init__(self):
        if not (math.isfinite(self.sigma2) and self.sigma2 > 0):
            raise ValueError(f"sigma2 must be positive and finite, got {self.sigma2!r}")
        if self.m < 4:
            raise ValueError("m must be at least 4")


@dataclass(frozen=True)
class UniformIndep:
    sigma_max: float
    m: int = 5000
    DEFAULT_MU0 = 0.0

    def __post_init__(self):
        if not math.isfinite(self.sigma_max):
            raise ValueError(f"sigma_max must be finite, got {self.sigma_max!r}")
        if not self.sigma_max > 0.5:
            raise ValueError("sigma_max must exceed the lower endpoint 0.5")
        if self.m < 2:
            raise ValueError("m must be at least 2")


@dataclass(frozen=True)
class CorrelatedTwoGroup:
    sigma: float
    m: int = 10000
    DEFAULT_MU0 = 1.0

    def __post_init__(self):
        if not (math.isfinite(self.sigma) and self.sigma > 0):
            raise ValueError(f"sigma must be positive and finite, got {self.sigma!r}")
        if self.m < 2:
            raise ValueError("m must be at least 2")


Family = Union[TwoComponent, UniformIndep, CorrelatedTwoGroup]


@dataclass(frozen=True)
class SimDesign:
    family: Family
    mu0: float
    alpha: float
    reps: int
    master_seed: int

    def __post_init__(self):
        if not math.isfinite(self.mu0):
            raise ValueError("mu0 must be finite")
        if self.reps < 1:
            raise ValueError("reps must be at least 1")
        if self.master_seed < 0:
            raise ValueError(f"master_seed must be non-negative, got {self.master_seed}")
        if not (0 < self.alpha < 1):
            raise ValueError("alpha must lie in (0, 1)")

    def label(self) -> str:
        fam = self.family
        if isinstance(fam, TwoComponent):
            return f"two-component(sigma2={fam.sigma2}, m={fam.m})"
        if isinstance(fam, UniformIndep):
            return f"uniform(sigma_max={fam.sigma_max}, m={fam.m}, pi1={_PI1})"
        return f"correlated(sigma={fam.sigma}, m={fam.m})"


@dataclass(frozen=True, eq=False)
class Replicate:
    """One generated dataset with its truth; ``group_ids`` index the
    groups of ``joint_model(design.family)``."""

    x: np.ndarray
    sigma: np.ndarray
    mu: np.ndarray
    theta: np.ndarray
    group_ids: np.ndarray
    seed_key: tuple


def joint_model(family: Family) -> JointModel:
    """The design's population law: ``generate`` draws from it and
    ``oracle_thresholds`` integrates over it."""
    if isinstance(family, TwoComponent):
        return JointModel(
            (0.5, 0.5),
            (ConstantSigma(1.0), ConstantSigma(family.sigma2)),
            (
                TruePrior.normal_mixture([(1.0, 5.0, 0.5)]),
                TruePrior.normal_mixture([(1.0, 7.0, 0.5)]),
            ),
        )
    if isinstance(family, UniformIndep):
        prior = TruePrior.uniform_mixture(
            [(1.0 - _PI1, -3.0, -1.0), (_PI1, 1.0, 2.0)]
        )
        return JointModel.independent(prior, UniformSigma(0.5, family.sigma_max))
    return JointModel(
        (0.5, 0.5),
        (ConstantSigma(0.25 * family.sigma), ConstantSigma(1.25 * family.sigma)),
        (
            TruePrior.normal_mixture([(0.9, -0.5, 0.25), (0.1, 1.5, 0.25)]),
            TruePrior.normal_mixture([(0.9, -0.5, 0.25), (0.1, 3.0, 0.25)]),
        ),
    )


def generate(design: SimDesign, rep: int) -> Replicate:
    """Draws one replicate of the design's law from its isolated stream
    (master_seed, 0, rep).

    Truth labels are derived from the drawn effects at the design's mu0,
    so theta_i = 1{mu_i > mu0} holds exactly in every design.
    """
    if not 0 <= rep < design.reps:
        raise ValueError(f"rep must lie in [0, {design.reps})")
    seed_key = (design.master_seed, _REP_STREAM, rep)
    rng = np.random.default_rng(np.random.SeedSequence(seed_key))
    x, sigma, mu, group_ids = joint_model(design.family).sample(rng, design.family.m)
    return Replicate(
        x=x,
        sigma=sigma,
        mu=mu,
        theta=(mu > design.mu0).astype(np.int8),
        group_ids=group_ids,
        seed_key=seed_key,
    )


def _metrics(decisions, rep: Replicate, mu0: float) -> tuple:
    rec = MetricsRecord(
        fdp=fdp(decisions, rep.theta),
        etp=etp(decisions, rep.theta),
        etp_star=etp_star(decisions, rep.x, mu0),
        n_selected=int(np.sum(decisions)),
    )
    false = int(np.sum((1 - rep.theta) * decisions))
    return rec, false


def _run_one_rep(
    design: SimDesign,
    rep_index: int,
    model: JointModel,
    thresholds: ThresholdPair,
    k: int,
):
    """Runs the four methods on one replicate; returns its seed key, the
    per-method (record, false selections) and the clfdr MSE of the fit."""
    rep = generate(design, rep_index)
    try:
        fits = fit_prior_by_group(rep.x, rep.sigma, rep.group_ids, k=k)
    except Exception as exc:
        raise RuntimeError(
            f"deconvolution failed in replication {rep_index} "
            f"(seed key {rep.seed_key}): {exc}"
        ) from exc
    clfdr_hat = clfdr_by_group(fits, rep.group_ids, rep.x, rep.sigma, design.mu0)
    clfdr_true = model.clfdr(rep.x, rep.sigma, rep.group_ids, design.mu0)

    dd = select_dd(rep.x, clfdr_hat, design.alpha, design.mu0)
    orc = select_oracle(rep.x, clfdr_true, thresholds, design.alpha, design.mu0)
    stepup = select_clfdr_stepup(clfdr_true, design.alpha)
    _, pvals = zvalue_pvalue(rep.x, rep.sigma, design.mu0)
    bh = select_bh(pvals, design.alpha)

    out = {}
    for name, decisions in (("DD", dd.decisions), ("OR", orc), ("Clfdr", stepup), ("BH", bh)):
        out[name] = _metrics(decisions, rep, design.mu0)
    clfdr_mse = float(np.mean((clfdr_hat - clfdr_true) ** 2))
    return rep.seed_key, out, clfdr_mse


def _run_share(design, first, step, model, thresholds, k) -> dict:
    """Runs replicates first, first + step, ... in order; returns
    {rep: (seed_key, recs, mse)}. The first failure is stored as its
    exception and ends the share."""
    out = {}
    for r in range(first, design.reps, step):
        try:
            out[r] = _run_one_rep(design, r, model, thresholds, k)
        except Exception as exc:
            out[r] = exc
            break
    return out


def _send_share(conn, *share):
    conn.send(_run_share(*share))
    conn.close()


def _process_count(reps: int) -> int:
    """How many processes share the replicates: min(reps, usable CPUs), but
    1 while this process runs another thread. Forking it would be unsafe
    then, and the threads (a threaded BLAS, for one) would compete with the
    workers for the CPUs: with two OpenBLAS threads per process on a 2-CPU
    VM, forked replicates ran 11-23% slower than serial ones."""
    try:
        cpus = len(os.sched_getaffinity(0))
        threads = len(os.listdir("/proc/self/task"))
    except (AttributeError, OSError):
        return 1
    return min(reps, cpus) if threads == 1 else 1


def _replicates(design, model, thresholds, k) -> list:
    """Every replicate's (seed_key, recs, mse), in replication order.

    With n = ``_process_count(reps)``, this process and n - 1 forked
    workers each run the replicates r = w (mod n) of their index w, and the
    workers send theirs back over a pipe; with n = 1 no worker is forked
    and the replicates run here one after another. Either way the error of
    the lowest-index failing replicate is raised.
    A worker that exits without sending its results raises RuntimeError
    naming its replicates and exit code. Every worker is joined before this
    returns or raises; an interrupt or a dead worker terminates the others
    first.
    """
    args = (model, thresholds, k)
    n = _process_count(design.reps)
    if n > 1:
        import multiprocessing

        # n > 1 only on Linux (see _process_count), where fork always exists.
        ctx = multiprocessing.get_context("fork")
    workers = []
    try:
        for w in range(1, n):
            recv, send = ctx.Pipe(duplex=False)
            proc = ctx.Process(target=_send_share, args=(send, design, w, n, *args))
            proc.start()
            # Closed here before the next fork, so the worker holds the
            # pipe's only write end and its exit ends the pipe.
            send.close()
            workers.append((w, proc, recv))
        results = _run_share(design, 0, n, *args)
        for w, proc, recv in workers:
            try:
                results.update(recv.recv())
            except EOFError:
                proc.join()
                raise RuntimeError(
                    f"the worker for replications {list(range(w, design.reps, n))} "
                    f"exited with code {proc.exitcode} without sending their results"
                ) from None
    except BaseException:
        for _, proc, _ in workers:
            proc.terminate()
        raise
    finally:
        for _, proc, recv in workers:
            proc.join()
            recv.close()
    # A replicate missing from the results follows a failure in its share.
    out = []
    for r in range(design.reps):
        if isinstance(results[r], BaseException):
            raise results[r]
        out.append(results[r])
    return out


@dataclass(frozen=True)
class MethodSummary:
    """Replication averages for one method, with Monte Carlo standard errors.

    ``fdr`` is the mean realized FDP across replications; ``mfdr_estimate``
    is the ratio of total false selections to total selections, the
    marginal variant that the error-control guarantee is stated in. Both
    are reported because they answer different questions.
    """

    fdr: float
    se_fdr: float
    mfdr_estimate: float
    mean_etp: float
    se_etp: float
    mean_etp_star: float
    se_etp_star: float
    mean_selected: float


def _mean_se(values):
    v = np.asarray(values, dtype=float)
    mean = float(v.mean())
    se = float(v.std(ddof=1) / np.sqrt(v.size)) if v.size > 1 else 0.0
    return mean, se


@dataclass(frozen=True)
class ReplicationReport:
    """A study's per-replicate metrics, method summaries and seed ledger;
    ``hetsel.cli`` writes it as ``report.json`` and ``report_tidy.csv``."""

    design_label: str
    config: dict
    per_rep: dict
    summary: dict
    seed_ledger: tuple
    clfdr_mse: tuple
    thresholds: ThresholdPair


def run_replications(
    design: SimDesign,
    *,
    k: int = 50,
) -> ReplicationReport:
    """Runs every replication and aggregates the four methods' metrics in
    replication order.

    The oracle cutoffs are the population cutoffs of the design's law,
    computed once per design and shared across replications. The
    replicates then run on the usable CPUs (see ``_replicates``); each
    draws from its own stream, so the report does not depend on how many
    CPUs ran it.
    """
    model = joint_model(design.family)
    thresholds = oracle_thresholds(model, design.alpha, design.mu0)

    per_rep = {m: [] for m in METHODS}
    falses = {m: 0 for m in METHODS}
    selected = {m: 0 for m in METHODS}
    seed_ledger = []
    clfdr_mse = []
    for seed_key, recs, mse in _replicates(design, model, thresholds, k):
        seed_ledger.append(seed_key)
        clfdr_mse.append(mse)
        for m in METHODS:
            rec, false = recs[m]
            per_rep[m].append(rec)
            falses[m] += false
            selected[m] += rec.n_selected

    summary = {}
    for m in METHODS:
        recs = per_rep[m]
        fdr, se_fdr = _mean_se([r.fdp for r in recs])
        metp, se_etp = _mean_se([r.etp for r in recs])
        mstar, se_star = _mean_se([r.etp_star for r in recs])
        summary[m] = MethodSummary(
            fdr=fdr,
            se_fdr=se_fdr,
            mfdr_estimate=falses[m] / max(selected[m], 1),
            mean_etp=metp,
            se_etp=se_etp,
            mean_etp_star=mstar,
            se_etp_star=se_star,
            mean_selected=float(np.mean([r.n_selected for r in recs])),
        )

    config = {
        "design": design.label(),
        "mu0": design.mu0,
        "alpha": design.alpha,
        "reps": design.reps,
        "master_seed": design.master_seed,
        "grid_size": k,
    }
    return ReplicationReport(
        design_label=design.label(),
        config=config,
        per_rep=per_rep,
        summary=summary,
        seed_ledger=tuple(seed_ledger),
        clfdr_mse=tuple(clfdr_mse),
        thresholds=thresholds,
    )

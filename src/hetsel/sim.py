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


def _metrics(decisions, rep: Replicate, mu0: float) -> MetricsRecord:
    return MetricsRecord(
        fdp=fdp(decisions, rep.theta),
        etp=etp(decisions, rep.theta),
        etp_star=etp_star(decisions, rep.x, mu0),
        n_selected=int(np.sum(decisions)),
    )


def _run_one_rep(
    design: SimDesign,
    rep_index: int,
    model: JointModel,
    thresholds: ThresholdPair,
    k: int,
):
    """Runs the four methods on one replicate; returns its seed key, the
    per-method records and the clfdr MSE of the fit."""
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
    """What a study measured; ``hetsel.cli`` writes it, with the design's
    label and settings, as ``report.json`` and ``report_tidy.csv``.

    ``per_rep`` maps each method of ``METHODS`` to its ``MetricsRecord``
    per replicate and ``summary`` to its ``MethodSummary``; ``seed_ledger``
    holds each replicate's stream key and ``clfdr_mse`` the mean squared
    error of its fitted clfdr against the exact one, both in replication
    order; ``thresholds`` are the oracle cutoffs shared by every replicate.
    """

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
    replicates then run one after another in this process, each from its
    own stream; the first failing replicate ends the run with its error.
    """
    model = joint_model(design.family)
    thresholds = oracle_thresholds(model, design.alpha, design.mu0)
    seed_ledger, outs, clfdr_mse = zip(
        *(_run_one_rep(design, r, model, thresholds, k) for r in range(design.reps))
    )
    per_rep = {m: [out[m] for out in outs] for m in METHODS}

    summary = {}
    for m, recs in per_rep.items():
        fdr, se_fdr = _mean_se([r.fdp for r in recs])
        metp, se_etp = _mean_se([r.etp for r in recs])
        mstar, se_star = _mean_se([r.etp_star for r in recs])
        # Each selection's false ones are its n_selected - etp.
        selected = sum(r.n_selected for r in recs)
        summary[m] = MethodSummary(
            fdr=fdr,
            se_fdr=se_fdr,
            mfdr_estimate=(selected - sum(r.etp for r in recs)) / max(selected, 1),
            mean_etp=metp,
            se_etp=se_etp,
            mean_etp_star=mstar,
            se_etp_star=se_star,
            mean_selected=float(np.mean([r.n_selected for r in recs])),
        )
    return ReplicationReport(per_rep, summary, seed_ledger, clfdr_mse, thresholds)

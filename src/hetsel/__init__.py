"""Prioritized ranking and selection with FDR control for heteroscedastic units.

The package estimates the effect-size prior nonparametrically, scores each
unit by its conditional local FDR, selects units by trading observed effect
size against error budget, and ranks them by r-values. A simulation harness
and a small CLI tie the pieces together.

Every public name is served on first use (PEP 562), so ``import hetsel``
loads no numpy, and a command that does not rank or simulate does not load
``hetsel.rvalue``, ``hetsel.sim`` or the known law in ``hetsel.law``.
"""

import importlib

__version__ = "0.1.0"

_LAZY = {
    "model": (
        "MetricsRecord",
        "etp",
        "etp_star",
        "fdp",
        "zvalue_pvalue",
    ),
    "deconv": (
        "BandwidthPair",
        "FittedPrior",
        "PriorGrid",
        "build_grid",
        "clfdr_by_group",
        "fit_prior",
        "fit_prior_by_group",
        "fit_weights",
        "kernel_marginals",
        "oracle_clfdr",
        "silverman_bandwidths",
    ),
    "law": (
        "ConstantSigma",
        "JointModel",
        "NormalComponent",
        "PointMass",
        "TruePrior",
        "UniformInterval",
        "UniformSigma",
    ),
    "selection": (
        "SelectionCurve",
        "ThresholdPair",
        "calibrate_thresholds",
        "clfdr_stepup_threshold",
        "oracle_thresholds",
        "select_bh",
        "select_clfdr_stepup",
        "select_dd",
        "select_oracle",
    ),
    "rvalue": (
        "RValueTable",
        "dd_alpha_evaluator",
        "dd_mu0_evaluator",
        "default_alpha_grid",
        "default_mu0_grid",
        "rvalue_vary_alpha",
        "rvalue_vary_mu0",
    ),
    "sim": (
        "CorrelatedTwoGroup",
        "MethodSummary",
        "Replicate",
        "ReplicationReport",
        "SimDesign",
        "TwoComponent",
        "UniformIndep",
        "generate",
        "joint_model",
        "run_replications",
    ),
}
_HOME = {name: module for module, names in _LAZY.items() for name in names}


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_HOME})

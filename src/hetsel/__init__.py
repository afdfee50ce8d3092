"""Prioritized ranking and selection with FDR control for heteroscedastic units.

The package estimates the effect-size prior nonparametrically, scores each
unit by its conditional local FDR, selects units by trading observed effect
size against error budget, and ranks them by r-values. A simulation harness
and a small CLI tie the pieces together.

The public names are those in the ``__all__`` of the library modules, and
each is served on first use (PEP 562), so ``import hetsel`` loads no numpy.
A name is looked up in ``model``, ``deconv``, ``selection``, ``rvalue``,
``law`` and ``sim``, in that order, importing each until one declares it;
so ``hetsel.TruePrior`` also loads ``selection`` and ``rvalue`` before
``law``, and ``dir(hetsel)`` imports all six. ``cli`` is never searched:
importing it sets ``OPENBLAS_NUM_THREADS``. The commands import the modules
they need directly and do not come through here.
"""

import importlib

__version__ = "0.1.0"

_MODULES = ("model", "deconv", "selection", "rvalue", "law", "sim")


def __getattr__(name):
    if not name.startswith("_"):
        for module_name in _MODULES:
            module = importlib.import_module(f".{module_name}", __name__)
            if name in module.__all__:
                value = globals()[name] = getattr(module, name)
                return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    public = (n for m in _MODULES for n in importlib.import_module(f".{m}", __name__).__all__)
    return sorted({*globals(), *public})

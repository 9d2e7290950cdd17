"""Dense coding over correlated dephasing environments.

A numpy toolkit for the noisy superdense-coding protocol: two-qubit state
algebra, correlated Gaussian dephasing stages, Bell-measurement statistics,
closed-form capacities and mutual information, counting-statistics error
bars, least-squares parameter fits and linear-inversion tomography.

Importing the package loads no submodule and so no numpy (PEP 562).  A
public name, declared once in its module's ``__all__``, imports the library
modules in dependency order up to the first that declares it, so an
experiment name also loads config.  ``dir()`` and ``__all__`` load all five.
"""

import importlib
import os

__version__ = "0.1.0"

# Dependency order: each module imports only modules before it.
_LIBRARY = ("states", "environment", "protocol", "config", "experiment")


def __getattr__(name: str):
    # Not cached in the package namespace: a name always gives its
    # submodule's current binding.
    if name in _LIBRARY or name == "cli":
        return importlib.import_module(f"{__name__}.{name}")
    modules = (importlib.import_module(f"{__name__}.{module}") for module in _LIBRARY)
    if name == "__all__":
        return sorted(public for module in modules for public in module.__all__)
    if not name.startswith("_"):
        for module in modules:
            if name in module.__all__:
                return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | {*_LIBRARY, "cli"} | set(__getattr__("__all__")))


def _use_one_blas_thread() -> None:
    """Default every BLAS thread pool to one thread; a count the user set wins.

    Only command-line entry points call this, before numpy is first
    imported: BLAS reads these variables once, when numpy loads it.  The
    package factors only 4 x 4 stacks, which BLAS never splits over threads,
    so extra threads only spin.
    """
    for variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(variable, "1")


def main() -> int:
    """Entry point of the installed ``densecoding`` script."""
    import gc  # here: a library import of the package loads nothing new

    _use_one_blas_thread()
    from .cli import main as cli_main

    # Frozen, the import-time heap is never walked again by a collection, in
    # the run or at exit; reference counting still frees it.
    gc.freeze()
    return cli_main()

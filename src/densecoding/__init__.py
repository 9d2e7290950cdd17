"""Dense coding over correlated dephasing environments.

A numpy toolkit for the noisy superdense-coding protocol: two-qubit state
algebra, correlated Gaussian dephasing stages, Bell-measurement statistics,
closed-form capacities and mutual information, counting-statistics error
bars, least-squares parameter fits and linear-inversion tomography.

Importing the package loads no submodule and so no numpy (PEP 562).  A
public name, declared once in its module's ``__all__``, imports the library
modules in dependency order up to the first that declares it; a ``config``
name loads no numpy.  ``dir()`` and ``__all__`` load all five.  Two submodules
declare no public name: ``cli``, and ``tomography``, the plain-Python kernel
that ``tomo`` computes with and ``states`` wraps.
"""

import importlib

__version__ = "0.1.0"

# Dependency order: each module imports only modules before it.
_LIBRARY = ("config", "states", "environment", "protocol", "experiment")
# Submodules that declare no public name, so no lookup imports them.
_UNLISTED = ("tomography", "cli")


def __getattr__(name: str):
    # Not cached in the package namespace: a name always gives its
    # submodule's current binding.
    if name in _LIBRARY or name in _UNLISTED:
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
    return sorted(set(globals()) | {*_LIBRARY, *_UNLISTED} | set(__getattr__("__all__")))


def main() -> int:
    """Entry point of the installed ``densecoding`` script."""
    from .cli import _process_main

    return _process_main()

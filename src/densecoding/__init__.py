"""Dense coding over correlated dephasing environments.

A numpy toolkit for the noisy superdense-coding protocol: two-qubit state
algebra, correlated Gaussian dephasing stages, Bell-measurement statistics,
closed-form capacities and mutual information, counting-statistics error
bars, least-squares parameter fits and linear-inversion tomography.

Importing the package loads no submodule and so no numpy.  The first use
of a public name or a submodule imports that submodule (PEP 562).
"""

import importlib
import os

__version__ = "0.1.0"

_EXPORTS = {
    "config": ("ConfigError", "RunConfig", "default_config", "parse_config"),
    "environment": (
        "DephasingTimes", "JointSpectrum", "decoherence_function", "dephasing_mask",
        "evolve_pre_encoding", "joint_dephasing_factor", "non_markovianity",
    ),
    "experiment": (
        "CountTable", "FitResult", "SweepRow", "estimate_mi_with_errors",
        "expected_tomography_counts", "fit_k_s", "fit_result_to_csv",
        "reconstruct_linear_inversion", "run_sweep", "sample_counts",
        "sweep_rows_to_csv", "tomography_counts",
    ),
    "protocol": (
        "BELL_OUTPUT_ORDER", "ConditionalTable", "EncodingScheme", "NoiseOrder",
        "SECTOR_PARTNER", "SchemeVariant", "capacity_bob_noise",
        "capacity_from_non_markovianity", "capacity_pre_encoding", "closed_form_mi",
        "closed_form_mi3", "closed_form_mi4", "conditional_probabilities",
        "effective_visibility", "mutual_information", "simulate_protocol",
    ),
    "states": (
        "BASIS_LABELS", "BELL_FOR_PAULI", "BellLabel", "InvariantViolation",
        "PAULI_FOR_BELL", "Party", "PauliLabel", "apply_pauli", "bell_state",
        "binary_entropy", "concurrence", "dense_coding_capacity",
        "density_matrix_from_text", "density_matrix_to_text", "fidelity",
        "partial_trace", "validate_density_matrix", "von_neumann_entropy",
    ),
}
_SUBMODULES = frozenset(_EXPORTS) | {"cli"}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    # Not cached in the package namespace: a name always gives its
    # submodule's current binding.
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _MODULE_OF:
        return getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | _SUBMODULES | set(__all__))


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

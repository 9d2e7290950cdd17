"""Counting statistics, least-squares fitting, tomography and noise sweeps.

Everything random is driven by explicit integer seeds through
``numpy.random.default_rng``; per-trial and per-row streams are derived
with ``SeedSequence`` so results are independent of execution order.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .environment import DephasingTimes, JointSpectrum, decoherence_function, evolve_pre_encoding
from .protocol import (
    ConditionalTable,
    EncodingScheme,
    NoiseOrder,
    SchemeVariant,
    _mi3_from_x,
    _mi4_from_x,
    mutual_information,
    simulate_protocol,
)
from .states import BellLabel, concurrence, validate_density_matrix

__all__ = [
    "CountTable",
    "FitResult",
    "SweepRow",
    "TOMOGRAPHY_SETTINGS",
    "estimate_mi_with_errors",
    "expected_tomography_counts",
    "fit_k_s",
    "fit_result_to_csv",
    "reconstruct_linear_inversion",
    "run_sweep",
    "sample_counts",
    "sweep_rows_to_csv",
    "tomography_counts",
]


@dataclass(frozen=True)
class CountTable:
    """Multinomial outcome counts, one row of four Bell outcomes per input."""

    inputs: tuple[BellLabel, ...]
    outputs: tuple[BellLabel, ...]
    counts: np.ndarray
    n_per_input: int

    def __post_init__(self) -> None:
        c = np.asarray(self.counts, dtype=np.int64)
        if c.shape != (len(self.inputs), len(self.outputs)):
            raise ValueError(f"count matrix shape {c.shape} mismatches labels")
        if np.any(c < 0) or np.any(c.sum(axis=1) != self.n_per_input):
            raise ValueError("each input's counts must be non-negative and sum to n_per_input")
        c.setflags(write=False)
        object.__setattr__(self, "counts", c)


@dataclass(frozen=True)
class SweepRow:
    """One noise setting of a mutual-information-vs-concurrence sweep."""

    t_a: float
    kappa_abs: float
    concurrence: float
    mi_theory: float
    mi_mc_mean: float
    mi_mc_std: float
    scheme: SchemeVariant


@dataclass(frozen=True)
class FitResult:
    """Least-squares estimate of the correlation coefficient and offset."""

    k_hat: float
    s_hat: float
    residual_sum_squares: float
    n_points: int


def _derived_seed(*parts: int) -> int:
    """Deterministic child seed from a tuple of integers."""
    return int(np.random.SeedSequence(list(parts)).generate_state(1, np.uint64)[0])


def sample_counts(table: ConditionalTable, n_per_input: int, seed: int) -> CountTable:
    """Draw one multinomial shot table from the model probabilities.

    Each input symbol receives ``n_per_input`` shots; identical arguments
    give identical counts.
    """
    if n_per_input <= 0:
        raise ValueError(f"n_per_input must be positive, got {n_per_input}")
    rng = np.random.default_rng(seed)
    rows = []
    for row in table.p_y_given_x:
        p = np.clip(row, 0.0, None)
        rows.append(rng.multinomial(n_per_input, p / p.sum()))
    return CountTable(table.inputs, table.outputs, np.array(rows), n_per_input)


def _plugin_mi(counts: CountTable, scheme: EncodingScheme) -> float:
    """Mutual information of the empirical frequency table (offset-free)."""
    freq = counts.counts / counts.n_per_input
    table = ConditionalTable(counts.inputs, counts.outputs, freq)
    return mutual_information(scheme, table, 0.0)


def estimate_mi_with_errors(table: ConditionalTable, scheme: EncodingScheme,
                            n_per_input: int, trials: int, seed: int,
                            ) -> tuple[float, float]:
    """Parametric-bootstrap mean and standard deviation of the plug-in MI.

    Runs ``trials`` independent count tables, computes the plug-in mutual
    information of each (offset-free) and returns the sample mean and the
    sample standard deviation.
    """
    if trials < 2:
        raise ValueError(f"trials must be at least 2, got {trials}")
    values = np.empty(trials)
    for trial in range(trials):
        counts = sample_counts(table, n_per_input, _derived_seed(seed, trial))
        values[trial] = _plugin_mi(counts, scheme)
    return float(values.mean()), float(values.std(ddof=1))


def _rss_surface(kappas: np.ndarray, mis: np.ndarray, variant: SchemeVariant,
                 k_grid: np.ndarray, s_grid: np.ndarray) -> np.ndarray:
    """Residual sum of squares of the closed-form model over a (k, s) grid."""
    model = _mi3_from_x if variant is SchemeVariant.THREE_STATE else _mi4_from_x
    rss = np.zeros((k_grid.size, s_grid.size))
    for kappa, mi in zip(kappas, mis):
        x = kappa ** (2.0 + 2.0 * k_grid)
        f = model(x)
        resid = np.maximum(f[:, None] - s_grid[None, :], 0.0) - mi
        rss += resid * resid
    return rss


def _pick_minimum(rss: np.ndarray, k_grid: np.ndarray, s_grid: np.ndarray,
                  ) -> tuple[float, float, float]:
    """Grid point of least RSS; ties go to smaller |k|, then smaller s."""
    best = rss.min()
    ii, jj = np.nonzero(rss == best)
    order = np.lexsort((s_grid[jj], np.abs(k_grid[ii])))
    pick = order[0]
    return float(k_grid[ii[pick]]), float(s_grid[jj[pick]]), float(best)


def _centered_grid(center: float, step: float, lo: float, hi: float) -> np.ndarray:
    grid = center + step * np.arange(-10, 11)
    grid = np.clip(grid, lo, hi)
    return np.unique(grid)


def fit_k_s(points, variant: SchemeVariant) -> FitResult:
    """Bounded least-squares fit of (k, s) to measured (kappa_abs, mi) pairs.

    Deterministic derivative-free search: a coarse grid with steps
    (0.01 in k, 0.001 in s) followed by two local refinement passes that each
    shrink the steps tenfold.  Ties are broken toward smaller |k|, then
    smaller s.
    """
    pts = [(float(k), float(m)) for k, m in points]
    if len(pts) < 2:
        raise ValueError(f"need at least 2 points to fit, got {len(pts)}")
    kappas = np.array([p[0] for p in pts])
    mis = np.array([p[1] for p in pts])
    if np.any(kappas <= 0.0) or np.any(kappas > 1.0):
        raise ValueError("kappa_abs values must lie in (0, 1]")

    k_step, s_step = 0.01, 0.001
    k_grid = np.arange(-1.0, 1.0 + k_step / 2, k_step)
    s_grid = np.arange(0.0, 1.0 + s_step / 2, s_step)
    k_hat, s_hat, rss = _pick_minimum(
        _rss_surface(kappas, mis, variant, k_grid, s_grid), k_grid, s_grid)

    for _ in range(2):
        k_grid = _centered_grid(k_hat, k_step / 10, -1.0, 1.0)
        s_grid = _centered_grid(s_hat, s_step / 10, 0.0, math.inf)
        k_hat, s_hat, rss = _pick_minimum(
            _rss_surface(kappas, mis, variant, k_grid, s_grid), k_grid, s_grid)
        k_step, s_step = k_step / 10, s_step / 10

    return FitResult(k_hat, s_hat, rss, len(pts))


# --- linear-inversion tomography -------------------------------------------

_KETS = {
    "H": np.array([1.0, 0.0], dtype=complex),
    "V": np.array([0.0, 1.0], dtype=complex),
    "D": np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0),
    "L": np.array([1.0, 1.0j], dtype=complex) / np.sqrt(2.0),
}

#: The sixteen product settings (Alice ket, Bob ket), row-major in Alice.
TOMOGRAPHY_SETTINGS = tuple(itertools.product("HVDL", repeat=2))


def _tomography_projectors() -> list[np.ndarray]:
    projectors = []
    for a, b in TOMOGRAPHY_SETTINGS:
        ket = np.kron(_KETS[a], _KETS[b])
        proj = np.outer(ket, ket.conj())
        proj.setflags(write=False)
        projectors.append(proj)
    return projectors


_PROJECTORS = _tomography_projectors()
# Design matrix of the linear state-to-frequency map; row i is chosen so that
# A @ rho.flatten() gives Tr(P_i rho).
_DESIGN = np.array([p.T.flatten() for p in _PROJECTORS])
assert np.linalg.matrix_rank(_DESIGN) == 16, "tomography design matrix is singular"
_DESIGN_INV = np.linalg.inv(_DESIGN)
_DESIGN.setflags(write=False)
_DESIGN_INV.setflags(write=False)


def expected_tomography_counts(rho: np.ndarray, n_per_projector: float) -> np.ndarray:
    """Noise-free expected counts n * <P_i> for the sixteen settings."""
    rho = validate_density_matrix(rho, dim=4)
    probs = np.array([float(np.trace(p @ rho).real) for p in _PROJECTORS])
    return n_per_projector * np.clip(probs, 0.0, 1.0)


def tomography_counts(rho: np.ndarray, n_per_projector: int, seed: int) -> np.ndarray:
    """Binomially sampled counts for the sixteen projective settings."""
    if n_per_projector <= 0:
        raise ValueError(f"n_per_projector must be positive, got {n_per_projector}")
    probs = expected_tomography_counts(rho, 1.0)
    rng = np.random.default_rng(seed)
    return rng.binomial(n_per_projector, probs)


def reconstruct_linear_inversion(counts, n_per_projector: float) -> np.ndarray:
    """Density matrix from sixteen projector counts by linear inversion.

    The raw inverse is Hermitized, projected onto the positive cone
    (negative eigenvalues from finite statistics are clamped to zero) and
    trace-normalized.  On exact expected counts this is the identity map.
    """
    freq = np.asarray(counts, dtype=float) / float(n_per_projector)
    if freq.shape != (16,):
        raise ValueError(f"expected 16 counts, got shape {freq.shape}")
    rho = (_DESIGN_INV @ freq).reshape(4, 4)
    rho = (rho + rho.conj().T) / 2.0
    vals, vecs = np.linalg.eigh(rho)
    vals = np.clip(vals, 0.0, None)
    total = vals.sum()
    if total <= 0:
        raise ValueError("reconstruction gives a zero state; counts unusable")
    rho = (vecs * (vals / total)) @ vecs.conj().T
    return validate_density_matrix(rho, dim=4)


def run_sweep(spec: JointSpectrum, time_grid, scheme: EncodingScheme,
              n_per_input: int, trials: int, seed: int, s: float = 0.0,
              noise_order: NoiseOrder = NoiseOrder.NOISE_BEFORE_ENCODING,
              ) -> list[SweepRow]:
    """One row per noise duration: the mutual-information-vs-concurrence dataset.

    For every t the row records |kappa|, the concurrence recovered through
    the exact tomography pipeline (equal to |kappa| for this state family),
    the Born-rule mutual information of the simulated channel minus s, and
    the parametric-bootstrap mean and standard deviation.  The offset s is
    subtracted from the bootstrap mean so the column models the measured
    mutual information the theory column is fitted to.
    """
    grid = [float(t) for t in time_grid]
    if not grid:
        raise ValueError("time grid must not be empty")
    rows = []
    for index, t in enumerate(grid):
        kappa_abs = abs(decoherence_function(spec, t))
        state = evolve_pre_encoding(spec, t)
        counts = expected_tomography_counts(state, float(n_per_input))
        conc = concurrence(reconstruct_linear_inversion(counts, float(n_per_input)))
        table = simulate_protocol(spec, DephasingTimes(t, t), scheme, noise_order)
        theory = mutual_information(scheme, table, s)
        mean, std = estimate_mi_with_errors(
            table, scheme, n_per_input, trials, _derived_seed(seed, index))
        rows.append(SweepRow(t, kappa_abs, conc, theory,
                             max(0.0, mean - s), std, scheme.variant))
    return rows


def sweep_rows_to_csv(rows) -> str:
    """Sweep CSV with header t_a,kappa_abs,concurrence,mi_theory,mi_mc_mean,mi_mc_std,scheme."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["t_a", "kappa_abs", "concurrence", "mi_theory",
                     "mi_mc_mean", "mi_mc_std", "scheme"])
    for r in rows:
        writer.writerow([f"{r.t_a:.17g}", f"{r.kappa_abs:.17g}", f"{r.concurrence:.17g}",
                         f"{r.mi_theory:.17g}", f"{r.mi_mc_mean:.17g}",
                         f"{r.mi_mc_std:.17g}", r.scheme.value])
    return buf.getvalue()


def fit_result_to_csv(result: FitResult) -> str:
    """Fit CSV with header k_hat,s_hat,rss,n_points."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["k_hat", "s_hat", "rss", "n_points"])
    writer.writerow([f"{result.k_hat:.17g}", f"{result.s_hat:.17g}",
                     f"{result.residual_sum_squares:.17g}", result.n_points])
    return buf.getvalue()

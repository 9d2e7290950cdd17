"""Counting statistics, least-squares fitting, tomography and noise sweeps.

Everything random is driven by explicit integer seeds through
``numpy.random.default_rng``.  A bootstrap draws all its trials from one
stream; sweep row i bootstraps from its own stream, derived from
(seed, i) with ``SeedSequence``, so a row's values do not depend on which
other rows are computed with it.
"""

from __future__ import annotations

import csv
import functools
import io
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .environment import JointSpectrum, _characteristic_function, _pre_encoding_states
from .protocol import (
    ConditionalTable,
    EncodingScheme,
    NoiseOrder,
    SchemeVariant,
    _born_tables,
    _checked_probabilities,
    _mi_bits,
    _mi_curve,
)
from .states import BellLabel, _concurrences, validate_density_matrix

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
    counts = _draw_counts(table.p_y_given_x, n_per_input, 1, seed)[0]
    return CountTable(table.inputs, table.outputs, counts, n_per_input)


def _draw_counts(p: np.ndarray, n_per_input: int, trials: int, seeds) -> np.ndarray:
    """Count tables (tables, trials, inputs, outcomes) for p(y|x) tables
    (tables, inputs, outcomes), clipped and normalised as one stack.  Table j
    takes one multinomial call on the stream of seeds[j], consumed trial by
    trial, input by input.  One table and one int seed give (trials, inputs,
    outcomes)."""
    if n_per_input <= 0:
        raise ValueError(f"n_per_input must be positive, got {n_per_input}")
    if np.ndim(p) == 2:
        return _draw_counts(np.asarray(p)[None], n_per_input, trials, [seeds])[0]
    p = np.clip(p, 0.0, None)
    p /= p.sum(axis=-1, keepdims=True)
    return np.stack([np.random.default_rng(seed).multinomial(
        n_per_input, q, size=(trials, q.shape[0])) for q, seed in zip(p, seeds)])


def _bootstrap_stats(priors: np.ndarray, counts: np.ndarray,
                     n_per_input: int) -> tuple[np.ndarray, np.ndarray]:
    """Mean and sample std over trials of the clamped, offset-free plug-in MI of
    count tables (..., trials, inputs, outcomes); equal values give that value and 0."""
    values = np.maximum(0.0, _mi_bits(priors, counts / n_per_input))
    constant = np.all(values == values[..., :1], axis=-1)
    return (np.where(constant, values[..., 0], values.mean(axis=-1)),
            np.where(constant, 0.0, values.std(axis=-1, ddof=1)))


def estimate_mi_with_errors(table: ConditionalTable, scheme: EncodingScheme,
                            n_per_input: int, trials: int, seed: int,
                            ) -> tuple[float, float]:
    """Parametric-bootstrap mean and standard deviation of the plug-in MI.

    Draws ``trials`` independent count tables from the stream of ``seed``
    (trial 0 is ``sample_counts(table, n_per_input, seed)``), computes the
    plug-in mutual information of each (offset-free) and returns the sample
    mean and the sample standard deviation.
    """
    if trials < 2:
        raise ValueError(f"trials must be at least 2, got {trials}")
    if table.inputs != scheme.alphabet:
        raise ValueError("table inputs do not match the scheme alphabet")
    counts = _draw_counts(table.p_y_given_x, n_per_input, trials, seed)
    mean, std = _bootstrap_stats(np.asarray(scheme.priors), counts, n_per_input)
    return float(mean), float(std)


# k rows of the RSS profile per pass, so its temporaries stay near 100 KB.
_PROFILE_ROWS = 16
# Moves of a refinement window along a valley before it stops regardless.
_MAX_WINDOW_MOVES = 100


def _best_offsets(kappas: np.ndarray, mis: np.ndarray, curve,
                  k_grid: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Least-squares offset s >= 0 for each k, and the RSS at that offset.

    For fixed k, RSS(s) sums (f - s - m)^2 over f > s and m^2 over the rest.
    Between consecutive sorted model values f it is one quadratic in s, and
    past the largest f it is the constant sum of m^2.  Running sums of d^2
    and d (d = f - m) above each piece and of m^2 below it give every
    piece's minimiser, clipped to its interval; the least s of least value
    is kept, and the row's RSS is summed directly at it."""
    s_hat = np.empty(k_grid.size)
    rss = np.empty(k_grid.size)
    above = kappas.size - np.arange(kappas.size + 1)  # points with f > s, piece by piece
    for lo in range(0, k_grid.size, _PROFILE_ROWS):
        f = curve(kappas, k_grid[lo:lo + _PROFILE_ROWS, None])
        order = np.argsort(f, axis=1)
        # At s >= 0, max(f - s, 0) is the same for f and max(f, 0): pieces start at 0.
        f_sorted, m = np.maximum(np.take_along_axis(f, order, axis=1), 0.0), mis[order]
        d = f_sorted - m
        d2_above, d_above = np.pad(np.cumsum(np.stack([d * d, d])[..., ::-1], axis=-1),
                                   ((0, 0), (0, 0), (1, 0)))[..., ::-1]
        m2_below = np.pad(np.cumsum(m * m, axis=-1), ((0, 0), (1, 0)))
        ends = np.pad(f_sorted, ((0, 0), (1, 1)), constant_values=(0.0, np.inf))
        s = np.clip(d_above / np.maximum(above, 1), ends[:, :-1], ends[:, 1:])
        value = d2_above - 2.0 * s * d_above + above * s * s + m2_below
        s = np.take_along_axis(s, np.argmin(value, axis=1)[:, None], axis=1)
        resid = np.maximum(f - s, 0.0) - mis
        s_hat[lo:lo + f.shape[0]] = s[:, 0]
        rss[lo:lo + f.shape[0]] = np.einsum("kp,kp->k", resid, resid)
    return s_hat, rss


def fit_k_s(points, variant: SchemeVariant, variance_ratio: float = 1.0,
            noise_order: NoiseOrder = NoiseOrder.NOISE_BEFORE_ENCODING) -> FitResult:
    """Bounded least-squares fit of (k, s) to measured (kappa_abs, mi) pairs.

    The model is the uniform-prior MI at equal stage times, minus s, for the
    ratio r = c_bb / c_aa and the noise order; the defaults are ``closed_form_mi``.
    Deterministic search over k alone: for each k the offset s >= 0 is
    exact (see ``_best_offsets``), so no s grid bounds it.  k runs over the
    multiples of 0.01 in [-1, 1], then over two refinement levels on the
    lattices of steps 0.001 and 0.0001.  A level searches 21 lattice points
    around the current optimum and re-centres them while the optimum lies
    on a window end that is not -1 or 1, so it follows the valley along
    which k and s trade off.  Ties go to smaller |k|, then smaller s, then
    smaller k: a curve even in k, as the four-state one after the encoding
    is, reports k <= 0.
    """
    pts = np.array([(float(k), float(m)) for k, m in points]).reshape(-1, 2)
    if len(pts) < 2:
        raise ValueError(f"need at least 2 points to fit, got {len(pts)}")
    if not np.all(np.isfinite(pts)):
        raise ValueError("kappa_abs and mi values must be finite")
    kappas, mis = pts.T
    if np.any(kappas <= 0.0) or np.any(kappas > 1.0):
        raise ValueError("kappa_abs values must lie in (0, 1]")
    if not (math.isfinite(variance_ratio) and variance_ratio > 0.0):
        raise ValueError(f"variance_ratio must be positive, got {variance_ratio}")
    curve = functools.partial(_mi_curve, variant=variant, variance_ratio=variance_ratio,
                              noise_order=noise_order)

    # k = n / scale for integers n, so a lattice value is the same float on
    # every level and n and -n give exactly opposite k.
    lattice, n_hat = np.arange(-100, 101), 0
    for scale in (100, 1_000, 10_000):
        for _ in range(_MAX_WINDOW_MOVES):
            if scale > 100:
                lattice = np.unique(np.clip(n_hat + np.arange(-10, 11), -scale, scale))
            k_grid = lattice / scale
            offsets, rss = _best_offsets(kappas, mis, curve, k_grid)
            tied = np.flatnonzero(rss == rss.min())
            best = tied[np.lexsort((k_grid[tied], offsets[tied], np.abs(k_grid[tied])))[0]]
            n_hat = int(lattice[best])
            if not (n_hat == lattice[0] > -scale or n_hat == lattice[-1] < scale):
                break
        n_hat *= 10

    return FitResult(float(k_grid[best]), float(offsets[best]), float(rss[best]), kappas.size)


# --- linear-inversion tomography -------------------------------------------

_KETS = {
    "H": np.array([1.0, 0.0], dtype=complex),
    "V": np.array([0.0, 1.0], dtype=complex),
    "D": np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0),
    "L": np.array([1.0, 1.0j], dtype=complex) / np.sqrt(2.0),
}

#: The sixteen product settings (Alice ket, Bob ket), row-major in Alice.
TOMOGRAPHY_SETTINGS = tuple(itertools.product("HVDL", repeat=2))


# Design matrix of the linear state-to-frequency map: row i is the transpose
# of the projector |a b><a b| of setting i, flattened, so that
# A @ rho.flatten() gives Tr(P_i rho).
_DESIGN = np.array([np.kron(ket.conj(), ket) for ket in
                    (np.kron(_KETS[a], _KETS[b]) for a, b in TOMOGRAPHY_SETTINGS)])
assert np.linalg.matrix_rank(_DESIGN) == 16, "tomography design matrix is singular"
_DESIGN_INV = np.linalg.inv(_DESIGN)
_DESIGN.setflags(write=False)
_DESIGN_INV.setflags(write=False)


def expected_tomography_counts(rho: np.ndarray, n_per_projector: float) -> np.ndarray:
    """Noise-free expected counts n * <P_i> for the sixteen settings."""
    return n_per_projector * _tomography_probabilities(validate_density_matrix(rho, dim=4))


def _tomography_probabilities(rho: np.ndarray) -> np.ndarray:
    """Tr(P_i rho) clipped to [0, 1] for states shaped (..., 4, 4): (..., 16).

    An einsum, not ``@``: BLAS would pick gemm or gemv by the stack size, and
    a state's last bit would then depend on the states stacked with it."""
    probs = np.einsum("pk,...k->...p", _DESIGN, rho.reshape(rho.shape[:-2] + (16,))).real
    return np.clip(probs, 0.0, 1.0)


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
    counts = np.asarray(counts, dtype=float)
    if counts.shape != (16,):
        raise ValueError(f"expected 16 counts, got shape {counts.shape}")
    if not np.all(np.isfinite(counts) & (counts >= 0.0)):
        raise ValueError(f"counts must be finite and non-negative, got {counts}")
    n = float(n_per_projector)
    if not (math.isfinite(n) and n > 0.0):
        raise ValueError(f"n_per_projector must be finite and positive, got {n_per_projector}")
    return validate_density_matrix(_reconstruct(counts / n), dim=4)


def _reconstruct(freq: np.ndarray) -> np.ndarray:
    """Unvalidated linear inversion of frequencies shaped (..., 16): (..., 4, 4)."""
    rho = (_DESIGN_INV @ freq[..., None]).reshape(freq.shape[:-1] + (4, 4))
    rho = (rho + rho.conj().swapaxes(-1, -2)) / 2.0
    vals, vecs = np.linalg.eigh(rho)
    vals = np.clip(vals, 0.0, None)
    total = vals.sum(axis=-1, keepdims=True)
    if np.any(total <= 0):
        raise ValueError("reconstruction gives a zero state; counts unusable")
    return (vecs * (vals / total)[..., None, :]) @ vecs.conj().swapaxes(-1, -2)


# Bootstrap count tables (rows x trials) per block of stacked rows, so 128
# rows at two trials.  Blocks bound memory only: no value of a row depends
# on the other rows of its block.
_TABLES_PER_BLOCK = 256


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

    Row i equals the scalar route at its t: ``evolve_pre_encoding``,
    ``expected_tomography_counts``, ``reconstruct_linear_inversion`` and
    ``concurrence``; ``simulate_protocol`` and ``mutual_information``; and
    ``estimate_mi_with_errors`` with seed ``_derived_seed(seed, i)``.  Rows
    are computed as stacked arrays, a block at a time; a block's tables are
    normalised once, as one stack.  The arguments and the Born tables are
    checked; the density-matrix stacks built here are states by
    construction and are not validated again.
    """
    grid = np.array([float(t) for t in time_grid])
    if grid.size == 0 or not np.all(np.isfinite(grid) & (grid >= 0.0)):
        raise ValueError(f"time grid must be non-empty, finite and non-negative: {grid}")
    if n_per_input <= 0:
        raise ValueError(f"n_per_input must be positive, got {n_per_input}")
    if trials < 2:
        raise ValueError(f"trials must be at least 2, got {trials}")
    if s < 0:
        raise ValueError(f"s must be non-negative, got {s}")
    priors = np.asarray(scheme.priors)
    n = float(n_per_input)
    block = max(1, _TABLES_PER_BLOCK // trials)
    rows = []
    for start in range(0, grid.size, block):
        t = grid[start:start + block]
        kappa = _characteristic_function(spec, spec.delta_n * t, 0.0)
        # hypot, as Python's abs(complex) in decoherence_function; np.abs can
        # differ in the last bit.
        kappa_abs = np.hypot(kappa.real, kappa.imag)
        # Counts n * p divided by n again, as the scalar route rounds them.
        counts = n * _tomography_probabilities(_pre_encoding_states(spec, t))
        conc = _concurrences(_reconstruct(counts / n))
        tables = _checked_probabilities(_born_tables(spec, t, t, scheme, noise_order))
        theory = np.maximum(0.0, _mi_bits(priors, tables) - s)
        draws = _draw_counts(tables, n_per_input, trials,
                             [_derived_seed(seed, i) for i in range(start, start + t.size)])
        mean, std = _bootstrap_stats(priors, draws, n_per_input)
        rows.extend(SweepRow(*values, scheme.variant) for values in zip(
            t.tolist(), kappa_abs.tolist(), conc.tolist(), theory.tolist(),
            np.maximum(0.0, mean - s).tolist(), std.tolist()))
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

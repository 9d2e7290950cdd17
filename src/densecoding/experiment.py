"""Counting statistics, least-squares fitting, tomography and noise sweeps.

Everything random is driven by explicit integer seeds through
``numpy.random.default_rng``.  A bootstrap draws all its trials from one
stream; sweep row i bootstraps from its own stream, derived from
(seed, i) with ``SeedSequence``, so a row's values do not depend on which
other rows are computed with it.
"""

from __future__ import annotations

import csv
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
    _mi3_from_x,
    _mi4_from_x,
    _mi_bits,
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


# Entries of the (points, k, s) residual array held at once: a 21 x 21
# refinement window takes a few hundred points at a time.
_RSS_CELLS = 1 << 17
# k rows of the coarse profile per pass, so its temporaries stay near 100 KB.
_PROFILE_ROWS = 16
# Moves of a refinement window along a valley before it stops regardless.
_MAX_WINDOW_MOVES = 100


def _rss_surface(kappas: np.ndarray, mis: np.ndarray, model,
                 k_grid: np.ndarray, s_grid: np.ndarray) -> np.ndarray:
    """Residual sum of squares of the closed-form model over a (k, s) grid."""
    chunk = max(1, _RSS_CELLS // (k_grid.size * s_grid.size))
    rss = np.zeros((k_grid.size, s_grid.size))
    for lo in range(0, kappas.size, chunk):
        f = model(kappas[lo:lo + chunk, None] ** (2.0 + 2.0 * k_grid))
        resid = f[:, :, None] - s_grid
        np.maximum(resid, 0.0, out=resid)
        resid -= mis[lo:lo + chunk, None, None]
        rss += np.einsum("pks,pks->ks", resid, resid)
    return rss


def _rss_profile(kappas: np.ndarray, mis: np.ndarray, model,
                 k_grid: np.ndarray, s_grid: np.ndarray) -> tuple[np.ndarray, float]:
    """RSS over a (k, s) grid, and the largest k row's sum(d^2) + sum(m^2).

    For fixed k, RSS(s) sums (f - s - m)^2 over f > s and m^2 over the rest,
    so with f sorted, running sums of d^2, d (d = f - m) and m^2 give every
    s by one searchsorted."""
    profile = np.empty((k_grid.size, s_grid.size))
    scale = 0.0
    for lo in range(0, k_grid.size, _PROFILE_ROWS):
        f = model(kappas ** (2.0 + 2.0 * k_grid[lo:lo + _PROFILE_ROWS, None]))
        order = np.argsort(f, axis=1)
        f, m = np.take_along_axis(f, order, axis=1), mis[order]
        sums = np.pad(np.cumsum([(f - m) ** 2, f - m, m * m], axis=-1), ((0, 0), (0, 0), (1, 0)))
        # side="right": max(f - s, 0) puts f == s with the points below s.
        j = np.stack([np.searchsorted(row, s_grid, side="right") for row in f])
        d2_below, d_below, m2_below = np.take_along_axis(sums, j[None], axis=-1)
        d2_total, d_total, m2_total = sums[..., -1:]
        profile[lo:lo + f.shape[0]] = (d2_total - d2_below - 2.0 * s_grid * (d_total - d_below)
                                       + s_grid * s_grid * (kappas.size - j) + m2_below)
        scale = max(scale, float(np.max(d2_total + m2_total)))
    return profile, scale


def _coarse_surface(kappas: np.ndarray, mis: np.ndarray, model,
                    k_grid: np.ndarray, s_grid: np.ndarray) -> np.ndarray:
    """RSS over a (k, s) grid: exact on the cells the profile puts near its
    minimum, +inf elsewhere, so ties break as on the fully evaluated grid."""
    surface, scale = _rss_profile(kappas, mis, model, k_grid, s_grid)
    near = surface <= surface.min() + 1e-9 * (1.0 + scale)
    rows, cols = (slice(i.min(), i.max() + 1) for i in np.nonzero(near))
    exact = _rss_surface(kappas, mis, model, k_grid[rows], s_grid[cols])
    surface.fill(np.inf)
    surface[rows, cols] = np.where(near[rows, cols], exact, np.inf)
    return surface


def _pick_minimum(rss: np.ndarray, k_grid: np.ndarray, s_grid: np.ndarray,
                  ) -> tuple[float, float, float]:
    """Grid point of least RSS; ties go to smaller |k|, then smaller s."""
    best = rss.min()
    ii, jj = np.nonzero(rss == best)
    pick = np.lexsort((s_grid[jj], np.abs(k_grid[ii])))[0]
    return float(k_grid[ii[pick]]), float(s_grid[jj[pick]]), float(best)


def _centered_grid(center: float, step: float, lo: float, hi: float) -> np.ndarray:
    return np.unique(np.clip(center + step * np.arange(-10, 11), lo, hi))


def _on_inner_edge(value: float, grid: np.ndarray, lo: float, hi: float) -> bool:
    """Whether value is an end of the window that is not a bound of the search."""
    return (value == grid[0] and grid[0] > lo) or (value == grid[-1] and grid[-1] < hi)


def fit_k_s(points, variant: SchemeVariant) -> FitResult:
    """Bounded least-squares fit of (k, s) to measured (kappa_abs, mi) pairs.

    Deterministic derivative-free search.  The coarse grid, with steps
    0.01 in k and 0.001 in s over s in [0, 1], is searched through an exact
    sorted profile per k (see ``_coarse_surface``).  When its optimum lies
    on the s = 1 edge, the search is repeated with s up to the largest
    model value (log2 3 or 2 bits).  Two refinement levels follow that each
    shrink the steps tenfold.  A level searches a 21 x 21 window around the
    current optimum and re-centres it while the optimum lies on an edge of
    the window that is not a bound (k in [-1, 1], s >= 0), so it follows
    the diagonal valley along which k and s trade off.  Ties are broken
    toward smaller |k|, then smaller s.
    """
    pts = np.array([(float(k), float(m)) for k, m in points]).reshape(-1, 2)
    if len(pts) < 2:
        raise ValueError(f"need at least 2 points to fit, got {len(pts)}")
    if not np.all(np.isfinite(pts)):
        raise ValueError("kappa_abs and mi values must be finite")
    kappas, mis = pts.T
    if np.any(kappas <= 0.0) or np.any(kappas > 1.0):
        raise ValueError("kappa_abs values must lie in (0, 1]")
    model = _mi3_from_x if variant is SchemeVariant.THREE_STATE else _mi4_from_x

    k_step, s_step = 0.01, 0.001
    k_grid = np.arange(-1.0, 1.0 + k_step / 2, k_step)
    s_grid = np.arange(0.0, 1.0 + s_step / 2, s_step)
    k_hat, s_hat, rss = _pick_minimum(
        _coarse_surface(kappas, mis, model, k_grid, s_grid), k_grid, s_grid)
    if s_hat == s_grid[-1]:
        # Past the largest model value, model(1) at k = -1, the RSS no
        # longer depends on s, so the widened grid covers every s that counts.
        s_grid = np.arange(0.0, float(model(1.0)) + s_step, s_step)
        k_hat, s_hat, rss = _pick_minimum(
            _coarse_surface(kappas, mis, model, k_grid, s_grid), k_grid, s_grid)

    for _ in range(2):
        k_step, s_step = k_step / 10, s_step / 10
        for _ in range(_MAX_WINDOW_MOVES):
            k_grid = _centered_grid(k_hat, k_step, -1.0, 1.0)
            s_grid = _centered_grid(s_hat, s_step, 0.0, math.inf)
            k_hat, s_hat, rss = _pick_minimum(
                _rss_surface(kappas, mis, model, k_grid, s_grid), k_grid, s_grid)
            if not (_on_inner_edge(k_hat, k_grid, -1.0, 1.0)
                    or _on_inner_edge(s_hat, s_grid, 0.0, math.inf)):
                break

    return FitResult(k_hat, s_hat, rss, kappas.size)


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
    freq = np.asarray(counts, dtype=float) / float(n_per_projector)
    if freq.shape != (16,):
        raise ValueError(f"expected 16 counts, got shape {freq.shape}")
    return validate_density_matrix(_reconstruct(freq), dim=4)


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

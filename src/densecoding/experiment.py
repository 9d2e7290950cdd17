"""Counting statistics, least-squares fitting, tomography and noise sweeps.

Everything random is driven by explicit integer seeds through
``numpy.random.default_rng``.  A bootstrap draws all its trials from one
stream, and a sweep draws all its rows from one stream, in row order: a
prefix of the time grid gives a prefix of the rows, and the block size
moves no byte, but a row's bootstrap depends on the rows before it.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

from .environment import JointSpectrum, _characteristic_function
from .protocol import (
    ConditionalTable,
    EncodingScheme,
    NoiseOrder,
    SchemeVariant,
    _checked_probabilities,
    _mi_bits,
    _mi_curve,
    _sector_tables,
)
from .states import BellLabel, _frozen_record, validate_density_matrix

__all__ = [
    "CountTable",
    "FitResult",
    "SweepRow",
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


@_frozen_record
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


@_frozen_record
class SweepRow:
    """One noise setting of a mutual-information-vs-concurrence sweep; the
    sender-stage state's concurrence is exactly |kappa_A(t)| = ``kappa_abs``."""

    t_a: float
    kappa_abs: float
    concurrence: float
    mi_theory: float
    mi_mc_mean: float
    mi_mc_std: float
    scheme: SchemeVariant


@_frozen_record
class FitResult:
    """Least-squares estimate of the correlation coefficient and offset."""

    k_hat: float
    s_hat: float
    residual_sum_squares: float
    n_points: int


def sample_counts(table: ConditionalTable, n_per_input: int, seed: int) -> CountTable:
    """Draw one multinomial shot table from the model probabilities.

    Each input symbol receives ``n_per_input`` shots; identical arguments
    give identical counts.
    """
    counts = _draw_counts(table.p_y_given_x, n_per_input, 1, np.random.default_rng(seed))[0]
    return CountTable(table.inputs, table.outputs, counts, n_per_input)


def _draw_counts(p: np.ndarray, n_per_input: int, trials: int,
                 rng: np.random.Generator) -> np.ndarray:
    """Count tables (..., trials, inputs, outcomes) for p(y|x) tables
    (..., inputs, outcomes), clipped and normalised as one stack.  One
    multinomial call on rng, consumed table by table, trial by trial, input
    by input, so a stack draws what its tables drawn in turn would."""
    if n_per_input <= 0:
        raise ValueError(f"n_per_input must be positive, got {n_per_input}")
    if n_per_input >= 2**63:
        raise ValueError(f"n_per_input must be < 2**63, got {n_per_input}")
    p = np.clip(p, 0.0, None)
    p /= p.sum(axis=-1, keepdims=True)
    return rng.multinomial(n_per_input, p[..., None, :, :],
                           size=p.shape[:-2] + (trials, p.shape[-2]))


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
    counts = _draw_counts(table.p_y_given_x, n_per_input, trials, np.random.default_rng(seed))
    mean, std = _bootstrap_stats(np.asarray(scheme.priors), counts, n_per_input)
    return float(mean), float(std)


# k rows of the RSS profile per pass: at least 16, and more while each
# temporary holds under 16 000 elements (about 100 KB), as for fewer points.
_PROFILE_ROWS = 16
_PROFILE_ELEMENTS = 16_000
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
    is kept, and the row's RSS is summed directly at it.  Sorting the points
    by kappa sorts every row: a visibility kappa^e has e >= (1 - sqrt r)^2,
    and the MI cannot rise as one falls (a weaker binary symmetric channel is
    the stronger one followed by another).  A row flat to an ulp may dip by
    one; np.clip then takes the piece's upper end, still a candidate."""
    kappas, m = np.stack([kappas, mis])[:, np.argsort(kappas, kind="stable")]
    above = m.size - np.arange(m.size + 1)  # points with f > s, piece by piece
    m2_below = np.concatenate(([0.0], np.cumsum(m * m)))
    # Passes of even size: numpy sums a lone row of over 8192 points in
    # another order than a row among others, which would move its RSS by an ulp.
    passes = max(1, -(-k_grid.size // max(_PROFILE_ROWS, _PROFILE_ELEMENTS // m.size)))
    edges = [k_grid.size * i // passes for i in range(passes + 1)]
    width = -(-k_grid.size // passes)  # rows of the largest pass
    sums = np.zeros((2, width, m.size + 1))  # d^2 and d above each piece
    ends = np.full((width, m.size + 2), np.inf)  # piece ends: 0, each f, inf
    ends[:, 0] = 0.0
    s_hat, rss = np.empty((2, k_grid.size))
    for lo, hi in zip(edges, edges[1:]):
        f = curve(kappas, k_grid[lo:hi, None])
        rows = f.shape[0]
        # At s >= 0, max(f - s, 0) is the same for f and max(f, 0): pieces start at 0.
        d = np.maximum(f, 0.0, out=ends[:rows, 1:-1]) - m
        np.cumsum(np.stack([d * d, d])[..., ::-1], axis=-1, out=sums[:, :rows, -2::-1])
        d2_above, d_above = sums[:, :rows]
        s = np.clip(d_above / np.maximum(above, 1), ends[:rows, :-1], ends[:rows, 1:])
        value = d2_above - 2.0 * s * d_above + above * s * s + m2_below
        s = np.take_along_axis(s, np.argmin(value, axis=1)[:, None], axis=1)
        resid = np.maximum(f - s, 0.0) - m
        s_hat[lo:hi] = s[:, 0]
        rss[lo:hi] = np.einsum("kp,kp->k", resid, resid)
    return s_hat, rss


# Every _SCREEN_STRIDE-th point in kappa order bounds a coarse row's RSS from below.
_SCREEN_STRIDE = 8


def _screened_offsets(kappas: np.ndarray, mis: np.ndarray, curve,
                      k_grid: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``_best_offsets`` on the rows of ``k_grid`` that can hold the least RSS;
    every other row gets RSS +inf and offset 0.

    At any s >= 0 the RSS over a subset of the points is at most the RSS over
    all of them, so a subset's least RSS at k bounds the row's least RSS from
    below.  The subset is every _SCREEN_STRIDE-th point in kappa order.  The
    row of least bound is evaluated in full, giving an RSS U, and then every
    row whose bound is at most U + eps.  A skipped row's RSS exceeds U: it can
    join neither the minimum nor its ties, and a kept row's bits do not depend
    on the rows evaluated with it."""
    # eps covers rounding.  Model MI lie in [0, 2] bits and offsets in
    # [0, max f], so every residual and every d = f - m is at most 2 + |m| in
    # size, and B = sum (2 + |m|)^2 bounds every RSS and (as s <= 2) every
    # term of a piece value.  With u = 2^-53, a direct row sum errs by at most
    # about n u B and a piece value by (4 n + 17) u B, so picking the wrong
    # piece costs the subset's n / 8 + 1 points at most (n + 42) u B.  The
    # three add up to under (2.2 n + 43) u B <= 16 (n + 1) u B = eps for n >= 2.
    sub = np.argsort(kappas, kind="stable")[::_SCREEN_STRIDE]
    _, bound = _best_offsets(kappas[sub], mis[sub], curve, k_grid)
    _, upper = _best_offsets(kappas, mis, curve, k_grid[[np.argmin(bound)]])
    eps = 8 * (mis.size + 1) * 2.0**-52 * np.sum((2.0 + np.abs(mis)) ** 2)
    keep = np.flatnonzero(bound <= upper[0] + eps)
    offsets, rss = np.zeros(k_grid.size), np.full(k_grid.size, np.inf)
    offsets[keep], rss[keep] = _best_offsets(kappas, mis, curve, k_grid[keep])
    return offsets, rss


def fit_k_s(points, scheme: EncodingScheme, variance_ratio: float = 1.0,
            noise_order: NoiseOrder = NoiseOrder.NOISE_BEFORE_ENCODING) -> FitResult:
    """Bounded least-squares fit of (k, s) to measured (kappa_abs, mi) pairs.

    The model is ``_mi_curve`` of the scheme, its priors, r = c_bb / c_aa and
    the noise order, minus s; at uniform priors the defaults are ``closed_form_mi``.
    Deterministic search over k alone: for each k the offset s >= 0 is
    exact (see ``_best_offsets``), so no s grid bounds it.  k runs over the
    multiples of 0.01 in [-1, 1], then over two refinement levels on the
    lattices of steps 0.001 and 0.0001.  The coarse level evaluates in full
    only the rows that every eighth point in kappa order cannot rule out: a
    subset's least RSS bounds a row's from below (see ``_screened_offsets``),
    so the result is the full search's.  A level searches 21 lattice points
    around the current optimum and re-centres them while the optimum lies
    on a window end that is not -1 or 1, so it follows the valley along
    which k and s trade off.  Ties go to smaller |k|, then smaller s, then
    smaller k: a curve even in k, as the four-state one after the encoding
    is, reports k <= 0.  Priors that leave no Bell sector with two states of
    positive prior make the model constant in k, and raise ValueError.
    """
    pts = np.array(list(points), dtype=float)
    if len(pts) < 2:
        raise ValueError(f"need at least 2 points to fit, got {len(pts)}")
    if pts.shape[1:] != (2,):
        raise ValueError(f"points must be (kappa_abs, mi) pairs, got shape {pts.shape}")
    if not np.all(np.isfinite(pts)):
        raise ValueError("kappa_abs and mi values must be finite")
    kappas, mis = pts.T
    if np.any(kappas <= 0.0) or np.any(kappas > 1.0):
        raise ValueError("kappa_abs values must lie in (0, 1]")
    if not (math.isfinite(variance_ratio) and variance_ratio > 0.0):
        raise ValueError(f"variance_ratio must be positive, got {variance_ratio}")
    p = (*scheme.priors, 0.0)[:4]  # the Phi sector p[:2] and the Psi sector p[2:]
    if max(min(p[:2]), min(p[2:])) <= 0.0:
        raise ValueError("the model does not depend on k: no Bell sector has two positive priors")
    curve = functools.partial(_mi_curve, scheme=scheme, variance_ratio=variance_ratio,
                              noise_order=noise_order)

    # k = n / scale for integers n, so a lattice value is the same float on
    # every level and n and -n give exactly opposite k.
    lattice, n_hat = np.arange(-100, 101), 0
    for scale in (100, 1_000, 10_000):
        for _ in range(_MAX_WINDOW_MOVES):
            if scale > 100:
                lattice = np.arange(max(n_hat - 10, -scale), min(n_hat + 10, scale) + 1)
            k_grid = lattice / scale
            profile = _screened_offsets if scale == 100 else _best_offsets
            offsets, rss = profile(kappas, mis, curve, k_grid)
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
# A @ rho.flatten() gives Tr(P_i rho); the products are np.kron's, broadcast.
_KET_PAIRS = np.array([(_KETS[a], _KETS[b]) for a, b in TOMOGRAPHY_SETTINGS])
_SETTING_KETS = (_KET_PAIRS[:, 0, :, None] * _KET_PAIRS[:, 1, None, :]).reshape(16, 4)
_DESIGN = (_SETTING_KETS.conj()[:, :, None] * _SETTING_KETS[:, None, :]).reshape(16, 16)
assert np.linalg.matrix_rank(_DESIGN) == 16, "tomography design matrix is singular"
_DESIGN_INV = np.linalg.inv(_DESIGN)
_DESIGN.setflags(write=False)
_DESIGN_INV.setflags(write=False)


def expected_tomography_counts(rho: np.ndarray, n_per_projector: float) -> np.ndarray:
    """Noise-free expected counts n * <P_i> for the sixteen settings."""
    if not (math.isfinite(n_per_projector) and n_per_projector > 0.0):
        raise ValueError(f"n_per_projector must be finite and positive, got {n_per_projector}")
    rho = validate_density_matrix(rho, dim=4)
    # An einsum, not ``@``: a BLAS gemv may sum in another order and move the last bits.
    probs = np.einsum("pk,k->p", _DESIGN, rho.reshape(16)).real
    return n_per_projector * np.clip(probs, 0.0, 1.0)


def tomography_counts(rho: np.ndarray, n_per_projector: int, seed: int) -> np.ndarray:
    """Binomially sampled counts for the sixteen projective settings."""
    if not (1 <= n_per_projector <= 2**63 - 1 and n_per_projector % 1 == 0):
        raise ValueError(f"n_per_projector must be a positive integer < 2**63, got {n_per_projector}")
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
    vals, vecs = _reconstruct(counts / n)
    return validate_density_matrix((vecs * vals) @ vecs.conj().T, dim=4)


def _reconstruct(freq: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unvalidated linear inversion of frequencies (..., 16) as eigenpairs (..., 4),
    (..., 4, 4) of the states: one ``eigh`` of the Hermitized inverse projects it
    on the positive cone (clip at 0, divide by the sum) and feeds ``_concurrences``."""
    rho = (_DESIGN_INV @ freq[..., None]).reshape(freq.shape[:-1] + (4, 4))
    rho = (rho + rho.conj().swapaxes(-1, -2)) / 2.0
    vals, vecs = np.linalg.eigh(rho)
    vals = np.clip(vals, 0.0, None)
    total = vals.sum(axis=-1, keepdims=True)
    if np.any(total <= 0):
        raise ValueError("reconstruction gives a zero state; counts unusable")
    return vals / total, vecs


# Bootstrap count tables (rows x trials) per block of stacked rows, so 256
# rows at two trials.  Blocks bound memory only: the one generator runs on
# from block to block in row order, and nothing else of a row depends on
# the other rows of its block.
_TABLES_PER_BLOCK = 512


def run_sweep(spec: JointSpectrum, time_grid, scheme: EncodingScheme,
              n_per_input: int, trials: int, seed: int, s: float = 0.0,
              noise_order: NoiseOrder = NoiseOrder.NOISE_BEFORE_ENCODING,
              ) -> list[SweepRow]:
    """One row per noise duration: the mutual-information-vs-concurrence dataset.

    For every t the row records |kappa_A(t)|, the Wootters concurrence of the
    shared state after the sender-side stage (|Phi+> with coherence kappa_A
    is an X state of concurrence exactly |kappa_A|, so it repeats kappa_abs),
    the Born-rule mutual information of the simulated channel minus s, and
    the parametric-bootstrap mean and standard deviation.  The offset s is
    subtracted from the bootstrap mean so the column models the measured
    mutual information the theory column is fitted to.

    Row i's ``kappa_abs`` and ``mi_theory`` equal the scalar route at its t
    (``decoherence_function``, ``simulate_protocol``, ``mutual_information``).
    One generator, ``default_rng(seed)``, draws ``trials`` count tables for
    each row in turn, a block of rows per multinomial call: a prefix of the
    grid gives a prefix of the rows, but a sweep of ``grid[5:]`` is not rows
    5.. of the sweep of ``grid``.  Each row's Born table is read from the two
    sector coherences at its t, bit for bit the table of ``simulate_protocol``;
    the arguments and tables are checked.
    """
    values = _sweep_values(spec, time_grid, scheme, n_per_input, trials, seed, s, noise_order)
    return [SweepRow(*row, scheme.variant) for row in values.tolist()]


def _sweep_values(spec: JointSpectrum, time_grid, scheme: EncodingScheme,
                  n_per_input: int, trials: int, seed: int, s: float,
                  noise_order: NoiseOrder) -> np.ndarray:
    """The six float columns of :func:`run_sweep`, one row per t: (rows, 6).

    A block's tables take two characteristic-function values per row
    (``_sector_tables``), not the 4x4 density-matrix contraction."""
    grid = np.fromiter(time_grid, float)
    if grid.size == 0 or not np.all(np.isfinite(grid) & (grid >= 0.0)):
        raise ValueError(f"time grid must be non-empty, finite and non-negative: {grid}")
    if trials < 2:
        raise ValueError(f"trials must be at least 2, got {trials}")
    if not s >= 0:
        raise ValueError(f"s must be non-negative, got {s}")
    priors = np.asarray(scheme.priors)
    rng = np.random.default_rng(seed)
    block = max(1, _TABLES_PER_BLOCK // trials)
    blocks = []
    for start in range(0, grid.size, block):
        t = grid[start:start + block]
        kappa = _characteristic_function(spec, t, 0.0)
        # hypot, as Python's abs(complex) in decoherence_function; np.abs can
        # differ in the last bit.
        kappa_abs = np.hypot(kappa.real, kappa.imag)
        tables = _checked_probabilities(_sector_tables(spec, t, t, scheme, noise_order))
        theory = np.maximum(0.0, _mi_bits(priors, tables) - s)
        mean, std = _bootstrap_stats(priors, _draw_counts(tables, n_per_input, trials, rng),
                                     n_per_input)
        blocks.append(np.stack([t, kappa_abs, kappa_abs, theory, np.maximum(0.0, mean - s),
                                std], axis=1))
    return np.concatenate(blocks)


def _sweep_csv(values, schemes) -> str:
    """Sweep CSV text of rows of six floats and each row's scheme name.  A
    concurrence equal to a nonzero kappa_abs reuses its text (0.0 == -0.0)."""
    lines = ["t_a,kappa_abs,concurrence,mi_theory,mi_mc_mean,mi_mc_std,scheme\n"]
    for (t, kappa, conc, mi, mean, std), name in zip(values, schemes):
        k = "%.17g" % kappa
        c = k if conc == kappa and kappa else "%.17g" % conc
        lines.append("%.17g,%s,%s,%.17g,%.17g,%.17g,%s\n" % (t, k, c, mi, mean, std, name))
    return "".join(lines)


def sweep_rows_to_csv(rows) -> str:
    """Sweep CSV with header t_a,kappa_abs,concurrence,mi_theory,mi_mc_mean,mi_mc_std,scheme."""
    rows = list(rows)
    return _sweep_csv([(r.t_a, r.kappa_abs, r.concurrence, r.mi_theory, r.mi_mc_mean,
                        r.mi_mc_std) for r in rows], [r.scheme.value for r in rows])


def fit_result_to_csv(result: FitResult) -> str:
    """Fit CSV with header k_hat,s_hat,rss,n_points."""
    return (f"k_hat,s_hat,rss,n_points\n{result.k_hat:.17g},{result.s_hat:.17g},"
            f"{result.residual_sum_squares:.17g},{result.n_points}\n")

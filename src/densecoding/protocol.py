"""Bell-measurement statistics and capacity formulas of the encoding schemes.

The dephasing channel couples each encoded Bell state only to its partner
within the same sector (Phi+ <-> Phi-, Psi+ <-> Psi-), so every conditional
distribution is a two-point mixture with one visibility per sector, and
``_sector_mi`` gives the MI of any prior from the two.  At equal stage times,
with r = c_bb / c_aa, the Phi sector keeps ``kappa_abs ** (1 + r + 2 k sqrt(r))``;
so does the Psi sector with the noise before the encoding, and
``kappa_abs ** (1 + r - 2 k sqrt(r))`` after it (all in ``_sector_visibilities``).
``_mi_curve`` is the MI of every regime; the closed forms are its uniform, r = 1,
noise-before-encoding case, bit for bit.  :func:`simulate_protocol` is the theory of record.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from .config import (_ROW_SUM_TOL, BELL_OUTPUT_ORDER, BellLabel, EncodingScheme, JointSpectrum,
                     NoiseOrder, SchemeVariant, _frozen_record)
from .environment import DephasingTimes, _characteristic_function, _dephasing_masks
from .states import _xlogy, bell_state, binary_entropy

__all__ = [
    "ConditionalTable",
    "SECTOR_PARTNER",
    "capacity_bob_noise",
    "capacity_from_non_markovianity",
    "capacity_pre_encoding",
    "closed_form_mi",
    "closed_form_mi3",
    "closed_form_mi4",
    "conditional_probabilities",
    "effective_visibility",
    "mutual_information",
    "simulate_protocol",
]

#: Coherence partner of each Bell state under the dephasing channel.
SECTOR_PARTNER = {
    BellLabel.PHI_PLUS: BellLabel.PHI_MINUS,
    BellLabel.PHI_MINUS: BellLabel.PHI_PLUS,
    BellLabel.PSI_PLUS: BellLabel.PSI_MINUS,
    BellLabel.PSI_MINUS: BellLabel.PSI_PLUS,
}
_PSI_SECTOR = (BellLabel.PSI_PLUS, BellLabel.PSI_MINUS)


@_frozen_record
class ConditionalTable:
    """Outcome distribution p(y|x) over Bell measurement results."""

    inputs: tuple[BellLabel, ...]
    outputs: tuple[BellLabel, ...]
    p_y_given_x: np.ndarray

    def __post_init__(self) -> None:
        p = np.asarray(self.p_y_given_x, dtype=float)
        if p.shape != (len(self.inputs), len(self.outputs)):
            raise ValueError(
                f"probability matrix shape {p.shape} does not match "
                f"{len(self.inputs)} inputs x {len(self.outputs)} outputs")
        p = _checked_probabilities(p)
        p.setflags(write=False)
        object.__setattr__(self, "p_y_given_x", p)
        object.__setattr__(self, "inputs", tuple(self.inputs))
        object.__setattr__(self, "outputs", tuple(self.outputs))


def _checked_probabilities(p: np.ndarray) -> np.ndarray:
    """Check p(y|x) tables shaped (..., inputs, outcomes); return them clipped at 0."""
    if not np.all(np.isfinite(p)):
        raise ValueError("conditional probabilities must be finite")
    if np.any(p < -_ROW_SUM_TOL):
        raise ValueError("conditional probabilities must be non-negative")
    sums = p.sum(axis=-1)
    if np.any(np.abs(sums - 1.0) > _ROW_SUM_TOL):
        raise ValueError(f"every row must sum to 1, got sums {sums}")
    return np.clip(p, 0.0, None)


def _sector_visibilities(kappa_abs, k, variance_ratio: float = 1.0,
                         noise_order: NoiseOrder = NoiseOrder.NOISE_BEFORE_ENCODING):
    """(m_phi, m_psi) of broadcastable kappa_abs in (0, 1] and k (see above), m_psi
    being m_phi itself before the encoding; no exponent is negative for |k| <= 1, as
    fl(1 + r) >= 2 fl(sqrt(r)).  Not ``**``: numpy's pow takes another kernel for one
    or two k rows than for more, so a row's last bit would move with its neighbours."""
    root, log_kappa = math.sqrt(variance_ratio), np.log(kappa_abs)
    m_phi = np.exp((1.0 + variance_ratio + 2.0 * root * k) * log_kappa)
    if noise_order is NoiseOrder.NOISE_BEFORE_ENCODING:
        return m_phi, m_phi
    return m_phi, np.exp((1.0 + variance_ratio - 2.0 * root * k) * log_kappa)


def effective_visibility(kappa_abs: float, k: float) -> float:
    """Coherence magnitude kappa_abs ** (2 (1 + k)) surviving both noise stages.

    The equal-time, r = c_bb / c_aa = 1 form (else :func:`simulate_protocol`).
    The convention 0**0 = 1 keeps the k = -1 curve continuous; the doubly
    degenerate point (kappa_abs = 0, k = -1) returns 1 with a warning.
    """
    if not 0.0 <= kappa_abs <= 1.0:
        raise ValueError(f"kappa_abs must lie in [0, 1], got {kappa_abs}")
    if not -1.0 <= k <= 1.0:
        raise ValueError(f"k must lie in [-1, 1], got {k}")
    if kappa_abs == 0.0 and k == -1.0:
        warnings.warn(
            "effective_visibility(0, -1) is doubly degenerate; returning the "
            "k = -1 limit value 1", stacklevel=2)
        return 1.0
    return float(_sector_visibilities(kappa_abs, k)[0]) if kappa_abs > 0.0 else 0.0  # no log 0


def conditional_probabilities(scheme: EncodingScheme, m: float) -> ConditionalTable:
    """Outcome table of the dephasing channel at visibility m.

    Each encoded state is detected as itself with probability (1+m)/2 and as
    its sector partner with probability (1-m)/2; cross-sector outcomes never
    occur.  Outputs always span all four Bell labels.
    """
    if not 0.0 <= m <= 1.0:
        raise ValueError(f"visibility must lie in [0, 1], got {m}")
    return ConditionalTable(scheme.alphabet, BELL_OUTPUT_ORDER,
                            _pair_tables(scheme.alphabet, (m, m)))


def _pair_tables(alphabet, m) -> np.ndarray:
    """p(y|x) tables (..., inputs, 4) at sector visibilities m = (m_phi, m_psi), each
    of shape ...: each x is detected as itself with (1+m)/2, as its partner with (1-m)/2."""
    m = np.asarray(m)
    plus, minus = (1.0 + m) / 2.0, (1.0 - m) / 2.0
    rows = np.zeros(m.shape[1:] + (len(alphabet), 4))
    for i, x in enumerate(alphabet):
        sector = int(x in _PSI_SECTOR)
        rows[..., i, BELL_OUTPUT_ORDER.index(x)] = plus[sector]
        rows[..., i, BELL_OUTPUT_ORDER.index(SECTOR_PARTNER[x])] = minus[sector]
    return rows


def mutual_information(scheme: EncodingScheme, table: ConditionalTable,
                       s: float = 0.0) -> float:
    """Mutual information in bits between encoded symbol and outcome, minus s.

    Computes sum_x p1(x) sum_y p(y|x) log2(p(y|x) / p2(y)) with
    p2(y) = sum_x p1(x) p(y|x); cells with p(y|x) = 0 contribute nothing.
    The imperfection offset s is subtracted and the result clamped at 0.
    """
    if not s >= 0:
        raise ValueError(f"s must be non-negative, got {s}")
    if table.inputs != scheme.alphabet:
        raise ValueError("table inputs do not match the scheme alphabet")
    value = float(_mi_bits(np.asarray(scheme.priors), table.p_y_given_x))
    return max(0.0, value - s)


def _mi_bits(priors: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Mutual information in bits, without offset or clamp, of p(y|x) tables shaped
    (..., inputs, outcomes); a table's value does not depend on the stack around it."""
    p2 = priors @ p
    weights = priors[:, None] * p
    with np.errstate(divide="ignore", invalid="ignore"):
        logs = (np.log2(np.where(p > 0, p, 1.0))
                - np.log2(np.where(p2 > 0, p2, 1.0))[..., None, :])
    return np.where(weights > 0, weights * logs, 0.0).sum(axis=(-2, -1))


def capacity_pre_encoding(kappa_abs: float) -> float:
    """Capacity in bits with noise on the sender side only: 2 - H((1+kappa)/2)."""
    if not 0.0 <= kappa_abs <= 1.0:
        raise ValueError(f"kappa_abs must lie in [0, 1], got {kappa_abs}")
    return 2.0 - binary_entropy((1.0 + kappa_abs) / 2.0)


def capacity_bob_noise(kappa_abs: float, k: float) -> float:
    """Capacity in bits with both noise stages: 2 - H((1 + kappa^(2(1+k)))/2).

    The r = c_bb / c_aa = 1 form; with strong anticorrelation it exceeds the
    sender-only value: the receiver-side noise rebuilds the lost coherence.
    """
    return 2.0 - binary_entropy((1.0 + effective_visibility(kappa_abs, k)) / 2.0)


def capacity_from_non_markovianity(n: float, kappa_abs: float) -> float:
    """Dense-coding capacity in bits expressed through the backflow measure.

    Inverts n = |kappa|^(1-k^2) - |kappa| for |k| and feeds the result into
    the joint-noise capacity formula; valid for anticorrelated environments
    (k <= 0), where |k| determines k.  n holds for every variance ratio; the
    capacity is the r = c_bb / c_aa = 1 form.
    """
    if not 0.0 < kappa_abs < 1.0:
        raise ValueError(
            f"kappa_abs must lie strictly in (0, 1), got {kappa_abs} (logarithm degenerate)")
    if not (n >= 0.0 and n + kappa_abs <= 1.0 + 1e-9):
        raise ValueError(
            f"n must satisfy 0 <= n <= 1 - kappa_abs, got n={n}, kappa_abs={kappa_abs}")
    log_ratio = min(math.log(min(n + kappa_abs, 1.0)) / math.log(kappa_abs), 1.0)
    k_abs = math.sqrt(1.0 - log_ratio)
    return capacity_bob_noise(kappa_abs, -k_abs)


def _sector_mi(priors, m_phi, m_psi):
    """MI in bits, no offset, of priors over ``BELL_OUTPUT_ORDER`` (0 past a
    shorter alphabet) at broadcastable sector visibilities m_phi and m_psi.

    The outcome names the sector, inside which the channel is binary
    symmetric: with g(m) = (1+m) ln(1+m) + (1-m) ln(1-m) and a sector's mass
    P and bias b = (p+ - p-) / P, I = H(P_Phi, P_Psi) + sum P/2 (g(m) - g(b m))
    nats.  g is taken once per distinct array; at uniform priors, swapping the
    arrays moves no bit (a four-state curve after the encoding is even in k)."""
    def g(m):
        return _xlogy(1.0 + m, 1.0 + m) + _xlogy(1.0 - m, 1.0 - m)

    p = (*priors, 0.0)[:4]
    within = np.zeros(np.broadcast_shapes(np.shape(m_phi), np.shape(m_psi)))
    weights = {}  # id of a visibility array -> (the array, its weight of g)
    for m, plus, minus in ((m_phi, p[0], p[1]), (m_psi, p[2], p[3])):
        if plus > 0.0 and minus > 0.0:  # else the sector is empty or one state
            weights[id(m)] = m, weights.get(id(m), (m, 0.0))[1] + (plus + minus) / 2.0
            if plus != minus:
                within -= (plus + minus) / 2.0 * g((plus - minus) / (plus + minus) * m)
    for m, weight in weights.values():
        within += weight * g(m)
    entropy = -sum(q * math.log(q) for q in (p[0] + p[1], p[2] + p[3]) if q > 0.0)
    return (entropy + within) / math.log(2.0)


def closed_form_mi(variant: SchemeVariant, kappa_abs: float, k: float,
                   s: float = 0.0) -> float:
    """Closed-form mutual information in bits of the variant's uniform
    alphabet, minus the offset s, at visibility x = kappa_abs ** (2 + 2k).

    The r = c_bb / c_aa = 1, noise-before-encoding case of ``_mi_curve``, bit for
    bit; for other regimes or priors use :func:`simulate_protocol` or ``fit_k_s``.
    """
    if not s >= 0:
        raise ValueError(f"s must be non-negative, got {s}")
    x = effective_visibility(kappa_abs, k)
    return max(0.0, float(_sector_mi(EncodingScheme(variant).priors, x, x)) - s)


def closed_form_mi3(kappa_abs: float, k: float, s: float = 0.0) -> float:
    """Three-state :func:`closed_form_mi`; log2(3) - s at x = 1."""
    return closed_form_mi(SchemeVariant.THREE_STATE, kappa_abs, k, s)


def closed_form_mi4(kappa_abs: float, k: float, s: float = 0.0) -> float:
    """Four-state :func:`closed_form_mi`."""
    return closed_form_mi(SchemeVariant.FOUR_STATE, kappa_abs, k, s)


def _mi_curve(kappa_abs, k, scheme: EncodingScheme, variance_ratio: float = 1.0,
              noise_order: NoiseOrder = NoiseOrder.NOISE_BEFORE_ENCODING):
    """The scheme's MI in bits, no offset, at ``_sector_visibilities(kappa_abs, k, ...)``."""
    return _sector_mi(scheme.priors,
                      *_sector_visibilities(kappa_abs, k, variance_ratio, noise_order))


_PROJECTORS = np.array([bell_state(y) for y in BELL_OUTPUT_ORDER])
_PROJECTORS.setflags(write=False)


def simulate_protocol(spec: JointSpectrum, times: DephasingTimes,
                      scheme: EncodingScheme,
                      noise_order: NoiseOrder = NoiseOrder.NOISE_BEFORE_ENCODING,
                      ) -> ConditionalTable:
    """Full density-matrix pipeline from shared state to Bell-outcome table.

    Every alphabet symbol's Bell state is dephased by both correlated noise
    stages (:func:`~densecoding.environment.dephasing_mask`) and projected
    onto the four Bell states.  With the noise before the encoding, the X
    and Y encodings of the Psi sector see the sender coefficient of the
    pre-encoding frame.  Rows are Born-rule probabilities, independent of
    the closed-form visibility expressions.
    """
    probs = _born_tables(spec, times.t_a, times.t_b, scheme, noise_order)
    return ConditionalTable(scheme.alphabet, BELL_OUTPUT_ORDER, probs)


def _born_tables(spec: JointSpectrum, t_a, t_b, scheme: EncodingScheme,
                 noise_order: NoiseOrder) -> np.ndarray:
    """Unchecked :func:`simulate_protocol` tables for arrays of checked durations."""
    before = noise_order is NoiseOrder.NOISE_BEFORE_ENCODING
    flips = [before and x in _PSI_SECTOR for x in scheme.alphabet]
    masks = {flip: _dephasing_masks(spec, t_a, t_b, flip_sender=flip) for flip in set(flips)}
    states = np.stack([bell_state(x) * masks[flip] for x, flip in zip(scheme.alphabet, flips)],
                      axis=-3)
    probs = np.einsum("yji,...xij->...xy", _PROJECTORS, states).real
    return np.clip(probs, 0.0, None)


def _sector_tables(spec: JointSpectrum, t_a, t_b, scheme: EncodingScheme,
                   noise_order: NoiseOrder) -> np.ndarray:
    """:func:`_born_tables`, bit for bit, from the two coherences the Bell
    projectors read: phi(t_a, t_b) in the Phi sector, and in the Psi sector
    phi(-t_a, -t_b) with the noise before the encoding, phi(t_a, -t_b) after it;
    both from one call on the stacked durations."""
    sign = -1.0 if noise_order is NoiseOrder.NOISE_BEFORE_ENCODING else 1.0
    m = _characteristic_function(spec, np.stack([t_a, sign * t_a]), np.stack([t_b, -t_b]),
                                 include_phase=False)
    return _pair_tables(scheme.alphabet, m.real)

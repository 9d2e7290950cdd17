"""Correlated Gaussian frequency environments and their dephasing action.

Each photon's polarization is dephased by its own frequency degree of
freedom; the two frequencies are jointly Gaussian with correlation
coefficient ``k``, so the two local noise stages share memory.  Every
coherence factor below is a value of the joint Gaussian characteristic
function, which is what makes the closed forms exact.
"""

from __future__ import annotations

import math

import numpy as np

from .config import BellLabel, JointSpectrum, _frozen_record
from .states import bell_state

__all__ = [
    "DephasingTimes",
    "decoherence_function",
    "dephasing_mask",
    "evolve_pre_encoding",
    "non_markovianity",
]


@_frozen_record
class DephasingTimes:
    """Durations of the two local noise stages."""

    t_a: float
    t_b: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.t_a) and self.t_a >= 0):
            raise ValueError(f"t_a must be finite and non-negative, got {self.t_a}")
        if not (math.isfinite(self.t_b) and self.t_b >= 0):
            raise ValueError(f"t_b must be finite and non-negative, got {self.t_b}")


def _characteristic_function(spec: JointSpectrum, a, b, include_phase: bool = True):
    """E[exp(i dn (a wA + b wB))] for the jointly Gaussian frequencies.

    ``a`` and ``b`` are finite scalars or arrays of one shape.  The
    deterministic mean-phase factor exp(i dn (a+b) omega0 / 2) is dropped when
    ``include_phase`` is false (phase-compensated convention).  An overflow
    reads its limit, 0 or a coherence of modulus 1.  A phase that overflows has
    no value, so where it would make the coherence NaN, the coherence reads its
    modulus, exp of the phase-free exponent, as a real number.
    """
    def exponent(u, v):
        # c_aa u^2 + c_bb v^2 + 2 k sqrt(c_aa c_bb) u v as a sum of two
        # non-negative terms: k = -1 with c_aa = c_bb and u = v gives exactly 0.
        cross = math.sqrt(spec.c_aa) * u + spec.k * math.sqrt(spec.c_bb) * v
        return cross * cross + ((1.0 - spec.k * spec.k) * spec.c_bb) * v * v

    with np.errstate(over="ignore", invalid="ignore"):
        u, v = spec.delta_n * a, spec.delta_n * b
        # NaN only where dn a or dn b overflowed (inf - inf, 0 * inf): dn^2 Q(a, b).
        quad = exponent(u, v)
        if np.isnan(quad).any():
            quad = np.where(np.isnan(quad), np.where(exponent(a, b) > 0.0, np.inf, 0.0), quad)
        z = np.asarray(-quad / 2.0, dtype=complex)  # 1j * inf would have a NaN real part
        z.imag = (u + v) * spec.omega0 / 2.0 if include_phase else 0.0
        kappa = np.exp(z)  # NaN only where the phase overflowed, to inf or NaN
        if np.isnan(kappa).any():
            kappa = np.where(np.isnan(kappa), np.exp(-quad / 2.0), kappa)
        return kappa


def decoherence_function(spec: JointSpectrum, t_a: float) -> complex:
    """Coherence multiplier on the shared state after the sender-side stage.

    Closed Gaussian form exp(i t_a dn omega0 / 2) * exp(-c_aa dn^2 t_a^2 / 2);
    the modulus decays monotonically from 1.
    """
    return complex(_characteristic_function(spec, DephasingTimes(t_a, 0.0).t_a, 0.0))


# Whether each photon is H (1) or V (0) in the basis (HH, HV, VH, VV); entry
# (i, j) of a state picks up the frequency coefficient of ket i minus bra j.
_SENDER_H = np.array([1.0, 1.0, 0.0, 0.0])
_RECEIVER_H = np.array([1.0, 0.0, 1.0, 0.0])
_SENDER_DIFF = _SENDER_H[:, None] - _SENDER_H[None, :]
_RECEIVER_DIFF = _RECEIVER_H[:, None] - _RECEIVER_H[None, :]


def dephasing_mask(spec: JointSpectrum, times: DephasingTimes,
                   flip_sender: bool = False, include_phase: bool = False) -> np.ndarray:
    """Elementwise multiplier of both correlated noise stages on a 4x4 state.

    Entry (i, j) is the joint characteristic function at
    u = +-dn t_a (hA_i - hA_j), v = dn t_b (hB_i - hB_j), where hA and hB
    mark an H photon on the sender and receiver side.  A state dephased by
    both stages is ``rho * mask``.  ``flip_sender`` negates u: it takes the
    sender coefficient in the frame before an X or Y encoding, which is the
    Psi sector of the noise-before-encoding order.  Without
    ``include_phase`` the deterministic mean phase is compensated and every
    entry is real.
    """
    return _dephasing_masks(spec, times.t_a, times.t_b, flip_sender, include_phase)


def _dephasing_masks(spec: JointSpectrum, t_a, t_b, flip_sender: bool = False,
                     include_phase: bool = False) -> np.ndarray:
    """:func:`dephasing_mask` for broadcastable arrays of checked durations: (..., 4, 4)."""
    # The 0/+-1 products come before the scale dn, so a zero stays 0 if dn t overflows.
    sign = -1.0 if flip_sender else 1.0
    a = (sign * np.asarray(t_a))[..., None, None] * _SENDER_DIFF
    b = np.asarray(t_b)[..., None, None] * _RECEIVER_DIFF
    return _characteristic_function(spec, a, b, include_phase)


def evolve_pre_encoding(spec: JointSpectrum, t_a: float) -> np.ndarray:
    """Shared state after sender-side dephasing of |Phi+> for duration t_a."""
    mask = dephasing_mask(spec, DephasingTimes(t_a, 0.0), include_phase=True)
    return bell_state(BellLabel.PHI_PLUS) * mask


def non_markovianity(kappa_abs: float, k: float) -> float:
    """Information-backflow measure in closed form: |kappa|^(1-k^2) - |kappa|."""
    if not 0.0 < kappa_abs < 1.0:
        raise ValueError(f"kappa_abs must lie strictly in (0, 1), got {kappa_abs}")
    if not -1.0 <= k <= 1.0:
        raise ValueError(f"k must lie in [-1, 1], got {k}")
    return kappa_abs ** (1.0 - k * k) - kappa_abs

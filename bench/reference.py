"""Independent numpy reference for the densecoding channel.

Nothing here imports ``densecoding``: the benchmark checks the program's
outputs against these formulas, written from the model rather than from
the package's code.

Model.  Two photons share |Phi+> in the basis (HH, HV, VH, VV).  Alice
encodes a Bell symbol with a Pauli on her photon.  Each photon's H
component picks up the phase exp(i dn w t) of its own frequency w, and
(wA, wB) is jointly Gaussian with variances c_aa, c_bb and correlation k.
After the deterministic mean phase is compensated, entry (i, j) of the
density matrix is multiplied by the characteristic function

    exp(-q/2),  q = c_aa u^2 + c_bb v^2 + 2 k sqrt(c_aa c_bb) u v,

where u = dn t_a (hA_i - hA_j), v = dn t_b (hB_i - hB_j) and hA, hB mark
an H on Alice's and Bob's photon.  When Alice's noise acts before her
encoding, her coefficient u is taken in the pre-encoding frame, which
flips its sign for the bit-flipping symbols Psi+ and Psi-.  The receiver
then projects onto the four Bell states (Born rule).
"""

from __future__ import annotations

import numpy as np

ALPHABETS = {"THREE_STATE": (0, 1, 2), "FOUR_STATE": (0, 1, 2, 3)}
NOISE_ORDERS = ("NOISE_BEFORE_ENCODING", "NOISE_AFTER_ENCODING")
DELTA_N = 1.0              # dn; no benchmark input sets it, so the program's default 1

_BELL = np.array([[1, 0, 0, 1], [1, 0, 0, -1], [0, 1, 1, 0], [0, 1, -1, 0]],
                 dtype=complex) / np.sqrt(2.0)
# Alice's encoding Pauli (I, Z, X, Y) flips her bit for the Psi symbols.
_ALICE_FLIP = np.array([False, False, True, True])
_H_ALICE = np.array([1.0, 1.0, 0.0, 0.0])
_H_BOB = np.array([1.0, 0.0, 1.0, 0.0])
_DIFF_ALICE = _H_ALICE[:, None] - _H_ALICE[None, :]
_DIFF_BOB = _H_BOB[:, None] - _H_BOB[None, :]
_YY = np.kron([[0, -1j], [1j, 0]], [[0, -1j], [1j, 0]])


def kappa_abs(t, c_aa=1.0):
    """Coherence magnitude after the sender stage: exp(-c_aa dn^2 t^2 / 2)."""
    t = np.asarray(t, dtype=float)
    return np.exp(-c_aa * DELTA_N ** 2 * t ** 2 / 2.0)


def time_for_kappa(kappa, c_aa=1.0):
    """Inverse of :func:`kappa_abs` on t >= 0."""
    return np.sqrt(-2.0 * np.log(kappa) / (c_aa * DELTA_N ** 2))


def encoded_bell_states():
    """The four encoded states |B_x><B_x|, shape (4, 4, 4)."""
    return np.einsum("xi,xj->xij", _BELL, _BELL.conj())


def dephased_states(t_a, t_b, *, c_aa=1.0, c_bb=1.0, k=-1.0,
                    noise_order="NOISE_BEFORE_ENCODING"):
    """Encoded Bell states after both noise stages, shape (n_t, 4, 4, 4).

    Axis 1 is the symbol (PHI_PLUS, PHI_MINUS, PSI_PLUS, PSI_MINUS).
    """
    if noise_order not in NOISE_ORDERS:
        raise ValueError(f"unknown noise order {noise_order!r}")
    t_a = np.atleast_1d(np.asarray(t_a, dtype=float))
    t_b = np.broadcast_to(np.asarray(t_b, dtype=float), t_a.shape)
    sign = np.ones(4)
    if noise_order == "NOISE_BEFORE_ENCODING":
        sign[_ALICE_FLIP] = -1.0
    u = DELTA_N * t_a[:, None, None, None] * sign[None, :, None, None] * _DIFF_ALICE
    v = DELTA_N * t_b[:, None, None, None] * _DIFF_BOB[None, None]
    q = c_aa * u * u + c_bb * v * v + 2.0 * k * np.sqrt(c_aa * c_bb) * u * v
    return encoded_bell_states()[None] * np.exp(-q / 2.0)


def born_table(t_a, t_b, scheme="FOUR_STATE", **channel):
    """p(y|x) for every time: shape (n_t, n_symbols, 4), outcomes in Bell order."""
    rho = dephased_states(t_a, t_b, **channel)[:, list(ALPHABETS[scheme])]
    p = np.einsum("yi,txij,yj->txy", _BELL.conj(), rho, _BELL).real
    # Snap rounding noise so a noiseless channel gives exact 0/1 entries.
    p = np.where(np.abs(p) < 1e-14, 0.0, p)
    return np.where(np.abs(p - 1.0) < 1e-14, 1.0, p)


def mutual_information(p):
    """I(X;Y) in bits of p(y|x) tables shaped (..., n_symbols, n_outcomes),
    with equally likely symbols."""
    p = np.asarray(p, dtype=float)
    n_x = p.shape[-2]
    p1 = np.full(n_x, 1.0 / n_x)
    p2 = np.einsum("x,...xy->...y", p1, p)
    ratio = np.where(p > 0, p, 1.0) / np.where(p2 > 0, p2, 1.0)[..., None, :]
    terms = np.where(p > 0, p * np.log2(ratio), 0.0)
    return np.einsum("x,...xy->...", p1, terms)


def binary_entropy(x):
    x = np.asarray(x, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        h = -(x * np.log2(x) + (1.0 - x) * np.log2(1.0 - x))
    return np.where((x <= 0) | (x >= 1), 0.0, h)


def plugin_mi_spread(p, n_per_input):
    """Delta-method standard deviation of the plug-in MI of one count table,
    and the Miller-Madow size of its bias, both in bits.

    Each input x, all equally likely, gets ``n_per_input`` multinomial
    draws from p(.|x).  The gradient of I with respect to p(y|x) is
    p1(x) log2(p(y|x) / p2(y)).
    """
    p = np.asarray(p, dtype=float)
    n_x = p.shape[-2]
    p1 = np.full(n_x, 1.0 / n_x)
    p2 = np.einsum("x,...xy->...y", p1, p)
    ratio = np.where(p > 0, p, 1.0) / np.where(p2 > 0, p2, 1.0)[..., None, :]
    g = p1[:, None] * np.log2(ratio)
    mean_g = (p * g).sum(axis=-1)
    var = ((p * g * g).sum(axis=-1) - mean_g ** 2) / n_per_input
    std = np.sqrt(np.clip(var, 0.0, None).sum(axis=-1))
    cells_given_x = (p > 0).sum(axis=-1) - 1
    cells_y = (p2 > 0).sum(axis=-1) - 1
    bias = np.abs((p1 * cells_given_x).sum(axis=-1) / n_per_input
                  - cells_y / (n_x * n_per_input)) / (2.0 * np.log(2.0))
    return std, bias


def is_deterministic(p):
    """True where every p(y|x) is 0 or 1, so sampling has no spread."""
    p = np.asarray(p, dtype=float)
    return np.all((p == 0.0) | (p == 1.0), axis=(-2, -1))


def density_matrix_is_valid(rho, tol=1e-9):
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (4, 4) or not np.all(np.isfinite(rho)):
        return False
    if np.max(np.abs(rho - rho.conj().T)) > tol or abs(np.trace(rho) - 1.0) > tol:
        return False
    return float(np.linalg.eigvalsh((rho + rho.conj().T) / 2).min()) >= -tol


def concurrence(rho):
    """Wootters concurrence from the eigenvalues of rho (Y x Y) rho* (Y x Y)."""
    rho = np.asarray(rho, dtype=complex)
    r = rho @ _YY @ rho.conj() @ _YY
    lam = np.sort(np.sqrt(np.clip(np.linalg.eigvals(r).real, 0.0, None)))[::-1]
    return float(max(0.0, lam[0] - lam[1:].sum()))


def _psd_sqrt(rho):
    vals, vecs = np.linalg.eigh(rho)
    return (vecs * np.sqrt(np.clip(vals, 0.0, None))) @ vecs.conj().T


def fidelity(rho, sigma):
    """Uhlmann fidelity (Tr sqrt(sqrt(rho) sigma sqrt(rho)))^2."""
    s = _psd_sqrt(np.asarray(rho, dtype=complex))
    vals = np.linalg.eigvalsh(s @ np.asarray(sigma, dtype=complex) @ s)
    return float(np.sqrt(np.clip(vals, 0.0, None)).sum() ** 2)


# Sixteen product projectors (Alice, Bob) over kets H, V, D, L, row-major in Alice.
_KETS = np.array([[1, 0], [0, 1], [1, 1], [1, 1j]], dtype=complex)
_KETS /= np.linalg.norm(_KETS, axis=1, keepdims=True)
TOMOGRAPHY_PROJECTORS = np.array([np.outer(np.kron(a, b), np.kron(a, b).conj())
                                  for a in _KETS for b in _KETS])


def tomography_probabilities(rho):
    """Tr(P_i rho) for the sixteen settings."""
    return np.clip(np.einsum("pij,ji->p", TOMOGRAPHY_PROJECTORS, rho).real, 0.0, 1.0)


def self_check():
    """Check the reference against values the paper fixes; raise on failure."""
    t = np.linspace(0.0, 3.0, 31)
    # k = -1, equal variances, noise before encoding: the receiver stage
    # rebuilds the coherence, so three states stay perfectly distinguishable.
    p3 = born_table(t, t, "THREE_STATE", k=-1.0)
    err = np.max(np.abs(mutual_information(p3) - np.log2(3.0)))
    if err > 1e-12:
        raise AssertionError(f"reference: k=-1 three-state MI is off log2(3) by {err:.3e}")
    # Sender noise only: four-state MI is the capacity 2 - H((1+|kappa|)/2).
    for k, c_aa, c_bb, order in ((-0.5, 1.0, 1.0, "NOISE_BEFORE_ENCODING"),
                                 (0.3, 1.7, 0.4, "NOISE_AFTER_ENCODING")):
        p4 = born_table(t, 0.0, "FOUR_STATE", k=k, c_aa=c_aa, c_bb=c_bb, noise_order=order)
        want = 2.0 - binary_entropy((1.0 + kappa_abs(t, c_aa)) / 2.0)
        err = np.max(np.abs(mutual_information(p4) - want))
        if err > 1e-12:
            raise AssertionError(f"reference: sender-only MI is off 2 - H by {err:.3e}")

"""Two-qubit polarization states, the information measures built on them,
and their sixteen-setting linear-inversion tomography.

Density matrices are plain complex ndarrays in the fixed product basis
(HH, HV, VH, VV).  All entropies and capacities are in bits.
"""

from __future__ import annotations

import enum
import itertools
import math

import numpy as np

from .config import BellLabel

__all__ = [
    "InvariantViolation",
    "PAULI_FOR_BELL",
    "Party",
    "PauliLabel",
    "apply_pauli",
    "bell_state",
    "binary_entropy",
    "concurrence",
    "dense_coding_capacity",
    "density_matrix_from_text",
    "density_matrix_to_text",
    "expected_tomography_counts",
    "fidelity",
    "partial_trace",
    "reconstruct_linear_inversion",
    "tomography_counts",
    "validate_density_matrix",
    "von_neumann_entropy",
]

_HERMITICITY_TOL = 1e-12
_TRACE_TOL = 1e-12
_EIGENVALUE_FLOOR = -1e-10


class InvariantViolation(ValueError):
    """Raised when a matrix fails the density-matrix checks."""


class Party(enum.Enum):
    """Which side of the shared pair an operation acts on."""

    ALICE = "ALICE"
    BOB = "BOB"


class PauliLabel(enum.Enum):
    """Single-qubit encoding operations (identity and the three Paulis)."""

    ID = "ID"
    X = "X"
    Y = "Y"
    Z = "Z"


_PAULI_MATRICES = {
    PauliLabel.ID: np.eye(2, dtype=complex),
    PauliLabel.X: np.array([[0, 1], [1, 0]], dtype=complex),
    PauliLabel.Y: np.array([[0, -1j], [1j, 0]], dtype=complex),
    PauliLabel.Z: np.array([[1, 0], [0, -1]], dtype=complex),
}

# Unnormalized (norm sqrt 2): the projectors divide by 2, so their entries
# are exactly 0 or +-1/2.
_BELL_VECTORS = {
    BellLabel.PHI_PLUS: np.array([1, 0, 0, 1], dtype=complex),
    BellLabel.PHI_MINUS: np.array([1, 0, 0, -1], dtype=complex),
    BellLabel.PSI_PLUS: np.array([0, 1, 1, 0], dtype=complex),
    BellLabel.PSI_MINUS: np.array([0, 1, -1, 0], dtype=complex),
}

#: Encoding operation on Alice's qubit that maps |Phi+> onto each Bell state.
PAULI_FOR_BELL = {
    BellLabel.PHI_PLUS: PauliLabel.ID,
    BellLabel.PHI_MINUS: PauliLabel.Z,
    BellLabel.PSI_PLUS: PauliLabel.X,
    BellLabel.PSI_MINUS: PauliLabel.Y,
}


def validate_density_matrix(rho: np.ndarray, dim: int | None = None) -> np.ndarray:
    """Check Hermiticity, unit trace and positivity; return the input as ndarray.

    Eigenvalues in ``[-1e-10, 0)`` are tolerated as floating-point noise;
    anything more negative raises :class:`InvariantViolation`.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise InvariantViolation(f"density matrix must be square, got shape {rho.shape}")
    if dim is not None and rho.shape[0] != dim:
        raise InvariantViolation(f"expected a {dim}x{dim} matrix, got {rho.shape}")
    if not np.all(np.isfinite(rho.view(float))):
        raise InvariantViolation("density matrix has non-finite entries")
    herm_err = np.max(np.abs(rho - rho.conj().T))
    if herm_err > _HERMITICITY_TOL:
        raise InvariantViolation(f"matrix not Hermitian: max asymmetry {herm_err:.3e}")
    trace_err = abs(np.trace(rho) - 1.0)
    if trace_err > _TRACE_TOL:
        raise InvariantViolation(f"trace differs from 1 by {trace_err:.3e}")
    lo = float(np.linalg.eigvalsh(rho).min())
    if lo < _EIGENVALUE_FLOOR:
        raise InvariantViolation(f"matrix not positive semidefinite: eigenvalue {lo:.3e}")
    return rho


def _xlogy(x, y):
    """Elementwise x * ln(y), with 0 wherever x is 0 (so 0 ln 0 = 0)."""
    x = np.asarray(x, dtype=float)
    return x * np.log(np.where(x == 0.0, 1.0, y))


def bell_state(label: BellLabel) -> np.ndarray:
    """Rank-1 projector onto the named Bell state in the (HH, HV, VH, VV) basis."""
    vec = _BELL_VECTORS[label]
    return np.outer(vec, vec.conj()) / 2.0


def apply_pauli(rho: np.ndarray, pauli: PauliLabel, party: Party) -> np.ndarray:
    """Conjugate a two-qubit state by a single-qubit Pauli on one side."""
    rho = validate_density_matrix(rho, dim=4)
    p = _PAULI_MATRICES[pauli]
    eye = np.eye(2, dtype=complex)
    u = np.kron(p, eye) if party is Party.ALICE else np.kron(eye, p)
    return u @ rho @ u.conj().T


def partial_trace(rho: np.ndarray, keep: Party) -> np.ndarray:
    """Reduced single-qubit state of one party of a two-qubit density matrix."""
    rho = validate_density_matrix(rho, dim=4)
    r = rho.reshape(2, 2, 2, 2)
    if keep is Party.ALICE:
        return np.einsum("abcb->ac", r)
    return np.einsum("abad->bd", r)


def von_neumann_entropy(rho: np.ndarray) -> float:
    """Spectral entropy -sum(lam * log2(lam)) of a density matrix of any dimension."""
    rho = validate_density_matrix(rho)
    vals = np.clip(np.linalg.eigvalsh(rho), 0.0, None)  # none below -1e-10, as validated
    return float(-_xlogy(vals, vals).sum() / np.log(2.0))


def binary_entropy(x: float) -> float:
    """Entropy of a biased coin in bits, with H(0) = H(1) = 0."""
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"binary_entropy argument must lie in [0, 1], got {x}")
    return float(-(_xlogy(x, x) + _xlogy(1.0 - x, 1.0 - x)) / np.log(2.0))


_Y_OTIMES_Y = np.kron(_PAULI_MATRICES[PauliLabel.Y], _PAULI_MATRICES[PauliLabel.Y]).real


def _psd_sqrt(rho: np.ndarray) -> np.ndarray:
    """Matrix square root of unit-trace PSD matrices, shape (..., n, n).

    Eigenvalues below 1e-14 are truncated to exactly zero first; otherwise
    eigensolver noise of order 1e-16 turns into 1e-8 after the square root
    and ruins the rank structure of pure states.
    """
    vals, vecs = np.linalg.eigh(rho)
    vals = np.where(vals < 1e-14, 0.0, vals)
    return (vecs * np.sqrt(vals)[..., None, :]) @ vecs.conj().swapaxes(-1, -2)


def concurrence(rho: np.ndarray) -> float:
    """Wootters entanglement monotone of a two-qubit state, in [0, 1]: max(0,
    l1 - l2 - l3 - l4) over the decreasingly ordered square roots of the
    eigenvalues of rho (Y x Y) rho* (Y x Y), from one ``eigh`` of rho."""
    return _concurrence(validate_density_matrix(rho, dim=4))


def _concurrence(rho: np.ndarray) -> float:
    """:func:`concurrence` of a state that is already validated."""
    return float(_concurrences(*np.linalg.eigh(rho)))


def _concurrences(vals: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """:func:`concurrence` of unchecked eigenpairs (..., 4), (..., 4, 4) of states.

    The l_i are the singular values of sqrt(flipped) sqrt(rho). With rho =
    V Lambda V^H and S = diag(sqrt(Lambda)), Lambda < 1e-14 set to 0 as in
    :func:`_psd_sqrt`, that product is (Y x Y) conj(V) S W S V^H with W =
    V^T (Y x Y) V. Unitary factors leave singular values alone: the l_i are
    those of S W S, which an SVD resolves at machine precision."""
    root = np.sqrt(np.where(vals < 1e-14, 0.0, vals))
    sws = root[..., :, None] * (vecs.swapaxes(-1, -2) @ _Y_OTIMES_Y @ vecs) * root[..., None, :]
    lams = np.linalg.svd(sws, compute_uv=False)
    return np.maximum(0.0, lams[..., 0] - lams[..., 1] - lams[..., 2] - lams[..., 3])


def dense_coding_capacity(rho: np.ndarray) -> float:
    """Capacity in bits of dense coding over a noiseless channel with shared state rho.

    For a qubit sender this is 1 + S(rho_B) - S(rho_AB).
    """
    rho = validate_density_matrix(rho, dim=4)
    rho_b = partial_trace(rho, Party.BOB)
    return 1.0 + von_neumann_entropy(rho_b) - von_neumann_entropy(rho)


def fidelity(rho: np.ndarray, sigma: np.ndarray) -> float:
    """Uhlmann fidelity (squared convention) between two density matrices."""
    rho = validate_density_matrix(rho)
    sigma = validate_density_matrix(sigma, dim=rho.shape[0])
    sqrt_rho = _psd_sqrt(rho)
    inner = sqrt_rho @ sigma @ sqrt_rho
    inner_vals = np.linalg.eigvalsh(inner)
    return float(np.sqrt(np.clip(inner_vals, 0.0, None)).sum() ** 2)


def density_matrix_to_text(rho: np.ndarray) -> str:
    """Serialize a 4x4 density matrix to the plain-text exchange format.

    Four lines of four entries, each entry "re+imj" with 17 significant
    digits, rows and columns in (HH, HV, VH, VV) order.
    """
    return _matrix_text(validate_density_matrix(rho, dim=4))


def _matrix_text(rho: np.ndarray) -> str:
    """:func:`density_matrix_to_text` of a state that is already validated."""
    return "".join(" ".join(f"{z.real:.17g}{z.imag:+.17g}j" for z in row) + "\n" for row in rho)


def density_matrix_from_text(text: str) -> np.ndarray:
    """Parse the plain-text format written by :func:`density_matrix_to_text`."""
    rows = [line.split() for line in text.strip().splitlines()]
    if len(rows) != 4 or any(len(r) != 4 for r in rows):
        raise ValueError("expected 4 lines of 4 entries")
    try:
        rho = np.array([[complex(tok) for tok in row] for row in rows])
    except ValueError as exc:
        raise ValueError(f"malformed complex entry in density-matrix text: {exc}") from None
    return validate_density_matrix(rho, dim=4)


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
_DESIGN_INV = np.linalg.inv(_DESIGN)
_DESIGN.setflags(write=False)
_DESIGN_INV.setflags(write=False)


def _shots(n_per_projector: float) -> float:
    """n_per_projector as a float, refused unless finite and positive."""
    try:
        n = float(n_per_projector)
    except OverflowError:  # an int beyond the float range
        n = math.inf
    if not (math.isfinite(n) and n > 0.0):
        raise ValueError(f"n_per_projector must be finite and positive, got {n}")
    return n


def expected_tomography_counts(rho: np.ndarray, n_per_projector: float) -> np.ndarray:
    """Noise-free expected counts n * <P_i> for the sixteen settings."""
    n = _shots(n_per_projector)
    rho = validate_density_matrix(rho, dim=4)
    # An einsum, not ``@``: a BLAS gemv may sum in another order and move the last bits.
    probs = np.einsum("pk,k->p", _DESIGN, rho.reshape(16)).real
    return n * np.clip(probs, 0.0, 1.0)


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
    A projector fires at most once per shot, so no count may exceed n.
    """
    counts = np.asarray(counts, dtype=float)
    if counts.shape != (16,):
        raise ValueError(f"expected 16 counts, got shape {counts.shape}")
    if not np.all(np.isfinite(counts) & (counts >= 0.0)):
        raise ValueError(f"counts must be finite and non-negative, got {counts}")
    n = _shots(n_per_projector)
    if counts.max() > n:  # so every frequency is at most 1
        raise ValueError(f"counts must not exceed n_per_projector = {n}, got {counts.max()}")
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

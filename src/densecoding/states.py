"""Two-qubit polarization states, the information measures built on them, and
ndarray wrappers of the ``tomography`` kernel, which owns their tomography design.

Density matrices are plain complex ndarrays in the fixed product basis
(HH, HV, VH, VV).  All entropies and capacities are in bits.
"""

from __future__ import annotations

import enum

import numpy as np

from .config import _EIGENVALUE_FLOOR, _HERMITICITY_TOL, _TRACE_TOL, BellLabel, InvariantViolation

# The four functions that call the plain-Python ``tomography`` kernel import it
# themselves, so a process that reconstructs no state never compiles it.

__all__ = [
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
    if rho.size == 0:
        raise InvariantViolation(f"density matrix must not be empty, got shape {rho.shape}")
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
    eigenvalues of rho (Y x Y) rho* (Y x Y), from one eigendecomposition of
    rho (see ``tomography.concurrence``)."""
    from . import tomography

    rho = validate_density_matrix(rho, dim=4).tolist()
    return tomography.concurrence(*tomography.eigh(rho))


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
    from .tomography import matrix_text

    return matrix_text(validate_density_matrix(rho, dim=4).tolist())


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

#: The sixteen product settings (Alice ket, Bob ket) in ``tomography.frequencies``'s order.
TOMOGRAPHY_SETTINGS = tuple((a, b) for a in "HVDL" for b in "HVDL")


def expected_tomography_counts(rho: np.ndarray, n_per_projector: float) -> np.ndarray:
    """Noise-free expected counts n * <P_i> for the sixteen settings."""
    from .tomography import frequencies, shots

    n = shots(n_per_projector)
    probs = frequencies(validate_density_matrix(rho, dim=4).tolist())
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

    The raw inverse is projected onto the positive cone (negative
    eigenvalues from finite statistics are clamped to zero) and
    trace-normalized, by ``tomography.reconstruct``.  On exact expected
    counts this is the identity map.  A projector fires at most once per
    shot, so no count may exceed n.
    """
    counts = np.asarray(counts, dtype=float)
    if counts.shape != (16,):
        raise ValueError(f"expected 16 counts, got shape {counts.shape}")
    from .tomography import reconstruct

    return np.array(reconstruct(counts.tolist(), n_per_projector)[0])

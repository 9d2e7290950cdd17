"""Two-qubit polarization states and the information measures built on them.

Density matrices are plain complex ndarrays in the fixed product basis
(HH, HV, VH, VV).  All entropies and capacities are in bits.
"""

from __future__ import annotations

import enum
import inspect

import numpy as np

__all__ = [
    "BellLabel",
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
    "fidelity",
    "partial_trace",
    "validate_density_matrix",
    "von_neumann_entropy",
]

_HERMITICITY_TOL = 1e-12
_TRACE_TOL = 1e-12
_EIGENVALUE_FLOOR = -1e-10


class InvariantViolation(ValueError):
    """Raised when a matrix fails the density-matrix checks."""


def _frozen_record(cls: type) -> type:
    """Make ``cls`` an immutable value class over its annotated fields.

    It gets the shared, already compiled methods below rather than ones
    written and compiled per class at import: ``__init__`` binds arguments
    to the fields in order, class-level values being defaults, through
    ``__signature__`` unless every field is given by position, then calls
    the class's ``__post_init__`` if it has one; equality, hashing and repr
    work over the field values; assignment and deletion raise
    ``AttributeError``.
    """
    annotations = vars(cls)["__annotations__"]
    cls.__match_args__ = tuple(annotations)
    cls.__signature__ = inspect.Signature([
        inspect.Parameter(name, inspect.Parameter.POSITIONAL_OR_KEYWORD, annotation=annotation,
                          default=vars(cls).get(name, inspect.Parameter.empty))
        for name, annotation in annotations.items()], return_annotation=None)
    cls.__init__ = _record_init
    cls.__eq__ = _record_eq
    cls.__hash__ = _record_hash
    cls.__repr__ = _record_repr
    cls.__setattr__ = _record_setattr
    cls.__delattr__ = _record_delattr
    return cls


def _record_init(self, *args, **kwargs) -> None:
    cls = type(self)
    fields = cls.__match_args__
    if kwargs or len(args) != len(fields):
        try:
            bound = cls.__signature__.bind(*args, **kwargs)
        except TypeError as exc:
            raise TypeError(f"{cls.__qualname__}() {exc}") from None
        bound.apply_defaults()
        args = bound.args
    vars(self).update(zip(fields, args))
    post_init = getattr(cls, "__post_init__", None)
    if post_init is not None:
        post_init(self)


def _record_values(self) -> tuple:
    return tuple(getattr(self, name) for name in self.__match_args__)


def _record_eq(self, other):
    if other.__class__ is not self.__class__:
        return NotImplemented
    return _record_values(self) == _record_values(other)


def _record_hash(self) -> int:
    return hash(_record_values(self))


def _record_repr(self) -> str:
    fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
    return f"{type(self).__qualname__}({fields})"


def _record_setattr(self, name: str, value) -> None:
    raise AttributeError(f"cannot assign to field {name!r}")


def _record_delattr(self, name: str) -> None:
    raise AttributeError(f"cannot delete field {name!r}")


class Party(enum.Enum):
    """Which side of the shared pair an operation acts on."""

    ALICE = "ALICE"
    BOB = "BOB"


class BellLabel(enum.Enum):
    """The four maximally entangled two-qubit states."""

    PHI_PLUS = "PHI_PLUS"
    PHI_MINUS = "PHI_MINUS"
    PSI_PLUS = "PSI_PLUS"
    PSI_MINUS = "PSI_MINUS"


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
    return float(_concurrences(*np.linalg.eigh(validate_density_matrix(rho, dim=4))))


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
    rho = validate_density_matrix(rho, dim=4)
    lines = []
    for row in rho:
        lines.append(" ".join(f"{z.real:.17g}{z.imag:+.17g}j" for z in row))
    return "\n".join(lines) + "\n"


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

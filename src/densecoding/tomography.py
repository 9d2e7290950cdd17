"""The sixteen-setting tomography of a two-qubit state, its design held both ways
in Stokes form, and the state's Wootters concurrence, in plain Python floats.

The ``tomo`` command computes with this module and ``config`` only, so its
process loads no numpy; ``states`` wraps the same functions for ndarrays.  A matrix is a
list of four rows of four complex entries in the product basis (HH, HV, VH,
VV), and eigenvectors are a list of four columns.  The arithmetic is float
arithmetic and ``math.sqrt`` only, with no ``sum``, so the bytes depend on
neither numpy nor libm.
"""

from __future__ import annotations

import math

from .config import _EIGENVALUE_FLOOR, _HERMITICITY_TOL, _TRACE_TOL, InvariantViolation

# Eigenvalues of a state below this count as 0 in the concurrence: eigensolver
# noise of order 1e-16 would otherwise turn into 1e-8 after the square root.
_ROOT_CUT = 1e-14
# A Jacobi sweep leaves an entry z alone when |z| <= _JACOBI_TOL * sqrt(|a_pp a_qq|),
# and the iteration ends after a sweep that rotates nothing: at most 7 sweeps on
# 30 000 random, diagonal and degenerate test matrices.
_JACOBI_TOL = 1e-15
_MAX_SWEEPS = 30


def shots(n_per_projector) -> float:
    """n_per_projector as a float, refused unless finite and positive."""
    try:
        n = float(n_per_projector)
    except OverflowError:  # an int beyond the float range
        n = math.inf
    if not (math.isfinite(n) and n > 0.0):
        raise ValueError(f"n_per_projector must be finite and positive, got {n}")
    return n


def _stokes(h, v, d, l):
    """Stokes parameters (S0, S1, S2, S3) of one qubit from its H, V, D and L
    frequencies: rho = (S0 I + S1 X + S2 Y + S3 Z) / 2."""
    return h + v, 2.0 * d - h - v, 2.0 * l - h - v, h - v


def _projections(s0, s1, s2, s3):
    """The H, V, D and L frequencies of one qubit from its Stokes parameters: _stokes inverted."""
    return 0.5 * (s0 + s3), 0.5 * (s0 - s3), 0.5 * (s0 + s1), 0.5 * (s0 + s2)


def _pauli_block(s0, s1, s2, s3):
    """The 2 x 2 matrix s0 I + s1 X + s2 Y + s3 Z, rows (H, V)."""
    return ((s0 + s3, s1 - 1j * s2), (s1 + 1j * s2, s0 - s3))


def _pauli_traces(a, b, c, d):
    """Tr(sigma m), sigma = I, X, Y, Z, of m = [[a, b], [c, d]]: _pauli_block inverted, times 2."""
    return a + d, b + c, 1j * (b - c), a - d


def linear_inversion(freqs) -> list[list[complex]]:
    """The matrix whose sixteen projector expectations are freqs, those of H, V,
    D and L for Alice, each with H, V, D and L for Bob, as rho = sum S_mu,nu
    sigma_mu x sigma_nu / 4 over the two-qubit Stokes parameters (James, Kwiat,
    Munro & White, PRA 64, 052312, 2001).  Each entry below the diagonal is the
    conjugate of its mirror, so the matrix is exactly Hermitian."""
    bob = [_stokes(*freqs[4 * a:4 * a + 4]) for a in range(4)]
    alice = [_pauli_block(*_stokes(*column)) for column in zip(*bob)]  # one per Bob Pauli
    rho = [[0j] * 4 for _ in range(4)]
    for i, k in ((0, 0), (0, 1), (1, 1)):  # Alice's blocks on and above the diagonal
        block = _pauli_block(*(alice[nu][i][k] for nu in range(4)))
        for j in range(2):
            for l in range(2):
                rho[2 * i + j][2 * k + l] = 0.25 * block[j][l]
    for r in range(4):
        rho[r][r] = complex(rho[r][r].real, 0.0)
        for c in range(r):
            rho[r][c] = rho[c][r].conjugate()
    return rho


def frequencies(rho) -> list[float]:
    """The sixteen projector expectations of a Hermitian 4 x 4 rho: the inverse of
    :func:`linear_inversion`, its order and steps run backwards."""
    blocks = [_pauli_traces(*rho[i][k:k + 2], *rho[i + 1][k:k + 2]) for i in (0, 2) for k in (0, 2)]
    alice = [_projections(*_pauli_traces(*column)) for column in zip(*blocks)]  # one per Bob Pauli
    return [f.real for column in zip(*alice) for f in _projections(*column)]


# The six index pairs (p, q) of a Jacobi sweep, each with the two other indices.
_PAIRS = tuple((p, q, tuple(k for k in range(4) if k not in (p, q)))
               for p in range(3) for q in range(p + 1, 4))


def _rotation(app: float, aqq: float, apq: complex):
    """(c, s e^{i phi}, t r) of the Jacobi rotation that zeroes apq = r e^{i phi} in
    the Hermitian 2 x 2 block [[app, apq], [conj(apq), aqq]], or None if the
    entry is negligible; app and aqq move by -t r and +t r (Numerical Recipes'
    real rotation, conjugated by the phase of apq)."""
    re, im = apq.real, apq.imag
    r = math.sqrt(re * re + im * im)
    if r == 0.0 or r <= _JACOBI_TOL * math.sqrt(abs(app * aqq)):
        return None
    tau = (aqq - app) / (2.0 * r)
    t = 1.0 / (abs(tau) + math.sqrt(1.0 + tau * tau))  # 0 if tau * tau overflows
    if tau < 0.0:
        t = -t
    c = 1.0 / math.sqrt(1.0 + t * t)
    s = t * c / r
    return c, complex(s * re, s * im), t * r


def _rotate(cols: list[list[complex]], p: int, q: int, c: float, se: complex) -> None:
    """Columns p and q of cols times the rotation [[c, se], [-conj(se), c]]."""
    sec = se.conjugate()
    x, y = cols[p], cols[q]
    cols[p] = [c * xk - sec * yk for xk, yk in zip(x, y)]
    cols[q] = [se * xk + c * yk for xk, yk in zip(x, y)]


def eigh(matrix) -> tuple[list[float], list[list[complex]]]:
    """Eigenvalues in ascending order and unit eigenvectors (columns) of a
    Hermitian 4 x 4 matrix, by cyclic Jacobi rotations."""
    a = [[complex(z) for z in row] for row in matrix]
    diagonal = [a[i][i].real for i in range(4)]
    vecs = [[complex(i == k) for i in range(4)] for k in range(4)]
    for _ in range(_MAX_SWEEPS):
        rotated = False
        for p, q, others in _PAIRS:
            rotation = _rotation(diagonal[p], diagonal[q], a[p][q])
            if rotation is None:
                continue
            rotated = True
            c, se, shift = rotation
            sec = se.conjugate()
            diagonal[p] -= shift
            diagonal[q] += shift
            row_p, row_q = a[p], a[q]
            row_p[q] = row_q[p] = 0j
            for k in others:  # columns p and q times the rotation, rows p and q their mirror
                row_k = a[k]
                kp, kq = row_k[p], row_k[q]
                row_k[p] = x = c * kp - sec * kq
                row_k[q] = y = se * kp + c * kq
                row_p[k], row_q[k] = x.conjugate(), y.conjugate()
            _rotate(vecs, p, q, c, se)
        if not rotated:
            break
    order = sorted(range(4), key=diagonal.__getitem__)
    return [diagonal[i] for i in order], [vecs[i] for i in order]


def _from_eigenpairs(vals: list[float], vecs: list[list[complex]]) -> list[list[complex]]:
    """sum_k vals[k] |vecs[k]><vecs[k]|, exactly Hermitian."""
    rho = [[0j] * 4 for _ in range(4)]
    for i in range(4):
        diagonal = 0.0
        for lam, v in zip(vals, vecs):
            diagonal += lam * (v[i].real * v[i].real + v[i].imag * v[i].imag)
        rho[i][i] = complex(diagonal, 0.0)
        for j in range(i + 1, 4):
            z = 0j
            for lam, v in zip(vals, vecs):
                z += lam * v[i] * v[j].conjugate()
            rho[i][j], rho[j][i] = z, z.conjugate()
    return rho


def check_state(rho) -> tuple[list[float], list[list[complex]]]:
    """Raise :class:`InvariantViolation` unless the 4 x 4 rho has finite entries,
    is Hermitian and of unit trace within 1e-12, and has no eigenvalue below
    -1e-10: the checks of ``states.validate_density_matrix``.  Return the
    eigenpairs of rho by :func:`eigh`, from which the last check reads."""
    if not all(math.isfinite(z.real) and math.isfinite(z.imag) for row in rho for z in row):
        raise InvariantViolation("density matrix has non-finite entries")
    herm_err = 0.0
    for i in range(4):
        for j in range(4):
            d = rho[i][j] - rho[j][i].conjugate()
            herm_err = max(herm_err, math.sqrt(d.real * d.real + d.imag * d.imag))
    if herm_err > _HERMITICITY_TOL:
        raise InvariantViolation(f"matrix not Hermitian: max asymmetry {herm_err:.3e}")
    trace = rho[0][0] + rho[1][1] + rho[2][2] + rho[3][3] - 1.0
    trace_err = math.sqrt(trace.real * trace.real + trace.imag * trace.imag)
    if trace_err > _TRACE_TOL:
        raise InvariantViolation(f"trace differs from 1 by {trace_err:.3e}")
    vals, vecs = eigh(rho)
    if vals[0] < _EIGENVALUE_FLOOR:
        raise InvariantViolation(f"matrix not positive semidefinite: eigenvalue {vals[0]:.3e}")
    return vals, vecs


def reconstruct(counts, n_per_projector) -> tuple[list[list[complex]], list[float],
                                                   list[list[complex]]]:
    """The state of sixteen projector counts by linear inversion, and its eigenpairs.

    The inverse is projected onto the positive cone (negative eigenvalues
    from finite statistics are clamped to zero) and trace-normalized, then
    checked by :func:`check_state`, whose eigenpairs are returned: those of
    ``concurrence(*eigh(rho))``, the route of ``states.concurrence``.  On exact expected counts this is the
    identity map.  A projector fires at most once per shot, so no count may
    exceed n.
    """
    for position, count in enumerate(counts, 1):
        if not (math.isfinite(count) and count >= 0.0):
            raise ValueError(f"counts must be finite and non-negative, "
                             f"got {count} at position {position}")
    n = shots(n_per_projector)
    top = max(counts)
    if top > n:  # so every frequency is at most 1
        raise ValueError(f"counts must not exceed n_per_projector = {n}, got {top}")
    vals, vecs = eigh(linear_inversion([count / n for count in counts]))
    vals = [lam if lam > 0.0 else 0.0 for lam in vals]
    total = vals[0] + vals[1] + vals[2] + vals[3]
    if total <= 0.0:
        raise ValueError("reconstruction gives a zero state; counts unusable")
    vals = [lam / total for lam in vals]
    rho = _from_eigenpairs(vals, vecs)
    return (rho, *check_state(rho))


def concurrence(vals: list[float], vecs: list[list[complex]]) -> float:
    """Wootters' concurrence max(0, l1 - l2 - l3 - l4) of a two-qubit state from
    its eigenpairs (Wootters, PRL 80, 2245, 1998).

    The l_i are the singular values of sqrt(flipped) sqrt(rho). With rho =
    V Lambda V^H and S = diag(sqrt(Lambda)), Lambda < 1e-14 set to 0, that
    product is (Y x Y) conj(V) S W S V^H with W = V^T (Y x Y) V. Unitary
    factors leave singular values alone: the l_i are those of S W S, which a
    one-sided Jacobi SVD resolves to relative precision.
    """
    roots = [math.sqrt(lam) if lam >= _ROOT_CUT else 0.0 for lam in vals]
    # (Y x Y) v = (-v3, v2, v1, -v0) in the (HH, HV, VH, VV) basis.
    flipped = [(-v[3], v[2], v[1], -v[0]) for v in vecs]
    cols = [[roots[i] * roots[j] * (vi[0] * fj[0] + vi[1] * fj[1] + vi[2] * fj[2] + vi[3] * fj[3])
             for i, vi in enumerate(vecs)] for j, fj in enumerate(flipped)]  # S W S
    norms = _column_norms(cols)
    for _ in range(_MAX_SWEEPS):
        rotated = False
        for p, q, _others in _PAIRS:
            gram = 0j
            for x, y in zip(cols[p], cols[q]):
                gram += x.conjugate() * y
            rotation = _rotation(norms[p], norms[q], gram)
            if rotation is None:
                continue
            rotated = True
            _rotate(cols, p, q, *rotation[:2])
            norms[p], norms[q] = _column_norms([cols[p], cols[q]])
        if not rotated:
            break
    l1, l2, l3, l4 = sorted((math.sqrt(norm) for norm in norms), reverse=True)
    return max(0.0, l1 - l2 - l3 - l4)


def _column_norms(cols: list[list[complex]]) -> list[float]:
    """The squared 2-norm of each column."""
    norms = []
    for col in cols:
        norm = 0.0
        for z in col:
            norm += z.real * z.real + z.imag * z.imag
        norms.append(norm)
    return norms


def matrix_text(rho) -> str:
    """Four lines of four entries, each "re+imj" with 17 significant digits."""
    return "".join(" ".join(f"{z.real:.17g}{z.imag:+.17g}j" for z in row) + "\n" for row in rho)

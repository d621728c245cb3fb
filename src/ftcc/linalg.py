"""Dense linear-algebra primitives.

Matrices are plain ``numpy.ndarray``s validated on entry (finite, 2-D).
Everything here is a pure function of its inputs; there is no shared state,
so concurrent callers are safe.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .exceptions import (
    DegenerateKernelError,
    InvalidInputError,
    NoKernelError,
)

_EPS = np.finfo(float).eps


def default_rel_tol(rows: int, cols: int) -> float:
    """Default relative rank tolerance: max(rows, cols) * eps * 64."""
    return max(rows, cols) * _EPS * 64.0


def as_matrix(m, name: str = "matrix") -> np.ndarray:
    """Validate and return a 2-D array with finite entries."""
    a = np.asarray(m)
    if a.ndim != 2:
        raise InvalidInputError(f"{name} must be 2-D, got shape {a.shape}")
    if a.size and not np.all(np.isfinite(a)):
        raise InvalidInputError(f"{name} contains non-finite entries")
    return a


@dataclass(frozen=True)
class EigenPair:
    """An eigenvalue with its left eigenvector (w^T A = value * w^T).

    ``column`` is the eigenvector column as LAPACK returned it (real for a
    real eigenvalue of a real matrix).  ``left_vector`` is that column scaled
    to unit norm, its phase fixed so that its first entry above 1e-12 in
    modulus is real positive; it is computed on first read, so a caller that
    reads only ``value`` pays for no vector.
    """

    value: complex
    column: np.ndarray

    @cached_property
    def left_vector(self) -> np.ndarray:
        v = self.column / np.linalg.norm(self.column)
        nz = np.flatnonzero(np.abs(v) > 1e-12)
        if len(nz):
            v = v * (np.conj(v[nz[0]]) / abs(v[nz[0]]))
        return v


def numerical_rank(m, rel_tol: float | None = None) -> int:
    """Number of singular values above rel_tol times the largest one."""
    a = as_matrix(m)
    if a.size == 0:
        return 0
    if rel_tol is None:
        rel_tol = default_rel_tol(*a.shape)
    if rel_tol <= 0:
        raise InvalidInputError("rel_tol must be positive")
    sv = np.linalg.svd(a, compute_uv=False)
    if sv[0] == 0:
        return 0
    return int(np.sum(sv > rel_tol * sv[0]))


def common_kernel_vector(stack, rel_tol: float | None = None) -> np.ndarray:
    """Kernel vector shared by all row blocks of a (possibly tall) stack.

    Returns beta with ``stack @ beta ~ 0`` normalized so beta[-1] == 1.
    The extraction uses the right singular vector of the smallest singular
    value, which stays well-behaved on nearly singular Hankel stacks.
    """
    a = as_matrix(stack, "stack")
    cols = a.shape[1]
    if rel_tol is None:
        rel_tol = default_rel_tol(*a.shape)
    # a thin V holds the null vector only when rows >= cols
    _, sv, vt = np.linalg.svd(a, full_matrices=a.shape[0] < cols)
    if sv[0] == 0:
        beta = np.zeros(cols)
        beta[-1] = 1.0
        return beta
    rank = int(np.sum(sv > rel_tol * sv[0]))
    if rank == cols:
        raise NoKernelError(
            f"matrix is full rank at rel_tol={rel_tol:g} "
            f"(smallest/largest singular value = {sv[-1] / sv[0]:.3e})"
        )
    beta = vt[-1]
    scale_floor = np.sqrt(_EPS) / np.sqrt(cols)
    if abs(beta[-1]) < scale_floor:
        raise DegenerateKernelError(
            f"kernel vector has vanishing last entry ({beta[-1]:.3e})"
        )
    return beta / beta[-1]


def _eigen_sort_key(value: complex):
    return (-abs(value), -value.real, -value.imag)


def eigen_left(a) -> list[EigenPair]:
    """All eigenvalues of A with their left eigenvectors, normalized on first read.

    Ordering is deterministic: modulus descending, then real part, then
    imaginary part descending, so the positive-imaginary member of a
    conjugate pair comes first.  A real matrix is decomposed in real
    arithmetic, so LAPACK returns its complex eigenpairs as exact conjugates
    and its real eigenvalues with real left vectors.
    """
    m = as_matrix(a)
    if m.shape[0] != m.shape[1]:
        raise InvalidInputError(f"eigen_left expects a square matrix, got {m.shape}")
    # w^T A = lam w^T  <=>  A^T w = lam w
    values, vectors = np.linalg.eig(m.T)
    real_input = np.isrealobj(m)
    pairs = []
    for k in range(len(values)):
        v = vectors[:, k]
        if real_input and values[k].imag == 0:
            v = v.real
        pairs.append(EigenPair(complex(values[k]), v))
    pairs.sort(key=lambda p: _eigen_sort_key(p.value))
    return pairs


def eigenvalues(a) -> np.ndarray:
    """Eigenvalues only, in the deterministic eigen_left order."""
    return np.array([p.value for p in eigen_left(a)])


def is_schur_stable(a, margin: float = 0.0) -> bool:
    """True iff every eigenvalue modulus is < 1 - margin."""
    m = as_matrix(a)
    if m.shape[0] != m.shape[1]:
        raise InvalidInputError("is_schur_stable expects a square matrix")
    if margin < 0:
        raise InvalidInputError("margin must be >= 0")
    if m.size == 0:
        return True
    return bool(np.max(np.abs(np.linalg.eigvals(m))) < 1.0 - margin)


def controllability_matrix(a, b) -> np.ndarray:
    """Kalman controllability matrix [B, AB, ..., A^(n-1) B]."""
    am = as_matrix(a, "A")
    bm = as_matrix(b, "B")
    if am.shape[0] != am.shape[1] or bm.shape[0] != am.shape[0]:
        raise InvalidInputError(
            f"incompatible shapes for controllability matrix: {am.shape}, {bm.shape}"
        )
    blocks = [bm]
    for _ in range(am.shape[0] - 1):
        blocks.append(am @ blocks[-1])
    return np.hstack(blocks)


"""The per-node Hankel rank searches, one node, one window and one width at a time.

They are the reference for ``ftcc.consensus._first_defective``, which runs the
same rank tests for every node at once: each function here reads one node's
iterates ``view = hist[:, j]``, shape (rounds+1, n+1).
"""

import numpy as np

from ftcc.consensus import _dtype_eps
from ftcc.linalg import common_kernel_vector, numerical_rank


def _window_rows(seq: np.ndarray, width: int) -> np.ndarray:
    """Every run of ``width`` consecutive entries of ``seq``, one per row."""
    return np.array([seq[i : i + width] for i in range(len(seq) - width + 1)])


def _live_difference_stack(view: np.ndarray, width: int, shift: int = 1) -> np.ndarray | None:
    """Row-normalized Hankel blocks of the sequences that still carry signal.

    ``view`` is one node's iterates, shape (rounds+1, n+1).  Each scalar
    sequence (every column of [alpha | pi]) gets its own noise floor, 64 eps
    times the largest iterate magnitude it ever reached: a node whose
    sequence is constant up to arithmetic noise (for example when its row of
    the weight matrix is already proportional to the consensus functional)
    would otherwise present pure rounding noise as a full-rank Hankel.
    Converged blocks impose no kernel constraint; live blocks are scaled by
    their own difference magnitude so the rank test compares like with
    like.  Returns None when every sequence has converged.  Every window of
    the differences from ``shift`` on contributes a row, so a view of 2w +
    shift iterates gives the square Hankel of width w.
    """
    diffs = np.diff(view, axis=0)[shift:]
    eps = _dtype_eps(view.dtype)
    blocks = []
    for r in range(view.shape[1]):
        seq_scale = float(np.max(np.abs(view[:, r])))
        d = np.asarray(diffs[:, r], dtype=float)
        d_scale = float(np.max(np.abs(d))) if len(d) else 0.0
        if d_scale <= 64.0 * eps * max(seq_scale, 1e-300):
            continue
        blocks.append(_window_rows(d / d_scale, width))
    if not blocks:
        return None
    return np.vstack(blocks)


def _is_defective(stack: np.ndarray | None, rel_tol: float) -> bool:
    return stack is None or numerical_rank(stack, rel_tol) < stack.shape[1]


def _kernel(view: np.ndarray, rel_tol: float) -> np.ndarray | None:
    """The node's Hankel kernel beta, normalized so beta[-1] == 1.

    Rather than trusting the minimal square Hankel that triggered detection
    (which can look singular out of sheer ill-conditioning), the kernel
    width is re-established on the full difference history: every available
    window contributes a row, and the first width whose stack is genuinely
    rank-deficient wins.  Sequences that all converged within arithmetic
    noise give degree zero, beta = [1]; None when no width is rank-deficient.
    """
    for width in range(1, (len(view) - 1) // 2 + 1):
        stack = _live_difference_stack(view, width)
        if stack is None:
            return np.ones(1)
        if _is_defective(stack, rel_tol):
            return common_kernel_vector(stack, rel_tol)
    return None


def _degree(view: np.ndarray, shift: int, round_cap: int, rel_tol: float) -> int | None:
    """Width - 1 of the node's first defective square Hankel in one difference window.

    Width w completes at round 2w - 1 + shift and reads view[: 2w + shift], the
    iterates up to that round; None when no width completing by ``round_cap`` is.
    """
    for width in range(1, (round_cap + 1 - shift) // 2 + 1):
        stack = _live_difference_stack(view[: 2 * width + shift], width, shift)
        if _is_defective(stack, rel_tol):
            return width - 1
    return None

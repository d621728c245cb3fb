"""The jointly controllable/observable discrete-time LTI plant."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .exceptions import InvalidInputError, JointSystemError
from .linalg import as_matrix, controllability_matrix, numerical_rank


@dataclass(frozen=True)
class LtiSystem:
    """Plant matrix A with per-agent input columns B_i and output rows C_i.

    Dimensions are validated on construction; joint controllability and
    observability of the stacked pair is checked separately by
    ``joint_rank_checks`` (a ScenarioConfig enforces it on construction).
    """

    a: np.ndarray
    b_list: tuple[np.ndarray, ...]
    c_list: tuple[np.ndarray, ...]
    n: int = field(init=False)

    def __post_init__(self):
        a = as_matrix(self.a, "A")
        if a.shape[0] != a.shape[1]:
            raise InvalidInputError(f"A must be square, got {a.shape}")
        n = a.shape[0]
        b_list, c_list = tuple(map(np.asarray, self.b_list)), tuple(map(np.asarray, self.c_list))
        for name, m in [*(("B_i", b) for b in b_list), *(("C_i", c) for c in c_list)]:
            if m.ndim != 2:
                raise InvalidInputError(f"{name} must be 2-D, got shape {m.shape}")
        if len(b_list) != len(c_list):
            raise InvalidInputError("need one B_i and one C_i per agent")
        for i, b in enumerate(b_list):
            if b.shape[0] != n:
                raise InvalidInputError(f"B_{i} must have {n} rows, got {b.shape}")
        for i, c in enumerate(c_list):
            if c.shape[1] != n:
                raise InvalidInputError(f"C_{i} must have {n} columns, got {c.shape}")
        if b_list:   # finiteness in one pass over each stacked set of blocks
            as_matrix(np.concatenate(b_list, axis=1), "B_i")
            as_matrix(np.concatenate(c_list), "C_i")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b_list", b_list)
        object.__setattr__(self, "c_list", c_list)
        object.__setattr__(self, "n", n)

    @property
    def agent_count(self) -> int:
        return len(self.b_list)


def joint_rank_checks(sys: LtiSystem) -> tuple[bool, bool]:
    """Kalman-rank tests on the stacked input and output matrices."""
    n = sys.n
    ctrl = numerical_rank(controllability_matrix(sys.a, np.hstack(sys.b_list))) == n
    obsv = numerical_rank(controllability_matrix(sys.a.T, np.vstack(sys.c_list).T)) == n
    return ctrl, obsv


def require_jointly_controllable_observable(sys: LtiSystem) -> None:
    ctrl, obsv = joint_rank_checks(sys)
    if not ctrl or not obsv:
        missing = []
        if not ctrl:
            missing.append("controllable")
        if not obsv:
            missing.append("observable")
        raise JointSystemError(f"system is not jointly {' or '.join(missing)}")


def local_indices(sys: LtiSystem):
    """Per-agent controllability and observability ranks (rho_i, chi_i)."""
    rho = [numerical_rank(controllability_matrix(sys.a, b)) for b in sys.b_list]
    chi = [numerical_rank(controllability_matrix(sys.a.T, c.T)) for c in sys.c_list]
    return rho, chi

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
        b_list = tuple(as_matrix(b, "B_i") for b in self.b_list)
        c_list = tuple(as_matrix(c, "C_i") for c in self.c_list)
        if len(b_list) != len(c_list):
            raise InvalidInputError("need one B_i and one C_i per agent")
        for i, b in enumerate(b_list):
            if b.shape[0] != n:
                raise InvalidInputError(f"B_{i} must have {n} rows, got {b.shape}")
        for i, c in enumerate(c_list):
            if c.shape[1] != n:
                raise InvalidInputError(f"C_{i} must have {n} columns, got {c.shape}")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b_list", b_list)
        object.__setattr__(self, "c_list", c_list)
        object.__setattr__(self, "n", n)

    @property
    def agent_count(self) -> int:
        return len(self.b_list)

    def b_stacked(self) -> np.ndarray:
        return np.hstack(self.b_list)

    def c_stacked(self) -> np.ndarray:
        return np.vstack(self.c_list)


def joint_rank_checks(sys: LtiSystem) -> tuple[bool, bool]:
    """Kalman-rank tests on the stacked input and output matrices."""
    n = sys.n
    ctrl = numerical_rank(controllability_matrix(sys.a, sys.b_stacked())) == n
    obsv = numerical_rank(controllability_matrix(sys.a.T, sys.c_stacked().T)) == n
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

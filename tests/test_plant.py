import numpy as np
import pytest

from ftcc.exceptions import InvalidInputError, JointSystemError
from ftcc.plant import (
    LtiSystem,
    joint_rank_checks,
    local_indices,
    require_jointly_controllable_observable,
)
from ftcc.runtime import _estimate_and_control, _step_matrices


def two_agent_system():
    a = np.diag([0.5, 1.5])
    return LtiSystem(
        a=a,
        b_list=(np.array([[1.0], [0.0]]), np.array([[0.0], [1.0]])),
        c_list=(np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]])),
    )


class TestLtiSystem:
    def test_dimension_validation(self):
        with pytest.raises(InvalidInputError):
            LtiSystem(
                a=np.eye(2),
                b_list=(np.zeros((3, 1)),),
                c_list=(np.zeros((1, 2)),),
            )

    def test_stacking(self, paper_scenario):
        sys = paper_scenario.plant
        assert sys.b_stacked().shape == (8, 4)
        assert sys.c_stacked().shape == (4, 8)


def loop_update(sys, x, xbar, k_gains=None, l_gains=None):
    """The closed loop's estimation-control update, every node holding xbar.

    Gains default to zero; F is zero.  Returns x_next and the (N, n) estimates.
    """
    n = sys.n
    if k_gains is None:
        k_gains = [np.zeros((b.shape[1], n)) for b in sys.b_list]
    if l_gains is None:
        l_gains = [np.zeros((n, c.shape[0])) for c in sys.c_list]
    matrices = _step_matrices(sys, k_gains, l_gains, np.zeros((n, n)), float)
    return _estimate_and_control(*matrices, x, np.tile(xbar, (sys.agent_count, 1)))


class TestPlantStep:
    """The plant half of the loop update: x <- A x + sum_i B_i K_i xbar."""

    def test_identity_zero_input(self):
        sys = two_agent_system()
        x = np.array([1.0, -2.0])
        x2, _ = loop_update(
            LtiSystem(a=np.eye(2), b_list=sys.b_list, c_list=sys.c_list),
            x,
            np.ones(2),
        )
        assert np.array_equal(x2, x)

    def test_zero_state_zero_input(self):
        sys = two_agent_system()
        l_gains = [c.T for c in sys.c_list]
        x2, xhat2 = loop_update(sys, np.zeros(2), np.zeros(2), l_gains=l_gains)
        assert np.array_equal(x2, np.zeros(2))
        assert all(np.array_equal(xh, np.zeros(2)) for xh in xhat2)

    def test_outputs_measured_before_update(self):
        # with L_i = C_i^T and xbar = 0 the estimate update is C_i^T y_i, so
        # it exposes the outputs; A moves x, so post-update outputs would differ
        sys = two_agent_system()
        x = np.array([2.0, 3.0])
        l_gains = [c.T for c in sys.c_list]
        x2, xhat2 = loop_update(sys, x, np.zeros(2), l_gains=l_gains)
        assert xhat2[0][0] == 2.0 and xhat2[1][1] == 3.0
        assert not np.array_equal(x2, x)

    def test_linearity(self):
        rng = np.random.default_rng(8)
        sys = two_agent_system()
        k_gains = [rng.normal(size=(1, 2)) for _ in range(2)]
        x1, x2 = rng.normal(size=2), rng.normal(size=2)
        v1, v2 = rng.normal(size=2), rng.normal(size=2)
        lhs, _ = loop_update(sys, x1 + x2, v1 + v2, k_gains)
        r1, _ = loop_update(sys, x1, v1, k_gains)
        r2, _ = loop_update(sys, x2, v2, k_gains)
        assert np.max(np.abs(lhs - (r1 + r2))) < 1e-12

    def test_closed_loop_decay_with_designed_gains(self, paper_scenario, paper_init):
        sys = paper_scenario.plant
        x = paper_scenario.x0.copy()
        norms = []
        for _ in range(40):
            # state feedback from truth: every node agrees on x itself
            x, _ = loop_update(sys, x, x, paper_init.k_gains)
            norms.append(np.linalg.norm(x))
        assert norms[-1] < 1e-3 * norms[0]


class TestStructure:
    def test_integrator_controllable(self):
        sys = LtiSystem(
            a=np.zeros((2, 2)),
            b_list=(np.eye(2),),
            c_list=(np.eye(2),),
        )
        ctrl, obsv = joint_rank_checks(sys)
        assert ctrl and obsv

    def test_unobservable_mode(self):
        sys = LtiSystem(
            a=np.diag([1.0, 2.0]),
            b_list=(np.eye(2),),
            c_list=(np.array([[1.0, 0.0]]),),
        )
        _, obsv = joint_rank_checks(sys)
        assert not obsv
        with pytest.raises(JointSystemError):
            require_jointly_controllable_observable(sys)

    def test_fournode_system_jointly_both(self, paper_scenario):
        ctrl, obsv = joint_rank_checks(paper_scenario.plant)
        assert ctrl and obsv

    def test_fournode_local_indices(self, paper_scenario):
        rho, chi = local_indices(paper_scenario.plant)
        assert rho == [4, 2, 6, 2]
        assert chi == [4, 2, 2, 6]

    def test_full_b_gives_full_rho(self):
        sys = LtiSystem(
            a=np.diag([1.0, 2.0, 3.0]),
            b_list=(np.eye(3),),
            c_list=(np.eye(3),),
        )
        rho, _ = local_indices(sys)
        assert rho == [3]

    def test_local_never_exceeds_joint(self, paper_scenario):
        rho, chi = local_indices(paper_scenario.plant)
        assert max(rho) <= paper_scenario.plant.n
        assert max(chi) <= paper_scenario.plant.n

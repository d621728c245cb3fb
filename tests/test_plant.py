import numpy as np
import pytest

from ftcc.exceptions import InvalidInputError, JointSystemError
from ftcc.plant import LtiSystem, joint_rank_checks, require_jointly_controllable_observable


class TestLtiSystem:
    @pytest.mark.parametrize(
        "a, b_list, c_list, message",
        [
            (np.eye(2), [np.zeros((3, 1))], [np.zeros((1, 2))], r"^B_0 must have 2 rows, got \(3, 1\)$"),
            (np.eye(2), [np.zeros((2, 1))], [np.zeros((1, 3))], r"^C_0 must have 2 columns, got \(1, 3\)$"),
            (np.zeros((2, 3)), [], [], r"^A must be square, got \(2, 3\)$"),
            (np.eye(2), [np.zeros(2)], [np.zeros((1, 2))], r"^B_i must be 2-D, got shape \(2,\)$"),
            (np.eye(2), [np.zeros((2, 1))], [], "^need one B_i and one C_i per agent$"),
        ],
    )
    def test_dimension_validation(self, a, b_list, c_list, message):
        with pytest.raises(InvalidInputError, match=message):
            LtiSystem(a, b_list, c_list)


class TestStructure:
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

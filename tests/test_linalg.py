import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ftcc.consensus import _window_rows
from ftcc.exceptions import (
    DegenerateKernelError,
    InvalidInputError,
    NoKernelError,
)
from ftcc.linalg import (
    common_kernel_vector,
    eigen_left,
    eigenvalues,
    is_schur_stable,
    numerical_rank,
)

BENCH_A = np.array(
    [
        [1, 0.5, 0, 0, 3, 0, 0, 0],
        [0.5, 1, 0, 0, 0, 0, 0, 0],
        [0, 0, 1, 0.5, 0, 0, 0, 0],
        [0, 0, 0.8, 1, 0, 0, 0, 0],
        [0, 0, 0, 0, 1, 0.5, 0, 0],
        [0, 0, 0, 0, 0.6, 1, 0, 0],
        [0, 0, 0, 0, 0, 0, 0.7, 0.1],
        [1, 0, 0, 0, 0, 0, 0.2, 0.7],
    ],
    dtype=float,
)
# block-triangular under reordering; spectrum is the union of 2x2 block spectra
BENCH_A_SPECTRUM = sorted(
    [
        1.5,
        0.5,
        1 + np.sqrt(0.4),
        1 - np.sqrt(0.4),
        1 + np.sqrt(0.3),
        1 - np.sqrt(0.3),
        0.7 + np.sqrt(0.02),
        0.7 - np.sqrt(0.02),
    ]
)


class TestHankel:
    """The square Hankel the consensus monitor builds from 2m+1 differences."""

    def test_zero_differences(self):
        assert np.array_equal(_window_rows(np.zeros(3), 2), np.zeros((2, 2)))

    def test_layout(self):
        assert np.array_equal(
            _window_rows(np.array([1, 2, 3]), 2), np.array([[1, 2], [2, 3]])
        )

    @given(st.integers(1, 5), st.integers(0, 1000))
    @settings(max_examples=30, deadline=None)
    def test_antidiagonals_constant(self, m, seed):
        seq = np.random.default_rng(seed).normal(size=2 * m + 1)
        h = _window_rows(seq, m + 1)
        assert h.shape == (m + 1, m + 1)
        for i in range(m + 1):
            for j in range(m + 1):
                assert h[i, j] == seq[i + j]


class TestRank:
    def test_identity(self):
        assert numerical_rank(np.eye(3), 1e-8) == 3

    def test_outer_product(self):
        assert numerical_rank(np.array([[1.0, 2.0], [2.0, 4.0]]), 1e-8) == 1

    def test_duplicated_row(self):
        rng = np.random.default_rng(3)
        m = rng.normal(size=(4, 4))
        m[3] = m[1]
        assert numerical_rank(m, 1e-8) == 3

    def test_zero_matrix(self):
        assert numerical_rank(np.zeros((3, 3)), 1e-8) == 0

    def test_rejects_nonpositive_tol(self):
        with pytest.raises(InvalidInputError):
            numerical_rank(np.eye(2), 0.0)


class TestKernel:
    def test_symmetric_singular(self):
        beta = common_kernel_vector(np.ones((2, 2)), 1e-8)
        assert np.allclose(beta, [-1.0, 1.0])

    def test_zero_matrix(self):
        beta = common_kernel_vector(np.zeros((2, 2)), 1e-8)
        assert np.allclose(beta, [0.0, 1.0])

    def test_full_rank_raises(self):
        with pytest.raises(NoKernelError):
            common_kernel_vector(np.eye(3), 1e-8)

    def test_degenerate_kernel_raises(self):
        # kernel is span(e1): last entry zero, not normalizable
        m = np.diag([0.0, 1.0])
        with pytest.raises(DegenerateKernelError):
            common_kernel_vector(m, 1e-8)

    @given(st.integers(2, 6), st.integers(0, 1000))
    @settings(max_examples=30, deadline=None)
    def test_residual_bound(self, n, seed):
        rng = np.random.default_rng(seed)
        m = rng.normal(size=(n, n))
        m[:, -1] = m[:, :-1] @ rng.normal(size=n - 1)  # force a kernel with last entry
        beta = common_kernel_vector(m, 1e-8)
        assert np.linalg.norm(m @ beta) <= 1e-8 * np.linalg.norm(m) * np.linalg.norm(
            beta
        ) * 10

    def test_cycle_consensus_final_value(self):
        # ratio consensus on a 3-node cycle: kernel quotient equals the
        # asymptotic limit of alpha/pi run to convergence
        p = np.array([[0.5, 0, 0.5], [0.5, 0.5, 0], [0, 0.5, 0.5]])
        alpha = np.array([1.0, 4.0, -2.0])
        pi = np.ones(3)
        ah, ph = [alpha.copy()], [pi.copy()]
        for _ in range(400):
            alpha, pi = p @ alpha, p @ pi
            if len(ah) < 12:
                ah.append(alpha.copy())
                ph.append(pi.copy())
        limit = alpha[0] / pi[0]  # converged to ~1e-12
        diffs = np.diff([a[0] for a in ah])[1:]
        h = _window_rows(diffs[:5], 3)
        beta = common_kernel_vector(h, 1e-8)
        mu = (np.array([a[0] for a in ah[1:4]]) @ beta) / (
            np.array([q[0] for q in ph[1:4]]) @ beta
        )
        assert abs(mu - limit) < 1e-9
        assert abs(mu - np.mean([1.0, 4.0, -2.0])) < 1e-9


class TestEigenLeft:
    def test_diagonal(self):
        pairs = eigen_left(np.diag([2.0, 0.5]))
        assert [p.value for p in pairs] == [2.0, 0.5]
        assert np.allclose(np.abs(pairs[0].left_vector), [1, 0])
        assert np.allclose(np.abs(pairs[1].left_vector), [0, 1])

    def test_symmetric_2x2(self):
        pairs = eigen_left(np.array([[1.0, 0.5], [0.5, 1.0]]))
        assert np.allclose(sorted(p.value.real for p in pairs), [0.5, 1.5])

    def test_bench_a_spectrum(self):
        got = sorted(v.real for v in eigenvalues(BENCH_A))
        assert np.allclose(got, BENCH_A_SPECTRUM, atol=1e-10)

    def test_left_residual_invariant(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            a = rng.normal(size=(5, 5))
            for p in eigen_left(a):
                res = np.linalg.norm(p.left_vector @ a - p.value * p.left_vector)
                assert res <= 1e-8 * np.linalg.norm(a)
                assert abs(np.linalg.norm(p.left_vector) - 1) < 1e-12

    def test_conjugate_pairs_exact(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=(6, 6))
        pairs = eigen_left(a)
        values = [p.value for p in pairs]
        for i, p in enumerate(pairs):
            if p.value.imag > 0:
                mate = pairs[i + 1]
                assert mate.value == p.value.conjugate()
                assert np.array_equal(mate.left_vector, np.conj(p.left_vector))

    def test_ordering_deterministic(self):
        rng = np.random.default_rng(1)
        a = rng.normal(size=(5, 5))
        v1 = [p.value for p in eigen_left(a)]
        v2 = [p.value for p in eigen_left(a)]
        assert v1 == v2
        mods = [abs(v) for v in v1]
        assert mods == sorted(mods, reverse=True)

    def test_nonsquare_rejected(self):
        with pytest.raises(InvalidInputError):
            eigen_left(np.zeros((2, 3)))


class TestSchur:
    def test_zero_matrix(self):
        assert is_schur_stable(np.zeros((3, 3)))

    def test_identity(self):
        assert not is_schur_stable(np.eye(2))

    def test_bench_a_unstable(self):
        assert not is_schur_stable(BENCH_A)

    def test_margin(self):
        assert is_schur_stable(np.diag([0.9, 0.5]), 0.05)
        assert not is_schur_stable(np.diag([0.9, 0.5]), 0.15)

    def test_agrees_with_eigen_left(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            a = rng.normal(size=(4, 4))
            by_eig = max(abs(p.value) for p in eigen_left(a)) < 1.0
            assert is_schur_stable(a, 0.0) == by_eig

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


# A 16x16 matrix met during a token pass of the init16 benchmark (seed 0),
# rounded to 5 digits.  Pairing conjugates by distance once returned 19
# eigenpairs for it.
TOKEN_PASS_16 = np.array(
    [
        [0.23377, -0.13341, 0.28098, 0.15455, -0.33687, 0.45265, 0.06119, -0.00095044, 0.051062, -0.026746, 0.20786, -0.11197, 0.31313, -0.3724, -0.027535, -0.25989],
        [0.78923, 0.2006, -0.68834, 0.44945, 0.04246, -0.31822, -0.94404, 0.14642, -0.34277, 0.0658, -1.4426, -0.29638, 0.046342, 0.53153, 0.91322, 1.1283],
        [-0.024745, 0.44213, -0.23406, 0.50658, 0.23095, -0.71739, -0.065584, -0.28688, -0.041396, -0.53659, -0.83477, -0.38509, -0.70538, 0.11765, 0.62473, 0.41888],
        [-0.23089, -0.2314, 0.30461, -0.30183, -0.28593, -0.035327, 0.24599, -0.041556, 0.41997, -0.10629, -0.29119, 0.37077, 0.50486, -0.43798, -0.11309, -0.22552],
        [0.54567, 0.25572, -0.74623, 0.27501, 0.35059, 0.015078, -0.66009, -0.17084, 0.27006, -0.16694, -0.64189, 0.094352, -0.78763, 0.090429, 0.78012, 0.94524],
        [0.52745, 0.17812, 0.15528, 0.14825, 0.15172, -0.0089894, -0.39059, -0.20596, 0.042856, 0.060709, -0.96582, -0.12053, -0.48441, 0.71747, 0.18829, 0.81039],
        [0.16784, -0.29619, -0.52397, 0.36989, -0.10791, -0.15022, -0.090016, 0.21954, -0.0047244, 0.22119, -0.014521, -0.36277, -0.2321, -0.10666, -0.17099, -0.24375],
        [0.22213, -0.16439, -0.5995, 0.39323, -0.13436, -0.036025, -0.35843, -0.20159, 0.026711, 0.002739, -0.12216, -0.11984, -0.49108, -0.090523, -0.12466, -0.37087],
        [0.16658, 0.38741, -0.45024, 0.053128, 0.21001, 0.20247, -0.13823, 0.11986, -0.24404, -0.23213, 0.18704, -0.85212, -0.32148, 0.27407, 0.4225, 0.020698],
        [-0.037971, 0.32915, 0.15309, 0.12671, 0.27696, -0.0092368, 0.66913, -0.02705, 0.22095, -0.15225, 0.021711, 0.033214, 0.18452, 0.00012816, 0.28339, 0.43941],
        [0.78046, 0.72356, -0.85164, 0.59782, 0.26149, -0.10998, -0.8329, -0.22092, 0.086526, -0.38565, -1.2828, 0.030085, 0.0048786, 0.46519, 0.41272, 1.3947],
        [0.38092, 0.70641, -0.3636, 0.38249, -0.014076, -0.24131, -0.63983, -0.76682, 0.11709, -0.34161, -1.3319, 0.088993, -0.75274, 1.2864, 0.60865, 1.1611],
        [0.62183, 0.70564, -0.71668, 0.6686, 0.21646, -0.066968, -0.51178, -0.86592, -0.10027, -0.63905, -1.4216, -0.16416, 0.07791, 1.208, 1.381, 1.6948],
        [0.42045, 0.64683, -0.83163, 0.84673, 0.779, -0.0057648, -0.7099, -0.47578, -0.051831, -0.63018, -1.34, 0.11202, -0.31177, 1.0075, 0.54248, 0.96154],
        [0.18195, 0.64346, -0.96272, 0.22618, -0.13382, -0.17137, 0.16055, -0.45974, -0.20622, -0.45832, -0.58382, 0.2721, -0.228, 0.67578, 0.12479, 0.68331],
        [0.41883, 0.43637, -0.01587, 0.49581, 0.097427, -0.33936, -0.26814, -0.42741, 0.33804, -0.10953, -0.43663, -0.60216, -0.53901, 0.28951, 0.44005, 0.92152],
    ]
)


def _window_rows(seq: np.ndarray, width: int) -> np.ndarray:
    """Every run of ``width`` consecutive entries of ``seq``, one per row."""
    return np.array([seq[i : i + width] for i in range(len(seq) - width + 1)])


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

    def test_one_pair_per_eigenvalue(self):
        pairs = eigen_left(TOKEN_PASS_16)
        assert len(pairs) == 16
        values = [p.value for p in pairs]
        for p in pairs:
            if p.value.imag:
                assert values.count(p.value.conjugate()) == 1
            else:
                assert np.isrealobj(p.left_vector)
            res = np.linalg.norm(p.left_vector @ TOKEN_PASS_16 - p.value * p.left_vector)
            assert res <= 1e-10 * np.linalg.norm(TOKEN_PASS_16)

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

    @staticmethod
    def eager_pairs(a):
        """(value, left vector) with every vector normalized and phase-fixed up front."""
        values, vectors = np.linalg.eig(a.T)
        pairs = []
        for k in range(len(values)):
            v = vectors[:, k]
            if np.isrealobj(a) and values[k].imag == 0:
                v = v.real
            v = v / np.linalg.norm(v)
            nz = np.flatnonzero(np.abs(v) > 1e-12)
            if len(nz):
                v = v * (np.conj(v[nz[0]]) / abs(v[nz[0]]))
            pairs.append((complex(values[k]), v))
        pairs.sort(key=lambda p: (-abs(p[0]), -p[0].real, -p[0].imag))
        return pairs

    def test_vectors_on_first_read_equal_the_eager_ones(self):
        rng = np.random.default_rng(17)
        q = rng.normal(size=(5, 5))
        # random real matrices carry conjugate pairs
        cases = [rng.normal(size=(n, n)) for n in (1, 2, 5, 8) for _ in range(5)]
        cases += [
            q @ np.diag([2.0, 2.0, 0.5, 0.5, -1.0]) @ np.linalg.inv(q),   # repeated eigenvalues
            np.eye(4),
            np.diag([0.3, -2.0, 0.3, 1.0]),   # one-hot vectors: the phase rule
            np.diag([1.0 + 1.0j, -0.5j, 2.0]),
            rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6)),   # complex input
        ]
        for a in cases:
            pairs = eigen_left(a)
            assert not any("left_vector" in vars(p) for p in pairs)   # none normalized yet
            expected = self.eager_pairs(a)
            assert [p.value for p in pairs] == [value for value, _ in expected]
            assert list(eigenvalues(a)) == [value for value, _ in expected]
            for p, (_, v) in zip(pairs, expected):
                assert p.left_vector.dtype == v.dtype
                assert p.left_vector.tobytes() == v.tobytes()


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

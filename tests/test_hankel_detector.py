"""The batched Hankel rank monitor gives what the per-node searches gave.

``hankel_reference`` holds the searches ``ftcc.consensus`` ran before the
monitor was batched over nodes: one node, one window, one width at a time.
"""

import decimal

import numpy as np
import pytest

from ftcc.consensus import (
    DEFAULT_REL_TOL,
    _first_defective,
    _ratio_history,
    _rows,
    finite_time_average,
    in_arithmetic,
)
from ftcc.exceptions import DegenerateInitializationError, InvalidInputError
from ftcc.graph import out_weight_matrix
from ftcc.linalg import common_kernel_vector

from conftest import complete_digraph, random_strongly_connected
from hankel_reference import _degree, _kernel, _live_difference_stack


def history(g, x0, dtype=float):
    """The bootstrap's iterates up to its default round cap 4N + 2, in ``dtype``."""
    pw = in_arithmetic(out_weight_matrix(g), dtype)
    return _ratio_history(pw, _rows(g, in_arithmetic(x0, dtype))[0], 4 * g.node_count + 2)


def square(hist):
    """The history cut at each round the search asks for: square Hankels."""
    return lambda r: hist[: r + 1]


def degrees(hist, shift, rel_tol=DEFAULT_REL_TOL):
    return [None if f is None else f[0] - 1 for f in _first_defective(square(hist), shift, rel_tol)]


def kernels(hist, rel_tol=DEFAULT_REL_TOL):
    return [
        None if f is None else np.ones(1) if f[1] is None else common_kernel_vector(f[1], rel_tol)
        for f in _first_defective(lambda r: hist, 1, rel_tol)
    ]


def as_bytes(arrays):
    return [None if a is None else (a.shape, a.tobytes()) for a in arrays]


def assert_same_stacks(hist, shift, rel_tol, tall=False):
    """Each node's deciding stack is the per-node one of its width, row for row.

    Only live columns give rows, so the rank test sees the same numbers.
    """
    found = _first_defective((lambda r: hist) if tall else square(hist), shift, rel_tol)
    views = [
        None if f is None else hist[:, j] if tall else hist[: 2 * f[0] + shift, j]
        for j, f in enumerate(found)
    ]
    assert as_bytes(f and f[1] for f in found) == as_bytes(
        f and _live_difference_stack(view, f[0], shift) for f, view in zip(found, views)
    )


def assert_matches_reference(g, x0, dtype=float, rel_tol=DEFAULT_REL_TOL):
    """Degrees in both windows on the whole history, and kernels on the bootstrap's.

    When the bootstrap raises, the kernels are compared on the history's
    first half instead.
    """
    hist = history(g, x0, dtype)
    cap, n = len(hist) - 1, g.node_count
    expected = [[_degree(hist[:, j], shift, cap, rel_tol) for j in range(n)] for shift in (1, 0)]
    assert [degrees(hist, 1, rel_tol), degrees(hist, 0, rel_tol)] == expected
    assert_same_stacks(hist, 1, rel_tol)
    assert_same_stacks(hist, 0, rel_tol)
    try:
        res = finite_time_average(g, in_arithmetic(x0, dtype), rel_tol=rel_tol)
        assert [res.degrees, res.distance_degrees] == expected
        rounds, found = res.rounds_used, res.kernels
    except DegenerateInitializationError:
        rounds = cap // 2
        found = kernels(hist[: rounds + 1], rel_tol)
    part = hist[: rounds + 1]
    assert as_bytes(found) == as_bytes([_kernel(part[:, j], rel_tol) for j in range(n)])
    assert_same_stacks(part, 1, rel_tol, tall=True)
    return hist


@pytest.mark.parametrize("n", [8, 16, 24, 32])
def test_near_ring_digraphs(n):
    # the digraphs of seeds 1000 N + s: a Hamiltonian ring and a few chords
    seeds = [1000 * n + s for s in range(2)] + ([24021] if n == 24 else [])
    for seed in seeds:
        rng = np.random.default_rng(seed)
        g = random_strongly_connected(rng, n)
        for x0 in (np.arange(float(n)), rng.normal(size=n)):
            assert_matches_reference(g, x0)


def test_criterion_6_multi_column_draws():
    # live-column patterns differ between nodes at one width in some draws,
    # so one width's nodes fall into more than one group
    rng = np.random.default_rng(2024)
    mixed = 0
    for trial in range(100):
        g = random_strongly_connected(rng, int(rng.integers(2, 11)))
        x0 = rng.normal(size=(g.node_count, 3 if trial % 3 == 0 else 1))
        if trial % 3:
            continue
        hist = assert_matches_reference(g, x0)
        patterns = {
            tuple(_live_difference_stack(hist[:3, j, [r]], 1) is not None for r in range(4))
            for j in range(g.node_count)
        }
        mixed += len(patterns) > 1
    assert mixed >= 3


def test_complete_48_converges_in_every_column():
    g = complete_digraph(48)
    hist = assert_matches_reference(g, np.arange(48.0))
    assert all(f == (1, None) for f in _first_defective(lambda r: hist, 1, DEFAULT_REL_TOL))
    assert as_bytes(finite_time_average(g, np.arange(48.0)).kernels) == as_bytes([np.ones(1)] * 48)


def test_extended_and_decimal_histories():
    rng = np.random.default_rng(11)
    graphs = [random_strongly_connected(rng, n) for n in (4, 7)]
    for g in graphs:
        x0 = rng.normal(size=(g.node_count, 2))
        assert_matches_reference(g, x0, np.longdouble)
        with decimal.localcontext() as ctx:
            ctx.prec = 37
            hist = assert_matches_reference(g, x0, object)
            assert isinstance(hist[-1, 0, 0], decimal.Decimal)


def test_no_kernel_error_is_unchanged():
    # at rel_tol 1e-15 the square Hankels of nodes 0, 1 and 4 look singular,
    # but no stack of the full history does
    g, rel_tol = random_strongly_connected(np.random.default_rng(5012), 5), 1e-15
    with pytest.raises(DegenerateInitializationError) as err:
        finite_time_average(g, np.arange(5.0), rel_tol=rel_tol)
    assert str(err.value) == "nodes [0, 1, 4]: no rank-deficient Hankel width"
    rounds = err.value.history.shape[1] - 1
    hist = history(g, np.arange(5.0))[: rounds + 1]
    assert np.array_equal(err.value.history, hist[..., :-1].swapaxes(0, 1))
    assert [j for j in range(5) if _kernel(hist[:, j], rel_tol) is None] == [0, 1, 4]
    expected = [_kernel(hist[:, j], rel_tol) for j in range(5)]
    assert as_bytes(kernels(hist, rel_tol)) == as_bytes(expected)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_differences_beyond_float_range_raise():
    # the extended iterates are finite; their differences overflow float64
    # (a cast overflow warns, and the per-node search divides inf by inf)
    g = random_strongly_connected(np.random.default_rng(4), 5)
    x0 = np.array([1.7e308, -1.7e308, 3.0, 3.0, 3.0], dtype=np.longdouble)
    pw = in_arithmetic(out_weight_matrix(g), np.longdouble)
    hist = _ratio_history(pw, _rows(g, x0)[0], 22)
    for shift in (1, 0):
        outcomes = []
        for search in (
            lambda: degrees(hist, shift),
            lambda: [_degree(hist[:, j], shift, 22, DEFAULT_REL_TOL) for j in range(5)],
        ):
            try:
                outcomes.append(search())
            except InvalidInputError as exc:
                outcomes.append(str(exc))
        assert outcomes[0] == outcomes[1]
    assert outcomes[0] == "matrix contains non-finite entries"


def test_rel_tol_must_be_positive():
    g = random_strongly_connected(np.random.default_rng(3), 4)
    with pytest.raises(InvalidInputError, match="rel_tol must be positive"):
        finite_time_average(g, np.arange(4.0), rel_tol=0.0)

"""Acceptance suite: one test per criterion, each printing its PASS/FAIL line.

Criterion 5 replays a reference counterexample whose recorded eigenvalues are
internally inconsistent with its printed matrices (verified by hand and by
exhaustive small-typo search); the check is implemented exactly as stated
and is a strict expected failure rather than a weakened assertion.
"""

import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest

from ftcc import acceptance
from ftcc.graph import Digraph
from ftcc.plant import LtiSystem


def _report(result):
    print(result.line())
    return result


def test_criterion_1_round_budget(acceptance_ctx):
    assert _report(acceptance.criterion_1(acceptance_ctx)).passed


def test_criterion_2_structural_indices(acceptance_ctx):
    assert _report(acceptance.criterion_2(acceptance_ctx)).passed


def test_criterion_3_control_gains(acceptance_ctx):
    assert _report(acceptance.criterion_3(acceptance_ctx)).passed


def test_criterion_4_observer_gains(acceptance_ctx):
    assert _report(acceptance.criterion_4(acceptance_ctx)).passed


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="recorded eigenvalues of the counterexample do not match its "
    "recorded matrices; the instability claim itself holds",
)
def test_criterion_5_counterexample_eigenvalues(acceptance_ctx):
    assert _report(acceptance.criterion_5(acceptance_ctx)).passed


def test_criterion_5_counterexample_instability_claim():
    # the substantive claim behind the benchmark: independently designed
    # gains leave the summed closed loop unstable
    closed = (
        acceptance.COUNTEREXAMPLE_A
        + acceptance.COUNTEREXAMPLE_B1 @ acceptance.COUNTEREXAMPLE_K1
        + acceptance.COUNTEREXAMPLE_B2 @ acceptance.COUNTEREXAMPLE_K2
    )
    assert np.max(np.abs(np.linalg.eigvals(closed))) > 1.0
    assert acceptance.criterion_5(None).detail.endswith("unstable as claimed: True")


def swapped(ctx, blocks, i, j):
    """``ctx`` with the plant's ``blocks`` ("b_list" or "c_list") of agents i and j exchanged."""
    plant = ctx.cfg.plant
    lists = {"b_list": list(plant.b_list), "c_list": list(plant.c_list)}
    lists[blocks][i], lists[blocks][j] = lists[blocks][j], lists[blocks][i]
    cfg = dataclasses.replace(ctx.cfg, plant=LtiSystem(plant.a, **lists))
    return dataclasses.replace(ctx, cfg=cfg)


def nudged(ctx, gains, i):
    """``ctx`` with every entry of agent i's ``gains`` ("k_gains" or "l_gains") moved by 1e-3."""
    moved = list(getattr(ctx.init, gains))
    moved[i] = moved[i] + 1e-3
    return dataclasses.replace(ctx, init=dataclasses.replace(ctx.init, **{gains: moved}))


# each breaks one condition of one criterion on the paper-4node context
BROKEN = {
    "2: rho": lambda ctx: swapped(ctx, "b_list", 2, 3),
    "2: chi": lambda ctx: swapped(ctx, "c_list", 2, 3),
    "3: K4 = 0": lambda ctx: nudged(ctx, "k_gains", 3),
    "4: L3 = 0": lambda ctx: nudged(ctx, "l_gains", 2),
}


@pytest.mark.parametrize("case", BROKEN)
def test_one_broken_condition_fails_its_criterion(acceptance_ctx, case):
    criterion = getattr(acceptance, f"criterion_{case.split(':')[0]}")
    assert criterion(acceptance_ctx).passed
    result = criterion(BROKEN[case](acceptance_ctx))
    assert not result.passed
    assert result.line().startswith("[FAIL] ") and "known benchmark" not in result.line()


def test_criterion_6_finite_time_exactness(acceptance_ctx):
    assert _report(acceptance.criterion_6(acceptance_ctx)).passed


def test_criterion_6_fails_a_wrong_or_late_one(monkeypatch):
    def bootstrap(g, x0, error=0.0, late=0):   # the mean, stopping by m_bar + late
        return SimpleNamespace(mu=x0.mean(axis=0) + error, done_rounds=[1 + late], m_bar=1)

    monkeypatch.setattr(acceptance, "finite_time_average", bootstrap)
    assert acceptance.criterion_6(None).passed
    for kwargs, late in (({"error": 1e-6}, 0), ({"late": 1}, 1)):
        monkeypatch.setattr(acceptance, "finite_time_average", lambda g, x0: bootstrap(g, x0, **kwargs))
        result = acceptance.criterion_6(None, trials=1)
        assert not result.passed and result.detail.endswith(f"late terminations {late}")


def test_criterion_7_error_recursions(acceptance_ctx):
    assert _report(acceptance.criterion_7(acceptance_ctx)).passed


def test_criterion_8_convergence_rate(acceptance_ctx):
    assert _report(acceptance.criterion_8(acceptance_ctx)).passed


def test_criterion_8_slope_is_the_exact_arithmetic_one(acceptance_ctx):
    # -1.1994 at every mpmath precision from 90 to 160 bits: quad is no floor
    detail = acceptance.criterion_8(acceptance_ctx).detail
    assert detail.startswith("log-linear slope -1.1994 ")


def test_criterion_9_placement_invariance(acceptance_ctx):
    assert _report(acceptance.criterion_9(acceptance_ctx)).passed


def test_criterion_9_places_once_on_each_drawn_system(monkeypatch):
    sizes = []

    def recorded(place):
        def placed(a, *args):
            sizes.append(len(a))
            return place(a, *args)
        return placed

    for name in ("place_single", "place_pair"):
        monkeypatch.setattr(acceptance, name, recorded(getattr(acceptance, name)))
    result = acceptance.criterion_9(None, trials=12)
    assert result.passed and result.detail.startswith("12 random systems")
    assert sizes == [6, 4, 4, 5, 6, 5, 3, 5, 5, 3, 4, 3]   # the state dimension of each draw


def test_criterion_10_token_complexity(acceptance_ctx):
    assert _report(acceptance.criterion_10(acceptance_ctx)).passed


@pytest.mark.parametrize("hops, floods", [(1, 0), (0, 1)], ids=["hops", "floods"])
def test_criterion_10_fails_past_either_bound_on_each_ring(monkeypatch, hops, floods):
    rings = []

    def token(g, sys, targets, mode, leader):
        n = g.node_count
        rings.append(n)
        ring = [(i, (i + 1) % n) for i in range(n)]
        assert g == Digraph(n, ring + [(b, a) for a, b in ring]) and leader == 0
        assert np.allclose(sys.a, np.diag(1.1 + 0.1 * np.arange(n)))
        return SimpleNamespace(hop_count=(n - 1) ** 2 + hops, flood_count=len(g.edges) + floods)

    monkeypatch.setattr(acceptance, "run_token_protocol", token)
    result = acceptance.criterion_10(None)
    assert not result.passed and result.detail.startswith(f"hops/bound N=3:{4 + hops}/4, N=4:")
    assert rings == list(range(3, 9))


def test_criterion_11_tau_invariance(acceptance_ctx):
    assert _report(acceptance.criterion_11(acceptance_ctx)).passed


def test_criterion_11_fails_on_another_error_or_time_column(acceptance_ctx):
    ref, tau_10 = acceptance_ctx.trace, acceptance_ctx.traces_by_tau[10.0]
    for other, detail in (
        (dataclasses.replace(tau_10, ebar=ref.ebar + 1e-3), "identical=False, time column exact=True"),
        (ref, "identical=True, time column exact=False"),   # tau 1's, filed under tau 10
    ):
        ctx = dataclasses.replace(acceptance_ctx, traces_by_tau={1.0: ref, 10.0: other})
        result = acceptance.criterion_11(ctx)
        assert not result.passed and result.detail.endswith(detail)


def test_placed_spectrum_reads_only_the_moved_eigenvalues():
    # 0.5 stays where it was: only 0.6, moved from 2, is matched to a target
    assert acceptance._placed_spectrum(np.diag([2.0, 0.5]), np.diag([0.6, 0.5]), [0.6]) == (True, 0)

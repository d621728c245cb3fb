"""One benchmark operation, its correctness checks, and the timed passes."""

from __future__ import annotations

import csv
import hashlib
import json
import resource
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from ftcc.exceptions import FtccError
from ftcc.runtime import initialize, run_closed_loop
from ftcc.scenario import load_scenario, save_scenario

import scenarios
import tracing

AGREEMENT_REL_TOL = 1e-9
PAPER_SPECTRUM_TOL = 1e-6


@dataclass
class OpResult:
    """Timings, counts and check outcomes of one operation."""

    attempted: int
    failed: int
    digest: str
    run_s: float | None = None
    setup_s: float | None = None
    steps_per_s: float | None = None
    m_bar: int | None = None
    gains_failure: bool = False
    avg_rel_err_max: float = 0.0
    violations: list[str] = field(default_factory=list)


def _raised_in(exc: BaseException, module: str) -> bool:
    tb = exc.__traceback__
    while tb is not None:
        if tb.tb_frame.f_globals.get("__name__") == module:
            return True
        tb = tb.tb_next
    return False


def _gains_document(cfg, init) -> dict:
    """The gains document ``ftcc init --out`` writes.

    Built here from public fields rather than with the CLI's private helper,
    so that a refactor of the CLI cannot break the benchmark.
    """

    def pairs(values):
        return [[z.real, z.imag] for z in np.asarray(values, dtype=complex)]

    return {
        "scenario": cfg.name,
        "m_bar": init.m_bar,
        "d_prime": init.d_prime,
        "leader": init.leader,
        "k_gains": [k.tolist() for k in init.k_gains],
        "l_gains": [l.tolist() for l in init.l_gains],
        "f_control": init.f_control.tolist(),
        "controller_spectrum": pairs(init.controller_spectrum),
        "observer_spectrum": pairs(init.observer_spectrum),
    }


def _check_agreements(trace, res: OpResult) -> int:
    """Each node's agreed copy must match the mean of the estimates.

    The tolerance, 1e-9 of the largest estimate, ignores summation order
    but catches the wrong averages of ill-conditioned Hankel kernels.
    Returns the number of steps that failed.
    """
    bad = 0
    for k, (nodes, xhat) in enumerate(zip(trace.xbar_nodes, trace.xhat)):
        scale = float(np.max(np.abs(xhat)))
        err = float(np.max(np.abs(nodes - xhat.mean(axis=0))))
        if scale > 0:
            res.avg_rel_err_max = max(res.avg_rel_err_max, err / scale)
        if err > AGREEMENT_REL_TOL * scale:
            bad += 1
            res.violations.append(
                f"step {k}: agreed average off by {err:.3e} (scale {scale:.3e})"
            )
    return bad


def _check_paper_case(cfg, init, trace, res: OpResult) -> bool:
    """The paper's reference behaviour of ``paper-4node``; True if it holds."""

    def route(token) -> list[int]:
        # the node that declares the token read-only ends the route; in the
        # control pass it places nothing, so it is not in visit_order
        return token.visit_order + [
            j for j in [token.declared_by] if j not in token.visit_order
        ]

    def spectrum_off(spectrum, targets) -> float:
        got = np.sort_complex(np.asarray(spectrum, dtype=complex))
        want = np.sort_complex(np.asarray(targets, dtype=complex))
        return float(np.max(np.abs(got - want))) if got.shape == want.shape else np.inf

    checks = {
        "m_bar is 11": init.m_bar == 11,
        "leader is node 0": init.leader == 0,
        "control token route v1->v2->v3->v4": route(init.control_token) == [0, 1, 2, 3],
        "observer token route v1->v2->v3->v4": route(init.observer_token) == [0, 1, 2, 3],
        "controller spectrum on its targets": spectrum_off(
            init.controller_spectrum, cfg.controller_targets) <= PAPER_SPECTRUM_TOL,
        "observer spectrum on its targets": spectrum_off(
            init.observer_spectrum, cfg.observer_targets) <= PAPER_SPECTRUM_TOL,
        "K_4 is zero": not np.any(init.k_gains[3]),
        "L_3 is zero": not np.any(init.l_gains[2]),
        "|x| decays": trace.norm_x[-1] < trace.norm_x[0],
    }
    failing = [name for name, ok in checks.items() if not ok]
    res.violations += [f"paper-4node: {name} fails" for name in failing]
    return not failing


def run_op(tracer, path, out_dir, workload: str) -> OpResult:
    """One `ftcc export` (or, on init16, `ftcc init` plus a short loop)."""
    with tracer.span("bench.op"):
        with tracer.span("scenario.load") as load:
            cfg = load_scenario(path)
        steps = cfg.horizon + 1
        try:
            with tracer.span("runtime.initialize") as setup:
                init = initialize(cfg)
        except FtccError as exc:
            return OpResult(
                attempted=1 + steps, failed=1 + steps, digest=f"error: {exc}",
                gains_failure=_raised_in(exc, "ftcc.gains"),
            )
        gains_text = ""
        if workload == "init16":
            with tracer.span("cli.gains_json") as output:
                gains_text = json.dumps(_gains_document(cfg, init), indent=2) + "\n"
                (out_dir / "gains.json").write_text(gains_text)
        try:
            with tracer.span("runtime.loop") as loop:
                trace = run_closed_loop(cfg, init)
        except FtccError as exc:
            return OpResult(attempted=1 + steps, failed=steps, digest=f"error: {exc}")
        with tracer.span("runtime.csv") as write:
            with open(out_dir / "trace.csv", "w", newline="") as fh:
                csv.writer(fh).writerows(trace.csv_rows())
    if workload != "init16":
        output = write
    res = OpResult(
        attempted=1 + steps,
        failed=0,
        digest="",
        run_s=output.end - load.start,
        setup_s=setup.seconds,
        steps_per_s=len(trace.steps) / loop.seconds,
        m_bar=init.m_bar,
    )
    res.failed = _check_agreements(trace, res)
    if workload == "paper4-quad" and not _check_paper_case(cfg, init, trace, res):
        res.failed += 1
    h = hashlib.sha256(gains_text.encode())
    h.update((out_dir / "trace.csv").read_bytes())
    h.update(np.ascontiguousarray(np.stack(trace.xbar_nodes)).tobytes())
    res.digest = h.hexdigest()
    return res


def _median(values):
    values = [v for v in values if v is not None]
    return float(np.median(values)) if values else None


def run_workload(workload, seed, seconds, traced, tiny, work) -> dict:
    cfgs = scenarios.build(workload, seed, tiny)
    paths = []
    for i, cfg in enumerate(cfgs):
        paths.append(work / f"scenario-{i}.json")
        save_scenario(cfg, paths[-1])

    tracer = tracing.Tracer()
    digests: dict[int, str] = {}
    violations: list[str] = []
    m_bars: dict[int, int] = {}

    def op(i):
        tracer.run_id += 1
        res = run_op(tracer, paths[i], work, workload)
        if digests.setdefault(i, res.digest) != res.digest:
            res.violations.append(f"scenario {i}: trace digest differs between two runs")
            res.failed = res.attempted
        if res.m_bar is not None:
            m_bars[i] = res.m_bar
        violations.extend(v for v in res.violations if v not in violations)
        return tracer.run_id, res

    def passes(budget, minimum):
        """Whole passes over the scenarios: at least ``minimum``, and more
        until ``budget`` seconds have gone."""
        out, first = [], set()
        deadline = perf_counter() + budget
        while len(out) < minimum * len(paths) or perf_counter() < deadline:
            batch = [op(i) for i in range(len(paths))]
            if not out:
                first = {run_id for run_id, _ in batch}
            out += batch
        return out, first

    # Every scenario runs at least twice, so its trace digest is compared.
    if traced:
        plain, _ = passes(seconds / 2, 1)
        with tracing.installed(tracer) as found:
            timed, first = passes(seconds / 2, 1)
    else:
        plain, (timed, first) = [], passes(seconds, 2)
    results = [r for _, r in timed]
    everything = [r for _, r in plain] + results

    if traced:
        metrics = tracing.layer_metrics(tracer, {rid for rid, _ in timed}, first, found)
        metrics["gains.failures"] = sum(r.gains_failure for rid, r in timed if rid in first)
        metrics["consensus.avg_rel_err_max"] = max(r.avg_rel_err_max for r in results)
        base = _median([r.run_s for _, r in plain])
        with_wrappers = _median([r.run_s for r in results])
        metrics["trace.overhead_share"] = (
            with_wrappers / base - 1 if base and with_wrappers else None
        )
    else:
        metrics = {
            "setup_s": _median([r.setup_s for r in results]),
            "steps_per_s": _median([r.steps_per_s for r in results]),
            "run_s": _median([r.run_s for r in results]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }

    return {
        "metrics": metrics,
        "attempted": sum(r.attempted for r in everything),
        "failed": sum(r.failed for r in everything),
        "ops": len(everything),
        "violations": violations,
        "notes": _share_notes(workload, metrics) if traced else [],
        "digests": [digests[i] for i in sorted(digests)],
        "scenarios": [
            {
                "name": cfg.name,
                "N": cfg.graph.node_count,
                "E": len(cfg.graph.edges),
                "n": cfg.plant.n,
                "m_bar": m_bars.get(i),
                "precision": cfg.precision,
                "horizon": cfg.horizon,
            }
            for i, cfg in enumerate(cfgs)
        ],
        "tracer": tracer,
    }


# Shares the workload was chosen for: (metric, workload, low, high).
EXPECTED_SHARES = (
    ("graph.round_self_share", "complete48", 0.5, None),
    ("graph.round_self_share", "paper4-quad", None, 0.05),
    ("consensus.agree_share", "paper4-quad", 0.8, None),
    ("consensus.agree_share", "sparse16", 0.8, None),
    ("gains.token_share", "init16", 0.5, None),
)


def _share_notes(workload: str, metrics: dict) -> list[str]:
    notes = []
    for name, wl, low, high in EXPECTED_SHARES:
        if wl != workload:
            continue
        value = metrics.get(name)
        ok = value is not None and (low is None or value > low) and (
            high is None or value < high
        )
        bound = f"> {low}" if low is not None else f"< {high}"
        notes.append(f"{name} = {value} (expected {bound}): {'holds' if ok else 'DOES NOT HOLD'}")
    return notes

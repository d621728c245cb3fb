"""Command-line front end: init, simulate, verify."""

from __future__ import annotations

import argparse
import csv
import dataclasses
import errno
import json
import os
import sys as _sys

import numpy as np

from .acceptance import run_all
from .exceptions import FtccError
from .runtime import initialize, run_closed_loop
from .scenario import load_scenario


def _complex_list(values) -> list:
    return [[z.real, z.imag] for z in np.asarray(values, dtype=complex)]


def _gains_document(cfg, init) -> dict:
    return {
        "scenario": cfg.name,
        "m_bar": init.m_bar,
        "d_prime": init.d_prime,
        "leader": init.leader,
        "k_gains": [k.tolist() for k in init.k_gains],
        "l_gains": [l.tolist() for l in init.l_gains],
        "f_control": init.f_control.tolist(),
        "controller_spectrum": _complex_list(init.controller_spectrum),
        "observer_spectrum": _complex_list(init.observer_spectrum),
        "token_hops": {
            "control": init.control_token.hop_count,
            "observer": init.observer_token.hop_count,
        },
        "visit_order": {
            "control": init.control_token.visit_order,
            "observer": init.observer_token.visit_order,
        },
    }


def _print_matrix(name, m):
    with np.printoptions(precision=4, suppress=True, linewidth=120):
        print(f"{name} =\n{np.asarray(m)}")


def cmd_init(args) -> int:
    cfg = load_scenario(args.scenario)
    _check_out(args.out)
    init = initialize(cfg)
    print(f"scenario      : {cfg.name}")
    print(f"m_bar         : {init.m_bar}")
    print(f"diameter bound: {init.d_prime}")
    print(f"leader        : node {init.leader}")
    print(f"token visits  : control {init.control_token.visit_order}, "
          f"observer {init.observer_token.visit_order}")
    for i, k in enumerate(init.k_gains):
        _print_matrix(f"K_{i + 1}", k)
    for i, l in enumerate(init.l_gains):
        _print_matrix(f"L_{i + 1}", l)
    with np.printoptions(precision=6, suppress=True):
        print("closed-loop spectrum (control) :", np.sort_complex(init.controller_spectrum))
        print("closed-loop spectrum (observer):", np.sort_complex(init.observer_spectrum))
    if args.out:
        document = json.dumps(_gains_document(cfg, init), indent=2) + "\n"
        _write(args.out, lambda fh: fh.write(document))
        print(f"gains written to {args.out}")
    return 0


def _check_out(path) -> None:
    """Raise ``_write``'s error before any set-up when ``path`` cannot be opened for writing."""
    if path:
        try:
            os.stat(os.path.join(os.path.dirname(path) or ".", ""))   # a file fails with "/"
            if os.path.isdir(path):
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
        except OSError as exc:
            raise FtccError(f"could not write {path}: {exc.strerror or exc}") from None


def _write(path, write) -> None:
    """Open ``path`` for text and hand it to ``write``; an OSError is an FtccError."""
    try:
        with open(path, "w", newline="") as fh:
            write(fh)
    except OSError as exc:   # a missing directory, no permission, a full disk
        raise FtccError(f"could not write {path}: {exc.strerror or exc}") from None


def cmd_simulate(args) -> int:
    cfg = load_scenario(args.scenario)
    flags = {"horizon": args.horizon, "taus": None if args.tau is None else (args.tau,)}
    if given := {name: v for name, v in flags.items() if v is not None}:
        cfg = dataclasses.replace(cfg, **given)   # checked as a scenario file's values are
    _check_out(args.out)
    init = initialize(cfg)
    trace = run_closed_loop(cfg, init)
    print(
        f"{cfg.name}: horizon {cfg.horizon}, tau {trace.tau}, m_bar {init.m_bar}, "
        f"leader {init.leader}"
    )
    last = trace.steps[-1]
    print(
        f"final step {last}: |x| = {trace.norm_x[-1]:.3e}, "
        f"|ebar| = {trace.norm_ebar[-1]:.3e}, t = {trace.times[-1]:.1f}"
    )
    if args.out:
        _write(args.out, lambda fh: csv.writer(fh).writerows(trace.csv_rows()))
        print(f"trace written to {args.out}")
    return 0


def cmd_verify(args) -> int:
    results = run_all()
    for res in results:
        print(res.line())
    failures = [r for r in results if not r.passed]
    print(f"{len(results) - len(failures)}/{len(results)} criteria passed")
    return 1 if failures else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ftcc",
        description="Distributed LTI estimation and control with finite-time "
        "consensus and token-passing gain design",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_init = sub.add_parser("init", help="run initialization only, print gains")
    p_init.add_argument("--scenario", default="paper-4node")
    p_init.add_argument("--out", help="write gains as JSON")
    p_init.set_defaults(fn=cmd_init)

    p_sim = sub.add_parser("simulate", help="run the full closed loop")
    p_sim.add_argument("--scenario", default="paper-4node")
    p_sim.add_argument("--tau", type=float, default=None)
    p_sim.add_argument("--horizon", type=int, default=None)
    p_sim.add_argument("--out", help="write the trace as CSV")
    p_sim.set_defaults(fn=cmd_simulate)

    p_verify = sub.add_parser("verify", help="run the acceptance suite on paper-4node")
    p_verify.set_defaults(fn=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except FtccError as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())

"""Command-line front end.

Subcommands: compute, expand, verify, bench, anomaly.  Exit codes: 0 on
success, 1 when a verification fails, 2 on usage or input errors.
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import statistics
import sys
import time
import traceback
from typing import Optional, Sequence

import numpy as np

from . import anomaly as _anomaly
from . import engines as _engines
from . import symbolic as _symbolic
from . import verify as _verify
from .combinatorics import GuardLimitError
from .matrices import load_matrix_file, random_matrix

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2


def _parse_n_range(text: str) -> list[int]:
    """Accept '4', '2..6', or '2,3,5'."""
    text = text.strip()
    if ".." in text:
        lo, hi = text.split("..", 1)
        lo, hi = int(lo), int(hi)
        if hi < lo:
            raise ValueError(f"empty range {text!r}")
        return list(range(lo, hi + 1))
    if "," in text:
        return [int(part) for part in text.split(",")]
    return [int(text)]


def _emit(text: str, out: Optional[str]) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        print(text)


def _cmd_compute(args) -> int:
    mats = [load_matrix_file(path) for path in args.files]
    result = _engines.polydet(mats, args.engine)
    _emit(
        json.dumps(
            {"re": result.value.real, "im": result.value.imag, "engine": result.engine, "grid": result.grid}
        ),
        args.out,
    )
    return EXIT_OK


def _cmd_expand(args) -> int:
    labels = args.labels.split(",") if args.labels else [chr(ord("A") + i) for i in range(args.n)]
    expansion = _symbolic.expand_polydet(args.n, labels)
    _emit(_symbolic.render(expansion, args.format), args.out)
    return EXIT_OK


def _cmd_verify(args) -> int:
    results = _verify.run_property_suite(
        seed=args.seed,
        trials=args.trials,
        n_values=_parse_n_range(args.n),
    )
    if args.json:
        _emit(_verify.report_json(results), args.out)
    else:
        _emit("\n".join(_verify.report_lines(results)), args.out)
    return EXIT_OK if all(r.passed for r in results) else EXIT_VERIFY_FAILED


def run_bench(
    n_values: Sequence[int],
    engine_names: Sequence[str],
    repetitions: int = 5,
    seed: int = 0,
) -> list[tuple[str, int, float, float]]:
    """Wall-clock rows (engine, n, mean_ns, stddev_ns) on seeded inputs.

    One warm-up evaluation per cell, through the ``polydet`` dispatcher, is
    discarded before timing.  A cell whose engine is guarded out at that n
    has no row; any other error, an unknown engine name included, propagates.
    """
    if repetitions < 1:
        raise ValueError(f"repetitions must be >= 1, got {repetitions}")
    rows = []
    for name in engine_names:
        for n in n_values:
            mats = [random_matrix(n, seed + k, "general") for k in range(n)]
            try:
                _engines.polydet(mats, name)  # warm-up, also trips the guard early
            except GuardLimitError:
                continue
            fn = _engines.ENGINES[name]
            samples = []
            for _ in range(repetitions):
                start = time.perf_counter_ns()
                fn(mats)
                samples.append(time.perf_counter_ns() - start)
            rows.append((name, n, statistics.fmean(samples), statistics.pstdev(samples)))
    return rows


def _cmd_bench(args) -> int:
    engine_names = args.engine.split(",") if args.engine else sorted(_engines.ENGINES)
    rows = run_bench(_parse_n_range(args.n), engine_names, repetitions=args.trials, seed=args.seed)
    lines = ["engine,n,mean_ns,stddev_ns"]
    lines += [f"{name},{n},{mean:.0f},{std:.0f}" for name, n, mean, std in rows]
    _emit("\n".join(lines), args.out)
    return EXIT_OK


def _anomaly_report(cfg, couplings, seed: int, trials: int) -> dict:
    n = cfg.n
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if len(cfg.multiplets) < 2:
        raise ValueError("need at least two multiplets")
    s, p = np.transpose(cfg.multiplets, (1, 0, 2))
    mats = _anomaly.assemble_field_matrix(_anomaly.build_generators(n), s, p)[[0] * (n - 1) + [1]]

    rng = np.random.default_rng(seed)
    su_dev: Optional[float] = 0.0
    phase_dev: Optional[float] = 0.0
    try:
        for k in range(trials):
            u_l = random_matrix(n, seed + 11 * k + 1, "special-unitary")
            u_r = random_matrix(n, seed + 11 * k + 2, "special-unitary")
            report = _anomaly.check_invariance(mats, u_l, u_r)
            su_dev = max(su_dev, abs(report.ratio - 1))
        for _ in range(trials):
            theta = float(rng.uniform(-math.pi, math.pi))
            phase = cmath.exp(-1j * theta / math.sqrt(2 * n))
            u_l = phase * np.eye(n)
            u_r = phase.conjugate() * np.eye(n)
            ratio = _anomaly.check_invariance(mats, u_l, u_r).ratio
            predicted = _anomaly.axial_phase_law(n, theta, n)
            phase_dev = max(phase_dev, abs(ratio - predicted))
    except _anomaly.IndeterminateRatioError:
        # zero (or, for the arguments' scale, tiny) base value: ratios carry no information
        su_dev = phase_dev = None

    report = {
        "n": n,
        "invariance": "indeterminate" if su_dev is None else "ok",
        "su_invariance_max_deviation": su_dev,
        "axial_phase_exponent": math.sqrt(2 * n),
        "axial_phase_max_deviation": phase_dev,
    }
    if n == 3 and len(cfg.multiplets) == 2:
        fe = _anomaly.verify_field_expansion(seed, samples=200)
        report["field_expansion"] = {
            "kappa_re": fe.kappa.real,
            "kappa_im": fe.kappa.imag,
            "max_residual": fe.max_residual,
            "samples": fe.samples,
        }
        report["lagrangian"] = {
            "value": _anomaly.lagrangian_value(cfg, couplings, shifted=False),
            "value_shifted": _anomaly.lagrangian_value(cfg, couplings, shifted=True),
        }
    return report


def _cmd_anomaly(args) -> int:
    with open(args.fields, "r", encoding="utf-8") as fh:
        cfg = _anomaly.field_config_from_json(json.load(fh))
    with open(args.couplings, "r", encoding="utf-8") as fh:
        couplings = _anomaly.couplings_from_json(json.load(fh))
    report = _anomaly_report(cfg, couplings, args.seed, args.trials)
    if args.json:
        _emit(json.dumps(report, sort_keys=True), args.out)
    else:
        lines = [f"flavors: {report['n']}"]
        su = report["su_invariance_max_deviation"]
        ax = report["axial_phase_max_deviation"]
        if su is None:
            lines.append("invariance ratios: indeterminate (base value too small)")
        else:
            lines.append(f"SU(N)xSU(N) invariance max |ratio - 1|: {su:.3e}")
            lines.append(
                f"axial phase factor exp(-i*sqrt({2 * report['n']})*theta): "
                f"max deviation {ax:.3e}"
            )
        if "field_expansion" in report:
            fe = report["field_expansion"]
            lines.append(
                f"field expansion: kappa = {fe['kappa_re']:.9g} + {fe['kappa_im']:.3g}i, "
                f"max residual = {fe['max_residual']:.3e} over {fe['samples']} samples"
            )
            lag = report["lagrangian"]
            lines.append(
                f"lagrangian value: {lag['value']:.9g} (unshifted), {lag['value_shifted']:.9g} (shifted)"
            )
        _emit("\n".join(lines), args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="polydet", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute", help="mixed discriminant of matrix JSON files")
    p.add_argument("files", nargs="+", help="matrix JSON files, one per argument slot")
    p.add_argument("--engine", default=None, choices=sorted(_engines.ENGINES))
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_compute)

    p = sub.add_parser("expand", help="symbolic trace expansion")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--labels", default=None, help="comma-separated labels (default A,B,...)")
    p.add_argument("--format", default="text", choices=("text", "latex", "json"))
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_expand)

    p = sub.add_parser("verify", help="randomized property suite")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=50)
    p.add_argument("--n", default="2..5", help="dimension range, e.g. 2..5 or 3,4")
    p.add_argument("--json", action="store_true")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("bench", help="engine timing table (CSV)")
    p.add_argument("--n", default="2..6")
    p.add_argument("--engine", default=None, help="comma-separated engine names (default all)")
    p.add_argument("--trials", type=int, default=5, help="timed repetitions per cell")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_bench)

    p = sub.add_parser("anomaly", help="flavor-symmetry checks on a field configuration")
    p.add_argument("fields", help="field configuration JSON file")
    p.add_argument("couplings", help="couplings JSON file")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--json", action="store_true")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_anomaly)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "seed", 0) < 0:  # verify, bench and anomaly seed numpy generators
            raise ValueError(f"--seed must be >= 0, got {args.seed}")
        return args.fn(args)
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"polydet: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # unexpected: keep the traceback, still end as exit 2 with the message
        traceback.print_exc()
        print(f"polydet: error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())

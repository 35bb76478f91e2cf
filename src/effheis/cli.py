"""Batch front-end.

    effheis <validate|evolve|verify|order-study|boson-check> --config FILE
            [--out FILE] [--csv FILE] [--order exact|1|2] [--lambdas L1,L2,...]
            [--seed S] [--expect-stable]

Exit codes: 0 ok, 1 runtime error, 2 config error, 3 validation failure,
4 verification failure, 5 failed expectation.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import replace

import numpy as np

from .boson import divergence_demo, stability_check
from .config import ModelConfig, decode_matrix, encode_matrix, load_config
from .dynamics import TimeGrid, compare, exact_series, integrate_time_local, order_estimate
from .errors import ConfigError, DegenerateFit, EffheisError, TooManyModes, ValidationError
from .perturbation import kappa12
from .verify import DEFAULT_THRESHOLDS, run_verification

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_CONFIG = 2
EXIT_VALIDATION = 3
EXIT_VERIFICATION = 4
EXIT_EXPECTATION = 5


def _emit(report: dict, out_path: str | None):
    text = json.dumps(report, indent=2, sort_keys=True)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text + "\n")
    else:
        sys.stdout.write(text + "\n")


def _report(command: str, cfg: ModelConfig, payload: dict, t0: float) -> dict:
    return {
        "command": command,
        "config_digest": cfg.digest(),
        "payload": payload,
        "wall_time_s": time.monotonic() - t0,
    }


def _write_series_csv(path: str, series) -> None:
    dim = series.values[0].shape[0]
    header = ["t"] + [f"{part}_{a}_{b}" for a in range(dim) for b in range(dim) for part in ("re", "im")]
    lines = [",".join(header)]
    for t, M in zip(series.grid.times.tolist(), series.values):
        row = np.stack([M.real, M.imag], -1).ravel().tolist()
        lines.append(",".join(map(repr, [t, *row])))
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def _series_payload(series) -> dict:
    return {
        "label": series.label,
        "times": [float(t) for t in series.grid.times],
        "values": [encode_matrix(M) for M in series.values],
    }


def cmd_validate(cfg: ModelConfig, args) -> tuple[dict, int]:
    payload = {}
    if cfg.H0_spec is not None and cfg.HI_spec is not None:
        cfg.split()
        payload["fermion"] = "valid"
    if cfg.boson is not None:
        cfg.boson_h0()
        payload["boson"] = "valid"
    if not payload:
        raise ConfigError("config declares neither fermionic nor bosonic Hamiltonians")
    return payload, EXIT_OK


def cmd_evolve(cfg: ModelConfig, args) -> tuple[dict, int]:
    split = cfg.split()
    grid = TimeGrid(t_end=cfg.grid_t_end, steps=cfg.grid_steps)
    exact = exact_series(split, cfg.m, grid, cfg.resonance_tol)
    if args.order == "exact":
        series = exact
        free = exact_series(replace(split, coupling=0.0), cfg.m, grid, cfg.resonance_tol)
        comparison = {"sup_error_vs_free": compare(exact, free)["sup_error"]}
    else:
        series = integrate_time_local(kappa12(split, cfg.m, cfg.resonance_tol), args.order, grid)
        comparison = {"sup_error_vs_exact": compare(exact, series)["sup_error"]}
    csv_path = args.csv or (args.out + ".csv" if args.out else None)
    if csv_path:
        _write_series_csv(csv_path, series)
    payload = {"series": _series_payload(series), **comparison}
    if csv_path:
        payload["csv_path"] = csv_path
    return payload, EXIT_OK


def cmd_verify(cfg: ModelConfig, args) -> tuple[dict, int]:
    split = cfg.split()
    thresholds = (
        None if cfg.report_tol is None else dict.fromkeys(DEFAULT_THRESHOLDS, cfg.report_tol)
    )
    seed = cfg.seed if args.seed is None else args.seed
    result = run_verification(
        split, cfg.m, seed=seed, resonance_tol=cfg.resonance_tol, thresholds=thresholds
    )
    return result, EXIT_OK if result["all_pass"] else EXIT_VERIFICATION


def cmd_order_study(cfg: ModelConfig, args) -> tuple[dict, int]:
    if not args.lambdas:
        raise ConfigError("order-study requires --lambdas L1,L2,...")
    if args.order == "exact":
        raise ConfigError("order-study needs a time-local order, --order 1 or 2")
    try:
        lambdas = [float(x) for x in args.lambdas.split(",")]
    except ValueError as exc:
        raise ConfigError(f"--lambdas must be comma-separated numbers: {exc}") from exc
    if not all(np.isfinite(lam) and lam > 0 for lam in lambdas):
        raise ConfigError(f"--lambdas must be positive finite couplings, got {lambdas}")
    if len(lambdas) < 3:
        raise ConfigError("order-study needs at least 3 coupling values")
    grid = TimeGrid(t_end=cfg.grid_t_end, steps=cfg.grid_steps)
    payload = {"order": args.order, "lambdas": lambdas}
    try:
        fit = order_estimate(cfg.split(), cfg.m, grid, lambdas, args.order, cfg.resonance_tol)
        payload.update(errors=fit["errors"], degenerate_fit=False, slope=fit["slope"])
    except DegenerateFit as exc:
        payload.update(errors=exc.errors, degenerate_fit=True, slope=None)
    return payload, EXIT_OK


def cmd_boson_check(cfg: ModelConfig, args) -> tuple[dict, int]:
    H0 = cfg.boson_h0()
    report = stability_check(H0)
    payload = {
        "classification": report.classification,
        "max_imag": report.max_imag,
        "eigenvalues": [[float(z.real), float(z.imag)] for z in report.eigenvalues],
    }
    if "X" in cfg.boson and "T_list" in cfg.boson:
        demo = divergence_demo(H0, decode_matrix(cfg.boson["X"]), cfg.boson["T_list"])
        norms = [v if np.isfinite(v) else "overflow" for v in demo["norms"]]
        payload["divergence_demo"] = {**demo, "norms": norms}
    code = EXIT_OK
    if args.expect_stable and report.classification == "unstable":
        code = EXIT_EXPECTATION
    return payload, code


COMMANDS = {
    "validate": cmd_validate,
    "evolve": cmd_evolve,
    "verify": cmd_verify,
    "order-study": cmd_order_study,
    "boson-check": cmd_boson_check,
}


def _order(text: str):
    """--order: the time-local order as an integer, any other text as is."""
    return int(text) if text.isdigit() else text


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="effheis", description=__doc__)
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", default=None)
    parser.add_argument("--csv", default=None)
    parser.add_argument("--order", default=2, type=_order, choices=("exact", 1, 2))
    parser.add_argument("--lambdas", default=None)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--expect-stable", action="store_true")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.seed is not None and args.seed < 0:
        parser.error(f"--seed must be >= 0, like the config's seed, got {args.seed}")
    t0 = time.monotonic()
    try:
        cfg = load_config(args.config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        payload, code = COMMANDS[args.command](cfg, args)
    except (ConfigError, TooManyModes) as exc:
        print(f"config error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except EffheisError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_VALIDATION if isinstance(exc, ValidationError) else EXIT_RUNTIME
    _emit(_report(args.command, cfg, payload, t0), args.out)
    return code


if __name__ == "__main__":
    sys.exit(main())

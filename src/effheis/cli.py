"""Batch front-end.

    effheis <validate|evolve|verify|order-study|boson-check> --config FILE
            [--out FILE] [--csv FILE] [--order exact|1|2] [--lambdas L1,L2,...]
            [--seed S] [--expect-stable]

Exit codes: 0 ok, 1 runtime error, 2 config error, 3 validation failure,
4 verification failure, 5 failed expectation.

``evolve`` reports its series as the library holds it: the resonant entries
Y_k of each grid point k in the basis V = V1^{(x)m}, V1 the eigenbasis of
E H0 (``slot_basis``), at the (row, col) positions ``index`` of V; the
propagator is V Y_k V^dag, and Y_k itself when V1 = I.  ``--csv`` writes
the same entries, one row per time.  A series of more than
``REPORT_FLOAT_CAP`` floats is refused with DimensionOverflow, from the
resonance partition alone, before the series is built.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import replace
from functools import lru_cache

import numpy as np

from .boson import divergence_demo, stability_check
from .config import ModelConfig, decode_matrix, load_config
from .dynamics import TimeGrid, compare, exact_series, integrate_time_local, order_estimate
from .errors import (
    ConfigError,
    DegenerateFit,
    DimensionOverflow,
    EffheisError,
    TooManyModes,
    ValidationError,
)
from .perturbation import kappa12
from .projector import free_moment_partition
from .verify import run_verification

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_CONFIG = 2
EXIT_VALIDATION = 3
EXIT_VERIFICATION = 4
EXIT_EXPECTATION = 5

# the largest series evolve prints, in floats (grid points x nnz x [re, im]);
# encoding a report of 2**23 floats peaks at about 1.2 GB
REPORT_FLOAT_CAP = 2**23


def _emit(report: dict, out_path: str | None):
    text = _encode(report, 0)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text + "\n")
    else:
        sys.stdout.write(text + "\n")


def _encode(obj, level: int) -> str:
    """``json.dumps(obj, indent=2, sort_keys=True)`` byte for byte, read as
    nested at ``level``, with an ndarray encoded as its ``tolist()``.

    With ``indent`` set, ``json`` encodes in pure Python, one float at a
    time; a finite float64 array instead fills a cached ``%r`` template of
    its nested-list layout, and an integer array a ``%d`` one.  ``%r`` of a
    float is ``float.__repr__`` and ``%d`` of an int is ``int.__repr__``,
    what ``json`` writes; bool and non-finite arrays take the generic path,
    which writes ``true`` and ``NaN`` where ``%d`` and ``%r`` would not.
    """
    pad = "\n" + "  " * (level + 1)
    if isinstance(obj, np.ndarray):
        if obj.dtype == np.float64 and obj.size and np.isfinite(obj).all():
            return _array_template(obj.shape, level, "%r") % tuple(obj.ravel().tolist())
        if obj.size and np.issubdtype(obj.dtype, np.integer):
            return _array_template(obj.shape, level, "%d") % tuple(obj.ravel().tolist())
        return _encode(obj.tolist(), level)
    if isinstance(obj, dict) and obj and all(isinstance(key, str) for key in obj):
        items = [json.dumps(key) + ": " + _encode(obj[key], level + 1) for key in sorted(obj)]
        return "{" + pad + ("," + pad).join(items) + pad[:-2] + "}"
    if isinstance(obj, (list, tuple)) and obj:
        return "[" + pad + ("," + pad).join([_encode(x, level + 1) for x in obj]) + pad[:-2] + "]"
    return json.dumps(obj, indent=2, sort_keys=True).replace("\n", pad[:-2])


@lru_cache(maxsize=64)
def _array_template(shape: tuple, level: int, field: str) -> str:
    """The layout ``json`` gives a nested list of ``shape`` at ``level``,
    with ``field`` for each number."""
    if not shape:
        return field
    pad = "\n" + "  " * (level + 1)
    inner = _array_template(shape[1:], level + 1, field)
    return "[" + pad + ("," + pad).join([inner] * shape[0]) + pad[:-2] + "]"


def _report(command: str, cfg: ModelConfig, payload: dict, t0: float) -> dict:
    return {
        "command": command,
        "config_digest": cfg.digest(),
        "payload": payload,
        "wall_time_s": time.monotonic() - t0,
    }


def _write_series_csv(path: str, series: dict) -> None:
    """One row per time: t, then the (nnz, 2) [re, im] entries, headed
    re_r_c,im_r_c for each (r, c) of the index."""
    times, entries = series["times"], series["entries"]
    header = ["t"] + [f"{part}_{r}_{c}" for r, c in series["index"].tolist() for part in ("re", "im")]
    table = np.column_stack([times, entries.reshape(len(times), -1)])
    lines = [",".join(header), *(",".join(map(repr, row)) for row in table.tolist())]
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def _series_payload(series) -> dict:
    """The series' resonant entries, at their (row, col) positions in the
    basis V = V1^{(x)m} (numpy ``kron`` order), with V1 itself."""
    frame = series.partition.decomposition
    rows, cols = series.partition.resonant
    V1 = np.eye(frame.k) if frame.factor is None else frame.factor
    E = series.entries
    return {
        "label": series.label,
        "times": series.grid.times,
        "m": frame.m,
        "slot_basis": np.stack([V1.real, V1.imag], -1),
        "index": np.column_stack([frame.order[rows], frame.order[cols]]),
        "entries": np.stack([E.real, E.imag], -1),
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
    # T x nnz floats are known from the partition: refuse before any series
    # work, and partition only when T x d^2, with d^2 >= nnz, is over the cap
    if 2 * len(grid.times) * (2 * split.n) ** (2 * cfg.m) > REPORT_FLOAT_CAP:
        sizes = free_moment_partition(split, cfg.m, cfg.resonance_tol).sizes
        floats = 2 * len(grid.times) * int(np.sum(sizes**2))
        if floats > REPORT_FLOAT_CAP:
            raise DimensionOverflow(f"series of {floats} floats exceeds report cap {REPORT_FLOAT_CAP}")
    if args.order == "exact":
        series = exact_series(split, cfg.m, grid, cfg.resonance_tol)
        free = exact_series(replace(split, coupling=0.0), cfg.m, grid, cfg.resonance_tol)
        comparison = {"sup_error_vs_free": compare(series, free)["sup_error"]}
    else:
        series = integrate_time_local(kappa12(split, cfg.m, cfg.resonance_tol), args.order, grid)
        exact = exact_series(split, cfg.m, grid, cfg.resonance_tol)
        comparison = {"sup_error_vs_exact": compare(exact, series)["sup_error"]}
    payload = {"series": _series_payload(series), **comparison}
    if args.csv:
        _write_series_csv(args.csv, payload["series"])
        payload["csv_path"] = args.csv
    return payload, EXIT_OK


def cmd_verify(cfg: ModelConfig, args) -> tuple[dict, int]:
    split = cfg.split()
    seed = cfg.seed if args.seed is None else args.seed
    result = run_verification(
        split, cfg.m, seed=seed, resonance_tol=cfg.resonance_tol, report_tol=cfg.report_tol
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


@lru_cache(maxsize=1)
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

"""Model configuration parsing and the complex-matrix JSON conventions.

Matrices travel as row-major nested arrays of [re, im] pairs.  Hamiltonian
specs are either a raw matrix or a builder: {"frequencies": [...]} for free
modes, {"hopping": [{"j":, "k":, "g":}, ...]} for hopping terms.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .boson import BosonHamiltonian, validate_boson
from .errors import ConfigError, IndexOutOfRange
from .fermion import FermionHamiltonian, SplitHamiltonian, diagonal_modes, hopping, validate_fermion
from .projector import DEFAULT_RESONANCE_TOL

TOP_LEVEL_KEYS = ("n", "m", "lambda", "H0", "HI", "grid", "tolerances", "seed", "boson")


def encode_matrix(M: np.ndarray) -> list:
    M = np.asarray(M, dtype=complex)
    return np.stack([M.real, M.imag], -1).tolist()


def decode_matrix(data) -> np.ndarray:
    try:
        arr = np.asarray(data, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"malformed matrix entries: {exc}") from exc
    if arr.ndim != 3 or arr.shape[0] != arr.shape[1] or arr.shape[2] != 2:
        raise ConfigError(f"matrix must be square with [re, im] entries, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ConfigError("matrix entries must be finite")
    return arr[..., 0] + 1j * arr[..., 1]


def _number(value, name: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        raise ConfigError(f"{name} must be a finite real number, got {value!r}")
    return float(value)


def _positive(value, name: str) -> float:
    if _number(value, name) <= 0:
        raise ConfigError(f"{name} must be positive, got {value!r}")
    return float(value)


def _integer(value, name: str, minimum: int) -> int:
    if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
        raise ConfigError(f"{name} must be an integer >= {minimum}, got {value!r}")
    return value


def _known_keys(section: dict, allowed: tuple, name: str) -> None:
    unknown = sorted(set(section) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown key(s) in {name}: {', '.join(unknown)}")


def _read_spec(spec, n: int, kinds: tuple) -> tuple[str, object]:
    """Check that a Hamiltonian spec is an object whose one key is one of
    ``kinds`` and return that kind with its value: a decoded matrix, a list
    of n finite frequencies, or the raw value of any other kind."""
    if not isinstance(spec, dict):
        raise ConfigError(f"Hamiltonian spec must be an object, got {spec!r}")
    if len(spec) != 1 or next(iter(spec)) not in kinds:
        raise ConfigError(
            f"Hamiltonian spec needs exactly one of {'/'.join(kinds)}, got {sorted(spec)}"
        )
    kind, value = next(iter(spec.items()))
    if kind == "matrix":
        return kind, decode_matrix(value)
    if kind == "frequencies":
        if not isinstance(value, list) or len(value) != n:
            raise ConfigError(f"expected a list of {n} frequencies, got {value!r}")
        return kind, [_number(w, "frequency") for w in value]
    return kind, value


def _build_fermion(spec, n: int) -> FermionHamiltonian:
    kind, value = _read_spec(spec, n, ("matrix", "frequencies", "hopping"))
    if kind == "matrix":
        return validate_fermion(value, n)
    if kind == "frequencies":
        return diagonal_modes(value)
    if not isinstance(value, list):
        raise ConfigError(f"hopping must be a list of terms, got {value!r}")
    H = np.zeros((2 * n, 2 * n), dtype=complex)
    for term in value:
        if not isinstance(term, dict) or set(term) != {"j", "k", "g"}:
            raise ConfigError(f"hopping term needs exactly j, k and g, got {term!r}")
        j, k = _integer(term["j"], "hopping j", 1), _integer(term["k"], "hopping k", 1)
        try:
            H = H + hopping(n, j, k, _number(term["g"], "hopping g")).H
        except IndexOutOfRange as exc:
            raise ConfigError(f"hopping term: {exc}") from exc
    return validate_fermion(H, n)


def _build_boson_matrix(spec, n: int) -> np.ndarray:
    kind, value = _read_spec(spec, n, ("matrix", "frequencies"))
    if kind == "matrix":
        return value
    W = np.diag(value).astype(complex)
    zero = np.zeros((n, n), dtype=complex)
    return np.block([[zero, W], [W, zero]])


@dataclass(frozen=True)
class ModelConfig:
    n: int
    m: int
    coupling: float
    H0_spec: Optional[dict]
    HI_spec: Optional[dict]
    grid_t_end: float
    grid_steps: int
    resonance_tol: float
    report_tol: Optional[float]
    seed: int
    boson: Optional[dict]
    raw: dict = field(repr=False)

    def digest(self) -> str:
        canonical = json.dumps(self.raw, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()

    def split(self) -> SplitHamiltonian:
        if self.H0_spec is None or self.HI_spec is None:
            raise ConfigError("config has no fermionic H0/HI specs")
        base = _build_fermion(self.H0_spec, self.n)
        interaction = _build_fermion(self.HI_spec, self.n)
        return SplitHamiltonian(base=base, interaction=interaction, coupling=self.coupling)

    def boson_h0(self) -> BosonHamiltonian:
        if self.boson is None or "H0" not in self.boson:
            raise ConfigError("config has no boson section")
        return validate_boson(_build_boson_matrix(self.boson["H0"], self.n), self.n)


def _boson_section(boson, n: int):
    """Type-check the optional boson section: X must be a 2n-dimensional
    matrix and T_list a non-empty list of positive finite times."""
    if boson is None:
        return None
    if not isinstance(boson, dict):
        raise ConfigError("boson must be an object")
    _known_keys(boson, ("H0", "X", "T_list"), "boson")
    if "X" in boson and decode_matrix(boson["X"]).shape[0] != 2 * n:
        raise ConfigError(f"boson.X must be {2 * n}x{2 * n} for n={n}")
    if "T_list" in boson:
        T_list = boson["T_list"]
        if not isinstance(T_list, list) or not T_list:
            raise ConfigError(f"boson.T_list must be a non-empty list, got {T_list!r}")
        for T in T_list:
            _positive(T, "boson.T_list entry")
    return boson


def parse_config(data: dict) -> ModelConfig:
    if not isinstance(data, dict):
        raise ConfigError("config root must be a JSON object")
    if "n" not in data:
        raise ConfigError("config is missing 'n'")
    _known_keys(data, TOP_LEVEL_KEYS, "config")
    grid, tolerances = data.get("grid", {}), data.get("tolerances", {})
    if not isinstance(grid, dict) or not isinstance(tolerances, dict):
        raise ConfigError("grid and tolerances must be objects")
    _known_keys(grid, ("t_end", "steps"), "grid")
    _known_keys(tolerances, ("resonance", "report"), "tolerances")
    report = tolerances.get("report")
    n = _integer(data["n"], "n", 1)
    return ModelConfig(
        n=n,
        m=_integer(data.get("m", 1), "m", 1),
        coupling=_number(data.get("lambda", 0.0), "lambda"),
        H0_spec=data.get("H0"),
        HI_spec=data.get("HI"),
        grid_t_end=_positive(grid.get("t_end", 1.0), "grid.t_end"),
        grid_steps=_integer(grid.get("steps", 200), "grid.steps", 1),
        resonance_tol=_positive(
            tolerances.get("resonance", DEFAULT_RESONANCE_TOL), "tolerances.resonance"
        ),
        report_tol=None if report is None else _positive(report, "tolerances.report"),
        seed=_integer(data.get("seed", 0), "seed", 0),
        boson=_boson_section(data.get("boson"), n),
        raw=data,
    )


def load_config(path: str) -> ModelConfig:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config(data)

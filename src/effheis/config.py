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

DEFAULT_TOLERANCES = {"resonance": 1e-9, "report": None}


def encode_matrix(M: np.ndarray) -> list:
    M = np.asarray(M, dtype=complex)
    return [[[float(z.real), float(z.imag)] for z in row] for row in M]


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


def _integer(value, name: str, minimum: int) -> int:
    if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
        raise ConfigError(f"{name} must be an integer >= {minimum}, got {value!r}")
    return value


def _read_spec(spec, n: int, kinds: tuple) -> tuple[str, object]:
    """Check that a Hamiltonian spec is an object with exactly one of
    ``kinds`` and return that kind with its value: a decoded matrix, a list
    of n finite frequencies, or the raw value of any other kind."""
    if not isinstance(spec, dict):
        raise ConfigError(f"Hamiltonian spec must be an object, got {spec!r}")
    found = [kind for kind in kinds if kind in spec]
    if len(found) != 1:
        raise ConfigError(f"Hamiltonian spec needs exactly one of {'/'.join(kinds)}")
    kind, value = found[0], spec[found[0]]
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
        if not isinstance(term, dict) or not {"j", "k", "g"} <= set(term):
            raise ConfigError(f"hopping term needs j, k and g, got {term!r}")
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
    tolerances: dict
    seed: int
    boson: Optional[dict]
    raw: dict = field(repr=False)

    @property
    def resonance_tol(self) -> float:
        return float(self.tolerances.get("resonance", 1e-9))

    @property
    def report_tol(self) -> Optional[float]:
        value = self.tolerances.get("report")
        return None if value is None else float(value)

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
    if "X" in boson and decode_matrix(boson["X"]).shape[0] != 2 * n:
        raise ConfigError(f"boson.X must be {2 * n}x{2 * n} for n={n}")
    if "T_list" in boson:
        T_list = boson["T_list"]
        if not isinstance(T_list, list) or not T_list:
            raise ConfigError(f"boson.T_list must be a non-empty list, got {T_list!r}")
        if any(_number(T, "boson.T_list entry") <= 0 for T in T_list):
            raise ConfigError(f"boson.T_list entries must be positive, got {T_list!r}")
    return boson


def parse_config(data: dict) -> ModelConfig:
    if not isinstance(data, dict):
        raise ConfigError("config root must be a JSON object")
    if "n" not in data:
        raise ConfigError("config is missing 'n'")
    grid = data.get("grid", {})
    if not isinstance(grid, dict) or not isinstance(data.get("tolerances", {}), dict):
        raise ConfigError("grid and tolerances must be objects")
    t_end = _number(grid.get("t_end", 1.0), "grid.t_end")
    if t_end <= 0:
        raise ConfigError(f"grid.t_end must be positive, got {t_end!r}")
    tolerances = dict(DEFAULT_TOLERANCES)
    tolerances.update(data.get("tolerances", {}))
    for key in DEFAULT_TOLERANCES:
        if tolerances[key] is not None:
            _number(tolerances[key], f"tolerances.{key}")
    n = _integer(data["n"], "n", 1)
    return ModelConfig(
        n=n,
        m=_integer(data.get("m", 1), "m", 1),
        coupling=_number(data.get("lambda", 0.0), "lambda"),
        H0_spec=data.get("H0"),
        HI_spec=data.get("HI"),
        grid_t_end=t_end,
        grid_steps=_integer(grid.get("steps", 200), "grid.steps", 1),
        tolerances=tolerances,
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

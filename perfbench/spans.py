"""In-memory span tracer that wraps effheis's public functions from outside.

Each wrapped call records one span: its name, start, end, parent span and
the job it belongs to.  Spans are kept in typed column arrays (about 40
bytes each) and written out once, when the run ends.  Self time is computed
as each span closes: its duration minus the durations of its direct
children, which cover disjoint parts of it because calls nest.

Functions are wrapped at every ``effheis`` module attribute that holds
them, because callers look them up there: ``cli`` calls ``exact_series``
through ``effheis.cli.exact_series``, ``fock`` calls
``linalg.matrix_exponential`` through ``effheis.linalg``.  The kappa2(t)
closure has no module attribute, so the wrapped ``kappa12`` swaps a traced
copy in with ``dataclasses.replace``.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import sys
import time
from array import array

import numpy as np

# (span name, module, attribute); "Class.method" patches the class.
TARGETS = (
    ("linalg.eigh", "effheis.linalg", "hermitian_eigendecompose"),
    ("linalg.expm", "effheis.linalg", "matrix_exponential"),
    ("linalg.kron_sum", "effheis.linalg", "kron_sum"),
    ("fermion.moment_generator", "effheis.fermion", "moment_generator"),
    ("projector.partition", "effheis.projector", "resonance_partition"),
    ("perturbation.kappa12", "effheis.perturbation", "kappa12"),
    ("perturbation.spectral_function", "effheis.perturbation", "spectral_function"),
    ("dynamics.exact_series", "effheis.dynamics", "exact_series"),
    ("dynamics.rk4", "effheis.dynamics", "integrate_time_local"),
    ("dynamics.compare", "effheis.dynamics", "compare"),
    ("fock.project_superoperator", "effheis.fock", "project_superoperator"),
    ("fock.averaged_unitary_moments", "effheis.fock", "averaged_unitary_moments"),
    ("verify.run_verification", "effheis.verify", "run_verification"),
    ("verify.heisenberg", "effheis.verify", "heisenberg_reduction_residual"),
    ("verify.matrix_laws", "effheis.verify", "matrix_projector_law_residuals"),
    ("verify.superop_laws", "effheis.verify", "superoperator_law_residuals"),
    ("verify.moment_equivalence", "effheis.verify", "moment_equivalence_residual"),
    ("verify.stationarity", "effheis.verify", "stationarity_residual"),
    ("boson.divergence_demo", "effheis.boson", "divergence_demo"),
    ("boson.stability_check", "effheis.boson", "stability_check"),
    ("config.load", "effheis.config", "load_config"),
    ("config.build", "effheis.config", "ModelConfig.split"),
    ("config.build", "effheis.config", "ModelConfig.boson_h0"),
    ("cli.main", "effheis.cli", "main"),
)
KAPPA2 = "perturbation.kappa2"
JOB = "job"
# every evaluation of the time-local generator l(t) is one RK4 stage
STAGE_COUNTER = ("dynamics.rk4_stages", "effheis.perturbation", "TimeLocalGenerator.at")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.self_time = array("d")
        self.parent = array("q")
        self.job = array("q")
        self._stack: list[list] = []  # [span index, time covered by children]
        self._job_id = -1
        self.counts: dict[str, int] = {}
        self.maxima: dict[str, int] = {}
        self.missing: list[str] = []
        self._restore: list[tuple] = []

    # -- recording ---------------------------------------------------------
    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1][0] if self._stack else -1)
        self.job.append(self._job_id)
        self.end.append(0.0)
        self.self_time.append(0.0)
        self._stack.append([idx, 0.0])
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        end = time.perf_counter()
        _, children = self._stack.pop()
        duration = end - self.start[idx]
        self.end[idx] = end
        self.self_time[idx] = duration - children
        if self._stack:
            self._stack[-1][1] += duration

    def wrap(self, name: str, fn, after=None):
        nid = self._id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            return result if after is None else after(result)

        return traced

    def begin_job(self, job_id: int) -> int:
        self._job_id = job_id
        return self._open(self._id(JOB))

    def end_job(self, idx: int) -> None:
        self._close(idx)
        self._job_id = -1

    # -- installation ------------------------------------------------------
    def _set(self, owner, attr, value) -> None:
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _install_one(self, module: str, attr: str, make) -> None:
        try:
            mod = importlib.import_module(module)
        except ImportError:
            self.missing.append(f"{module}.{attr}")
            return
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name, None)
            if cls is None or meth not in cls.__dict__:
                self.missing.append(f"{module}.{attr}")
                return
            self._set(cls, meth, make(cls.__dict__[meth]))
            return
        original = getattr(mod, attr, None)
        if original is None:
            self.missing.append(f"{module}.{attr}")
            return
        wrapped = make(original)
        for mod_name, other in list(sys.modules.items()):
            if mod_name != "effheis" and not mod_name.startswith("effheis."):
                continue
            for key, value in list(vars(other).items()):
                if value is original:
                    self._set(other, key, wrapped)

    def install(self) -> None:
        for name, module, attr in TARGETS:
            after = None
            if name == "perturbation.kappa12":
                after = self._trace_kappa2
            if name == "linalg.eigh":
                self._install_one(module, attr, self._eigh_wrapper)
            else:
                self._install_one(module, attr, lambda f, n=name, a=after: self.wrap(n, f, a))
        counter, module, attr = STAGE_COUNTER
        self._install_one(module, attr, lambda f: self._counting(counter, f))

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    def _trace_kappa2(self, gen):
        if not hasattr(gen, "kappa2_of_t"):
            if KAPPA2 not in self.missing:
                self.missing.append(KAPPA2)
            return gen
        return dataclasses.replace(gen, kappa2_of_t=self.wrap(KAPPA2, gen.kappa2_of_t))

    def _eigh_wrapper(self, fn):
        traced = self.wrap("linalg.eigh", fn)

        @functools.wraps(fn)
        def eigh(M, *args, **kwargs):
            dim = int(np.shape(M)[0]) if np.ndim(M) == 2 else 0
            self.maxima["linalg.eigh_dim"] = max(self.maxima.get("linalg.eigh_dim", 0), dim)
            return traced(M, *args, **kwargs)

        return eigh

    def _counting(self, counter: str, fn):
        self.counts.setdefault(counter, 0)

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.counts[counter] += 1
            return fn(*args, **kwargs)

        return counted

    # -- results -----------------------------------------------------------
    def totals(self) -> tuple[dict, dict]:
        """Self seconds and span counts per span name, over job spans only."""
        names = np.frombuffer(self.name, dtype=np.uint16)
        in_job = np.frombuffer(self.job, dtype=np.int64) >= 0
        selfs = np.frombuffer(self.self_time, dtype=np.float64)
        size = len(self.names)
        seconds = np.bincount(names[in_job], weights=selfs[in_job], minlength=size)
        counts = np.bincount(names[in_job], minlength=size)
        return (
            {n: float(seconds[i]) for i, n in enumerate(self.names)},
            {n: int(counts[i]) for i, n in enumerate(self.names)},
        )

    def save(self, path) -> None:
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.uint16),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            self_time=np.frombuffer(self.self_time, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            job=np.frombuffer(self.job, dtype=np.int64),
        )

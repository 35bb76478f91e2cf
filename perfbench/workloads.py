"""The benchmark's workloads: a pool of jobs, the timed call into effheis for
one job, and the correctness checks behind ``correct`` and ``failed``.

effheis is reached through module attributes (``dynamics.exact_series``,
``cli.main``), the lookups the tracer wraps.  Checks run outside the timed
call: the full check on a slot's first result, and on every later pass a
fingerprint that must match the first, so repeated runs of one input are
also checked for bit-identical output.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import re
from pathlib import Path

import numpy as np

from effheis import cli, dynamics, fermion, linalg, perturbation, projector, verify

import inputs

# order-2 sup error against the exact series, about 5x the largest value
# seen over seeds 0-39 when the benchmark was written (2.2e-4 on moments,
# 7.9e-5 on the shipped and 5.9e-5 on the seeded cli configs)
MOMENTS_ERROR_CEILING = 1e-3
CLI_ERROR_CEILING = 5e-4
# exact_series against effective_propagator: two exact evaluations
AGREEMENT_TOL = 1e-10
# an order-2 time-local remainder is at least cubic in the coupling
MIN_ORDER_STUDY_SLOPE = 2.5
# order-study errors of an exactly solvable model (largest seen: 1.4e-11)
ROUND_OFF_CEILING = 1e-9
ORDER_STUDY_LAMBDAS = "0.05,0.1,0.2,0.4"
WALL_TIME_LINE = re.compile(rb'\n *"wall_time_s": [^\n]*')


class CheckFailed(Exception):
    """A job's output failed one of the benchmark's correctness checks."""


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def _split(spec: inputs.SplitSpec) -> fermion.SplitHamiltonian:
    return fermion.SplitHamiltonian(
        base=fermion.diagonal_modes(spec.frequencies),
        interaction=fermion.validate_fermion(spec.interaction, spec.n),
        coupling=inputs.COUPLING,
    )


def _mean_properties(records: list[dict]) -> dict:
    """Pool-level workload properties: means, except the largest block."""
    fermionic = [r for r in records if "projector" in r]
    with_fock = [r for r in fermionic if "fock" in r]

    def mean(values):
        return float(np.mean(values)) if values else 0.0

    return {
        "projector.clusters": mean([r["projector"]["clusters"] for r in fermionic]),
        "projector.largest_block": max((r["projector"]["largest_block"] for r in fermionic), default=0),
        "projector.mask_density": mean([r["projector"]["mask_density"] for r in fermionic]),
        "fock.clusters": mean([r["fock"]["clusters"] for r in with_fock]),
        "fock.quadruple_hit_ratio": mean([r["fock"]["quadruple_hit_ratio"] for r in with_fock]),
        "workload.degenerate_share": mean([float(r["degenerate"]) for r in fermionic]),
    }


class Workload:
    """A pool of jobs; ``run`` is the timed call, the rest runs untimed."""

    def __init__(self):
        self.jobs: list = []
        self.records: list[dict] = []
        self.max_error: float | None = None
        self.residual_ratio_max: float | None = None
        self.known_defects: list[str] = []

    def run(self, job):
        raise NotImplementedError

    def fingerprint(self, job, out):
        raise NotImplementedError

    def check(self, job, out) -> None:
        raise NotImplementedError

    def output_bytes(self, job) -> int:
        return 0

    def properties(self) -> dict:
        return _mean_properties(self.records)

    def _error(self, value: float) -> None:
        self.max_error = value if self.max_error is None else max(self.max_error, value)

    def _residuals(self, checks: dict) -> None:
        ratio = max(c["residual"] / c["threshold"] for c in checks.values())
        self.residual_ratio_max = (
            ratio if self.residual_ratio_max is None else max(self.residual_ratio_max, ratio)
        )


class Moments(Workload):
    """Library path at d = 64: exact series, order-2 time-local RK4, compare."""

    T_END, STEPS = 0.5, 50

    def __init__(self, seed: int, pool: int | None):
        super().__init__()
        self.grid = dynamics.TimeGrid(t_end=self.T_END, steps=self.STEPS)
        for spec in inputs.moments_specs(seed, pool or 8):
            self.jobs.append((spec, _split(spec)))
            self.records.append({
                "n": spec.n, "m": spec.m, "degenerate": spec.degenerate,
                "projector": inputs.moment_partition(spec.frequencies, spec.m),
            })

    def run(self, job):
        spec, split = job
        exact = dynamics.exact_series(split, spec.m, self.grid)
        approx = dynamics.integrate_time_local(perturbation.kappa12(split, spec.m), 2, self.grid)
        return exact, approx, dynamics.compare(exact, approx)["sup_error"]

    def fingerprint(self, job, out):
        exact, approx, err = out
        return err, _digest(*exact.values, *approx.values)

    def check(self, job, out) -> None:
        spec, split = job
        exact, approx, err = out
        if not (math.isfinite(err) and err <= MOMENTS_ERROR_CEILING):
            raise CheckFailed(f"sup error {err:.3e} above ceiling {MOMENTS_ERROR_CEILING:.1e}")
        rng = np.random.default_rng(spec.seed)
        for k in rng.choice(np.arange(1, self.STEPS + 1), size=2, replace=False):
            t = float(self.grid.times[k])
            ref = projector.effective_propagator(split, spec.m, t)
            gap = linalg.max_abs(ref - exact.values[k])
            if not gap <= AGREEMENT_TOL:
                raise CheckFailed(f"exact_series differs from effective_propagator by {gap:.3e} at t={t}")
        self._error(err)


class Oracle(Workload):
    """The Fock-oracle cross-check suite at n = 3."""

    def __init__(self, seed: int, pool: int | None):
        super().__init__()
        for spec in inputs.oracle_specs(seed, pool or len(inputs.ORACLE_CLASSES)):
            self.jobs.append((spec, _split(spec)))
            self.records.append({
                "n": spec.n, "m": spec.m, "degenerate": spec.degenerate,
                "projector": inputs.moment_partition(spec.frequencies, spec.m),
                "fock": inputs.fock_partition(spec.frequencies),
            })

    def run(self, job):
        spec, split = job
        return verify.run_verification(split, spec.m, seed=spec.seed)

    def fingerprint(self, job, out):
        return json.dumps(out, sort_keys=True)

    def check(self, job, out) -> None:
        if out.get("all_pass") is not True:
            failing = [k for k, c in out["checks"].items() if not c["pass"]]
            raise CheckFailed(f"oracle checks failed: {failing}")
        self._residuals(out["checks"])


class CliJob:
    def __init__(self, command, config, kind, extra=(), expect=0, out=None, csv=None):
        self.command, self.config, self.kind, self.expect = command, config, kind, expect
        self.out, self.csv = out, csv
        self.argv = [command, "--config", str(config), *extra]
        if out:
            self.argv += ["--out", str(out)]
        if csv:
            self.argv += ["--csv", str(csv)]


class CliSmall(Workload):
    """In-process ``cli.main`` calls; reports and CSVs go to ``workdir``."""

    def __init__(self, seed: int, pool: int | None, workdir: Path, configs_dir: Path):
        super().__init__()
        self.workdir = workdir
        shipped = sorted(configs_dir.glob("*.json"))
        if not shipped:
            raise FileNotFoundError(f"no shipped configs in {configs_dir}")
        for path in shipped:
            cfg = json.loads(path.read_text())
            self._add_config(path.stem, cfg, path, self._shipped_kind(cfg))
        for name, cfg, kind in inputs.cli_configs(seed):
            path = workdir / f"{name}.json"
            path.write_text(json.dumps(cfg))
            self._add_config(name, cfg, path, kind)
        malformed = workdir / "malformed.json"
        malformed.write_text("{not json")
        invalid = workdir / "invalid_matrix.json"
        invalid.write_text(json.dumps({
            "n": 1, "H0": {"frequencies": [1.0]},
            "HI": {"matrix": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]},
        }))
        self.jobs.append(CliJob("validate", malformed, "error", expect=2, out=workdir / "malformed.out.json"))
        self.jobs.append(CliJob("validate", invalid, "error", expect=3, out=workdir / "invalid.out.json"))
        if pool:
            self.jobs = self.jobs[:pool]

    @staticmethod
    def _shipped_kind(cfg: dict) -> str:
        if "boson" in cfg:
            # shipped boson configs: free-mode frequencies are stable
            return "stable" if "frequencies" in cfg["boson"]["H0"] else "unstable"
        freqs = cfg["H0"].get("frequencies", [])
        return "resonant" if len(set(freqs)) < len(freqs) else "fermion"

    def _add_config(self, name: str, cfg: dict, path: Path, kind: str) -> None:
        out = self.workdir / f"{name}"
        if kind in ("stable", "unstable"):
            self.jobs.append(CliJob("boson-check", path, kind, ["--expect-stable"],
                                    expect=0 if kind == "stable" else 5, out=f"{out}.boson.json"))
            self.jobs.append(CliJob("validate", path, kind, out=f"{out}.validate.json"))
            return
        self.jobs += [
            CliJob("evolve", path, kind, ["--order", "2"], out=f"{out}.evolve2.json", csv=f"{out}.evolve2.csv"),
            CliJob("evolve", path, kind, ["--order", "exact"], out=f"{out}.exact.json"),
            CliJob("verify", path, kind, out=f"{out}.verify.json"),
            CliJob("order-study", path, kind, ["--lambdas", ORDER_STUDY_LAMBDAS], out=f"{out}.order.json"),
            CliJob("validate", path, kind, out=f"{out}.validate.json"),
        ]
        freqs = cfg["H0"].get("frequencies")
        if freqs is not None:
            self.records.append({
                "config": name, "n": cfg["n"], "m": cfg.get("m", 1), "degenerate": kind == "resonant",
                "projector": inputs.moment_partition(freqs, cfg.get("m", 1)),
                "fock": inputs.fock_partition(freqs),
            })

    def run(self, job: CliJob):
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            return cli.main(job.argv)

    def fingerprint(self, job: CliJob, code):
        """Exit code and digests of the report (less its wall time) and CSV.
        Removes both files, so that the next pass has to write them again."""
        digests = [code]
        for path in (job.out, job.csv):
            data = b""
            if path and Path(path).exists():
                data = Path(path).read_bytes()
                Path(path).unlink()
            digests.append(hashlib.sha256(WALL_TIME_LINE.sub(b"", data)).hexdigest())
        return tuple(digests)

    def output_bytes(self, job: CliJob) -> int:
        return sum(Path(p).stat().st_size for p in (job.out, job.csv) if p and Path(p).exists())

    def check(self, job: CliJob, code) -> None:
        if code != job.expect:
            raise CheckFailed(f"{' '.join(job.argv)}: exit {code}, README says {job.expect}")
        if job.expect != 0:
            return
        payload = json.loads(Path(job.out).read_text())["payload"]
        if job.command == "validate":
            ok = "valid" in payload.values()
        elif job.command == "evolve" and "sup_error_vs_exact" in payload:
            err = payload["sup_error_vs_exact"]
            rows = Path(job.csv).read_text().count("\n")
            ok = math.isfinite(err) and err <= CLI_ERROR_CEILING and rows == len(payload["series"]["times"]) + 1
            if ok:
                self._error(err)
        elif job.command == "evolve":
            ok = math.isfinite(payload["sup_error_vs_free"])
        elif job.command == "verify":
            ok = payload["all_pass"] is True
            self._residuals(payload["checks"])
        elif job.command == "order-study":
            ok = len(payload["errors"]) == 4 and all(math.isfinite(e) for e in payload["errors"])
            if job.kind == "resonant":
                # exactly solvable: every error sits at round-off.  The CLI's
                # degenerate_fit flag uses an absolute 1e-13 cut, which
                # round-off crosses at m = 2 or frequencies away from 1; that
                # miss is reported as a known defect, not a failed job.
                ok = ok and max(payload["errors"]) <= ROUND_OFF_CEILING
                if ok and payload["degenerate_fit"] is not True:
                    self.known_defects.append(
                        f"order-study on exactly solvable {Path(job.config).name}: degenerate_fit false, "
                        f"slope {payload['slope']:.3g} fitted to errors <= {max(payload['errors']):.1e}"
                    )
            else:
                ok = ok and payload["slope"] >= MIN_ORDER_STUDY_SLOPE
        else:  # boson-check
            want = ("stable", "bounded") if job.kind == "stable" else ("unstable", "divergent")
            ok = (payload["classification"], payload["divergence_demo"]["classification"]) == want
        if not ok:
            raise CheckFailed(f"{' '.join(job.argv)}: unexpected payload")


def make(name: str, seed: int, pool: int | None, workdir: Path, root: Path) -> Workload:
    if name == "cli-small":
        return CliSmall(seed, pool, workdir, root / "configs")
    return {"moments": Moments, "oracle": Oracle}[name](seed, pool)

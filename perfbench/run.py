"""effheis benchmark: one workload, one seed, one process, closed loop.

    python3 perfbench/run.py --workload {cli-small,moments,oracle} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; effheis is imported from ``src/``.
One caller sends the next job only after the previous one returns.  BLAS is
pinned to one thread before numpy loads, and the thread count is recorded.

Each run cycles over a fixed pool of seeded jobs in whole passes until
``--seconds`` have gone by (at least three passes).  With ``--trace 0`` the
last line of stdout is a JSON object with the end-to-end metrics; with
``--trace 1`` the run spends half its time untraced and then repeats the
same number of passes with every listed effheis function wrapped in spans,
and reports per-layer metrics per job plus the tracing overhead.  Lines
before the last one are a readable summary; a JSON record of the run (and,
when tracing, the spans) is written under ``.perfbench_run/``.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import ctypes
import hashlib
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_run"
WORKLOAD_NAMES = ("cli-small", "moments", "oracle")
SETUP_REPEATS = 5
MIN_PASSES = 3
PROBE_TIMEOUT_S = 120

END_TO_END = {"setup_s": "s", "jobs_per_s": "1/s", "job_p50_s": "s", "peak_rss_mb": "MB"}

# per-layer metric: (unit, source, key); every value is per job
PER_LAYER = {
    "linalg.eigh_s": ("s", "self", "linalg.eigh"),
    "linalg.eigh_calls": ("count", "calls", "linalg.eigh"),
    "linalg.eigh_dim_max": ("count", "max", "linalg.eigh_dim"),
    "linalg.expm_s": ("s", "self", "linalg.expm"),
    "linalg.expm_calls": ("count", "calls", "linalg.expm"),
    "linalg.kron_sum_s": ("s", "self", "linalg.kron_sum"),
    "fermion.moment_generator_s": ("s", "self", "fermion.moment_generator"),
    "fermion.moment_generator_calls": ("count", "calls", "fermion.moment_generator"),
    "projector.partition_s": ("s", "self", "projector.partition"),
    "projector.partition_calls": ("count", "calls", "projector.partition"),
    "projector.clusters": ("count", "property", "projector.clusters"),
    "projector.largest_block": ("count", "property", "projector.largest_block"),
    "projector.mask_density": ("ratio", "property", "projector.mask_density"),
    "perturbation.kappa12_s": ("s", "self", "perturbation.kappa12"),
    "perturbation.kappa2_s": ("s", "self", "perturbation.kappa2"),
    "perturbation.kappa2_evals": ("count", "calls", "perturbation.kappa2"),
    "perturbation.spectral_function_s": ("s", "self", "perturbation.spectral_function"),
    "dynamics.exact_series_s": ("s", "self", "dynamics.exact_series"),
    "dynamics.rk4_s": ("s", "self", "dynamics.rk4"),
    "dynamics.rk4_stages": ("count", "counter", "dynamics.rk4_stages"),
    "dynamics.compare_s": ("s", "self", "dynamics.compare"),
    "fock.project_superoperator_s": ("s", "self", "fock.project_superoperator"),
    "fock.averaged_unitary_moments_s": ("s", "self", "fock.averaged_unitary_moments"),
    "fock.clusters": ("count", "property", "fock.clusters"),
    "fock.quadruple_hit_ratio": ("ratio", "property", "fock.quadruple_hit_ratio"),
    "verify.heisenberg_s": ("s", "self", "verify.heisenberg"),
    "verify.matrix_laws_s": ("s", "self", "verify.matrix_laws"),
    "verify.superop_laws_s": ("s", "self", "verify.superop_laws"),
    "verify.moment_equivalence_s": ("s", "self", "verify.moment_equivalence"),
    "verify.stationarity_s": ("s", "self", "verify.stationarity"),
    "boson.divergence_demo_s": ("s", "self", "boson.divergence_demo"),
    "boson.stability_check_s": ("s", "self", "boson.stability_check"),
    "config.load_s": ("s", "self", "config.load"),
    "config.build_s": ("s", "self", "config.build"),
    "cli.self_s": ("s", "self", "cli.main"),
    "cli.report_bytes": ("bytes", "run", "report_bytes"),
    "workload.degenerate_share": ("ratio", "property", "workload.degenerate_share"),
    "job.untraced_s": ("s", "self", "job"),
    "trace.overhead_s": ("s", "run", "overhead_s"),
    "trace.overhead_share": ("ratio", "run", "overhead_share"),
}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pool", type=int, default=None, help="jobs per pass (default: the workload's pool)")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0 or (args.pool is not None and args.pool < 1):
        parser.error("--seconds and --pool must be positive")
    return args


def load_effheis():
    """Import effheis from this checkout's src/, never from an installed copy."""
    if not (SRC / "effheis" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no effheis sources under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import effheis

    if Path(effheis.__file__).resolve().parent != (SRC / "effheis").resolve():
        raise SystemExit(f"perfbench: imported effheis from {effheis.__file__}, not {SRC}")
    return effheis


def set_up(args, workdir: Path):
    """Import, input generation and one warm-up job: the work setup_s times."""
    load_effheis()
    import workloads

    wl = workloads.make(args.workload, args.seed, args.pool, workdir, ROOT)
    wl.fingerprint(wl.jobs[0], wl.run(wl.jobs[0]))
    return wl


def probe(args) -> int:
    start = time.perf_counter()
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="probe-", dir=OUT))
    try:
        set_up(args, workdir)
        print(repr(time.perf_counter() - start))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


def setup_seconds(args) -> list[float]:
    """Time set-up in fresh interpreters, so each sample pays the imports."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "1"]
    if args.pool is not None:
        cmd += ["--pool", str(args.pool)]
    samples = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, cwd=ROOT)
        if done.returncode != 0:
            raise SystemExit(f"perfbench: set-up probe failed:\n{done.stderr}")
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples


class Loop:
    """Closed loop over the pool in whole passes, with the per-job checks."""

    def __init__(self, wl):
        from workloads import CheckFailed

        self.wl = wl
        self.check_failed = CheckFailed
        self.reference: dict = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.report_bytes = 0

    def run_pass(self, times: list[list[float]], tracer=None) -> None:
        wl = self.wl
        for slot, job in enumerate(wl.jobs):
            self.attempted += 1
            span = tracer.begin_job(self.attempted) if tracer else None
            start = time.perf_counter()
            try:
                out, error = wl.run(job), None
            except Exception as exc:  # a job that raises counts as failed; the loop goes on
                out, error = None, exc
                traceback.print_exc()
            elapsed = time.perf_counter() - start
            if tracer:
                tracer.end_job(span)
            times[slot].append(elapsed)
            if error is None:
                if tracer:
                    self.report_bytes += wl.output_bytes(job)
                error = self._check(slot, job, out)
            if error is not None:
                self.failed += 1
                if len(self.problems) < 20:
                    self.problems.append(f"job {slot}: {type(error).__name__}: {error}")

    def _check(self, slot, job, out):
        try:
            if slot not in self.reference:
                self.wl.check(job, out)
            fingerprint = self.wl.fingerprint(job, out)
        except self.check_failed as exc:
            return exc
        if self.reference.setdefault(slot, fingerprint) != fingerprint:
            return self.check_failed("output differs from the first run of the same input")
        return None

    def run(self, seconds: float, passes: int | None = None, tracer=None) -> list[list[float]]:
        """Per-slot job times of exactly `passes` passes when given, else of
        whole passes until `seconds` have gone by (at least MIN_PASSES)."""
        times = [[] for _ in self.wl.jobs]
        start = time.perf_counter()

        def more() -> bool:
            done = len(times[0])
            if passes is not None:
                return done < passes
            return done < MIN_PASSES or time.perf_counter() - start < seconds

        while more():
            self.run_pass(times, tracer)
        return times


def slot_medians(times: list[list[float]]) -> list[float]:
    return [statistics.median(t) for t in times]


def blas_threads():
    """Threads the loaded OpenBLAS will use, or None if it cannot be asked."""
    import numpy

    libs = sorted((Path(numpy.__file__).parent.parent / "numpy.libs").glob("*openblas*.so*"))
    for path in libs:
        lib = ctypes.CDLL(str(path))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def metadata() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
        commit = done.stdout.strip() or commit
    sources = sorted(SRC.rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in sources:
        data = path.read_bytes()
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads": blas_threads(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "machine": platform.machine(),
    }


def end_to_end(wl, times, setup_samples) -> dict:
    return {
        "setup_s": statistics.median(setup_samples),
        "jobs_per_s": len(wl.jobs) / sum(slot_medians(times)),
        "job_p50_s": statistics.median(t for slot in times for t in slot),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(wl, tracer, jobs: int, run_values: dict) -> dict:
    seconds, calls = tracer.totals()
    props = wl.properties()
    values = {}
    for metric, (_, source, key) in PER_LAYER.items():
        if source == "self":
            values[metric] = seconds.get(key, 0.0) / jobs
        elif source == "calls":
            values[metric] = calls.get(key, 0) / jobs
        elif source == "counter":
            values[metric] = tracer.counts.get(key, 0) / jobs
        elif source == "max":
            values[metric] = tracer.maxima.get(key, 0)
        elif source == "property":
            values[metric] = props[key]
        else:
            values[metric] = run_values[key]
    return values


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_probe:
        return probe(args)
    setup_samples = [] if args.trace else setup_seconds(args)
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        wl = set_up(args, workdir)
        loop = Loop(wl)
        record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
                  "pool": len(wl.jobs), "meta": metadata(), "inputs": wl.records}
        if args.trace:
            from spans import Tracer

            untraced = loop.run(args.seconds / 2)
            passes = len(untraced[0])
            tracer = Tracer()
            tracer.install()
            try:
                traced = loop.run(0, passes=passes, tracer=tracer)
            finally:
                tracer.uninstall()
            base, with_spans = sum(slot_medians(untraced)), sum(slot_medians(traced))
            jobs = passes * len(wl.jobs)
            run_values = {
                "report_bytes": loop.report_bytes / jobs,
                "overhead_s": (with_spans - base) / len(wl.jobs),
                "overhead_share": (with_spans - base) / base,
            }
            metrics = per_layer(wl, tracer, jobs, run_values)
            units = {k: v[0] for k, v in PER_LAYER.items()}
            record.update(untraced_s=untraced, traced_s=traced, untraced_targets=tracer.missing,
                          spans=len(tracer.name))
            tracer.save(OUT / f"spans-{args.workload}-seed{args.seed}.npz")
        else:
            times = loop.run(args.seconds)
            metrics = end_to_end(wl, times, setup_samples)
            units = END_TO_END
            record.update(times_s=times, setup_samples_s=setup_samples)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    record.update(attempted=loop.attempted, failed=loop.failed, problems=loop.problems,
                  known_defects=wl.known_defects, metrics=metrics,
                  max_error=wl.max_error, residual_ratio_max=wl.residual_ratio_max)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))

    print(f"# effheis benchmark  workload={args.workload} seed={args.seed} trace={args.trace} "
          f"pool={len(wl.jobs)} passes={loop.attempted // len(wl.jobs)}")
    print("# meta " + json.dumps(record["meta"], sort_keys=True))
    for problem in loop.problems:
        print(f"# FAILED {problem}")
    for defect in wl.known_defects:
        print(f"# KNOWN DEFECT {defect}")
    for target in record.get("untraced_targets", []):
        print(f"# NOT TRACED (missing from the sources) {target}")
    print(f"{'fail_ratio':34s} {loop.failed / loop.attempted:<14.6g} ({loop.failed}/{loop.attempted} jobs)")
    for name, value in (("max_error", wl.max_error), ("residual_ratio_max", wl.residual_ratio_max)):
        print(f"{name:34s} {'n/a' if value is None else format(value, '.6g'):14s} (checked outputs)")
    if not args.trace:
        samples = sorted(t for slot in times for t in slot)
        print(f"{'job samples':34s} {len(samples)} ({len(samples) // len(wl.jobs)} passes of {len(wl.jobs)})")
        tail = next((p for p in (99, 95, 90, 75) if len(samples) * (100 - p) >= 1000), None)
        if tail is not None:
            print(f"{f'job_p{tail}_s':34s} {samples[math.ceil(len(samples) * tail / 100) - 1]:<14.6g} s")
    for name, value in metrics.items():
        print(f"{name:34s} {value:<14.6g} {units[name]}")
    result = {
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

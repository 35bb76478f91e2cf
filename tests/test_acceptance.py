"""End-to-end acceptance suite.

Each criterion prints a single PASS/FAIL line before asserting, so the run
log shows the full scoreboard.  Criteria are desk-scale (n <= 3, m <= 2) and
the whole module is expected to finish in well under a minute.
"""

import itertools
import json
from dataclasses import replace

import numpy as np
import pytest

import effheis as eh
from effheis import linalg
from effheis.cli import main
from effheis.boson import divergence_demo, stability_check, validate_boson
from effheis.dynamics import (
    TimeGrid,
    compare,
    exact_series,
    integrate_time_local,
    order_estimate,
)
from effheis.fermion import SplitHamiltonian
from effheis.perturbation import kappa12
from effheis.verify import (
    heisenberg_reduction_residual,
    matrix_projector_law_residuals,
    moment_equivalence_residual,
    stationarity_residual,
    superoperator_law_residuals,
)
from references import general_kappa, mu2_closed, mu_k_quadrature


def scoreboard(number: int, name: str, ok: bool, detail: str = ""):
    verdict = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"\nacceptance {number:02d} {name}: {verdict}{suffix}")
    assert ok, f"criterion {number} ({name}) failed{suffix}"


def test_01_projector_laws(offres_split, rng):
    matrix = matrix_projector_law_residuals(offres_split, 1, rng, samples=100)
    superop = superoperator_law_residuals(offres_split, rng, samples=100)
    worst = max(max(matrix.values()), max(superop.values()))
    scoreboard(1, "projector laws (matrix + superoperator)", worst < 1e-10,
               f"max residual {worst:.2e}")


def test_02_heisenberg_oracle(offres_split, rng):
    worst = heisenberg_reduction_residual(offres_split, rng, samples=20)
    scoreboard(2, "Heisenberg-matrix Fock oracle", worst < 1e-10,
               f"max residual {worst:.2e}")


def test_03_moment_equivalence(offres_split):
    worst = 0.0
    for lam, m, t in itertools.product((0.05, 0.2), (1, 2), (0.5, 1.0, 2.0)):
        split = replace(offres_split, coupling=lam)
        worst = max(worst, moment_equivalence_residual(split, m, t))
    scoreboard(3, "averaged-propagator equivalence vs Fock oracle", worst < 1e-8,
               f"max residual {worst:.2e}")


def test_04_stationarity(offres_split, resonant_split):
    worst = max(stationarity_residual(split, 1) for split in (offres_split, resonant_split))
    scoreboard(4, "two-time stationarity", worst < 1e-10, f"max residual {worst:.2e}")


def test_05_dyson_consistency(offres_split):
    worst = 0.0
    closed = mu2_closed(offres_split, 1)
    for t in (0.5, 1.0):
        quad = mu_k_quadrature(offres_split, 1, 2, t, nodes=64)
        worst = max(worst, linalg.max_abs(closed(t) - quad))
    scoreboard(5, "closed-form vs quadrature second moment", worst < 1e-6,
               f"max residual {worst:.2e}")


def test_06_cumulant_identity(offres_split):
    t = 1.0
    gen = kappa12(offres_split, 1)
    closed = gen.partition.to_original(gen.kappa2_of_t(t))
    fd = general_kappa(offres_split, 1, 2, t, nodes=64)
    worst = linalg.max_abs(closed - fd)
    scoreboard(6, "second cumulant vs moment combination", worst < 1e-5,
               f"residual {worst:.2e}")


def test_07_asymptotic_order(detuned_split):
    # the detuned off-resonant model: its third cumulant is nonzero, so the
    # order-2 remainder genuinely scales as lambda^3 (pure hopping has
    # kappa_3 = 0 and would show slope 4)
    lambdas = (0.2, 0.1, 0.05)
    grid = TimeGrid(1.0, 100)
    out2 = order_estimate(detuned_split, 1, grid, lambdas, order=2)
    out1 = order_estimate(detuned_split, 1, grid, lambdas, order=1)
    ratios = [a / b for a, b in zip(out2["errors"], out2["errors"][1:])]
    ok = (
        abs(out2["slope"] - 3.0) < 0.3
        and abs(out1["slope"] - 2.0) < 0.3
        and all(6.5 <= r <= 9.5 for r in ratios)
    )
    scoreboard(
        7, "asymptotic remainder order", ok,
        f"slope2 {out2['slope']:.3f}, slope1 {out1['slope']:.3f}, "
        f"ratios {', '.join(f'{r:.2f}' for r in ratios)}",
    )


def test_08_exactly_solvable(offres_split, resonant_split):
    grid = TimeGrid(1.0, 100)
    worst = 0.0
    # lambda = 0: both series equal free evolution
    free = replace(offres_split, coupling=0.0)
    h0 = eh.moment_generator(free.base, 1)
    for series in (
        exact_series(free, 1, grid),
        integrate_time_local(kappa12(free, 1), 2, grid),
    ):
        for t, val in zip(grid.times, series.values):
            worst = max(worst, linalg.max_abs(val - linalg.matrix_exponential(h0 * t)))
    # commuting model: everything equals exp(h t)
    h = eh.moment_generator(resonant_split.total(), 1)
    for series in (
        exact_series(resonant_split, 1, grid),
        integrate_time_local(kappa12(resonant_split, 1), 2, grid),
    ):
        for t, val in zip(grid.times, series.values):
            worst = max(worst, linalg.max_abs(val - linalg.matrix_exponential(h * t)))
    scoreboard(8, "exactly solvable sanity", worst < 1e-9, f"max residual {worst:.2e}")


def test_09_bosonic_caveat():
    def harmonic(omega):
        D = np.diag([complex(omega)])
        Z = np.zeros((1, 1), dtype=complex)
        return np.block([[Z, D], [D, Z]])

    stable_H0 = validate_boson(harmonic(1.0), 1)
    unstable_H0 = validate_boson(np.eye(2), 1)
    stable_rep = stability_check(stable_H0)
    unstable_rep = stability_check(unstable_H0)
    unstable_eigs = unstable_rep.eigenvalues
    eig_ok = (
        stable_rep.classification == "stable"
        and unstable_rep.classification == "unstable"
        and linalg.max_abs(unstable_eigs.real) < 1e-10
        and linalg.max_abs(np.sort(unstable_eigs.imag) - np.array([-1.0, 1.0])) < 1e-10
    )
    X = np.array([[0.0, 1.0], [0.0, 0.0]])
    T_list = [1.0, 5.0, 10.0, 20.0]
    grow = divergence_demo(unstable_H0, X, T_list)
    finite = [v for v in grow["norms"] if np.isfinite(v)]
    grow_ok = (
        grow["classification"] == "divergent"
        and all(a <= b for a, b in zip(finite, finite[1:]))
        and (grow["overflow"] or grow["norms"][-1] / grow["norms"][0] > 1e3)
    )
    bounded = divergence_demo(stable_H0, X, T_list)
    # Cauchy with O(1/T) differences: successive finite-T averages of the
    # stable flow, halving the tail as T doubles
    gen = -1j * (stable_H0.H @ np.array([[0.0, -1.0], [1.0, 0.0]]))
    def avg(T, steps=4000):
        s = np.linspace(0.0, T, steps + 1)
        acc = np.zeros((2, 2), dtype=complex)
        for i, si in enumerate(s):
            U = linalg.matrix_exponential(gen * si)
            w = 0.5 if i in (0, len(s) - 1) else 1.0
            acc += w * (U @ X @ np.linalg.inv(U))
        return acc / steps
    # the averages oscillate while shrinking, so check the O(1/T) envelope
    # rather than monotone decay between two samples
    d1 = linalg.max_abs(avg(20.0) - avg(10.0))
    d2 = linalg.max_abs(avg(40.0) - avg(20.0))
    cauchy_ok = (
        bounded["classification"] == "bounded" and d1 <= 2.0 / 10.0 and d2 <= 2.0 / 20.0
    )
    ok = eig_ok and grow_ok and cauchy_ok
    if grow["overflow"]:
        ratio_text = "overflow"
    else:
        ratio_text = f"{grow['norms'][-1] / grow['norms'][0]:.1e}"
    scoreboard(
        9, "bosonic stability caveat", ok,
        f"unstable eigs ±i, growth ratio {ratio_text}, "
        f"Cauchy diffs {d1:.2e} -> {d2:.2e}",
    )


def test_10_determinism(tmp_path):
    config = str(tmp_path / "cfg.json")
    with open(config, "w") as fh:
        json.dump(
            {
                "n": 2,
                "H0": {"frequencies": [1.0, 2.0]},
                "HI": {"hopping": [{"j": 1, "k": 2, "g": 1.0}]},
                "lambda": 0.1,
                "m": 1,
                "grid": {"t_end": 1.0, "steps": 100},
                "seed": 0,
            },
            fh,
        )
    payloads = []
    for run in ("a", "b"):
        out = str(tmp_path / f"report_{run}.json")
        code = main(["verify", "--config", config, "--out", out])
        assert code == 0
        with open(out) as fh:
            report = json.load(fh)
        payloads.append(json.dumps(report["payload"], sort_keys=True))
    ok = payloads[0] == payloads[1]
    scoreboard(10, "verify determinism", ok, "byte-identical payloads")

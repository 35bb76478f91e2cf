"""Seeded input generator for the benchmark workloads.

Plain numpy and JSON data only: the program under test receives the
generated Hamiltonians and config files, never the seed.  The class of each
job ((n, m), generic or degenerate H0, kind of HI) is fixed by its position
in the pool; the seed draws only the numbers inside, so every seed gives a
pool of the same shape and roughly the same cost.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace

import numpy as np

COUPLING = 0.1
GENERIC_FREQUENCIES = (0.5, 2.5)  # uniform range
DEGENERATE_FREQUENCIES = (1.0, 2.0)  # drawn with repetition
# (n, m) pairs with the same moment dimension d = (2n)^m = 64
MOMENT_SHAPES = ((4, 2), (2, 3))
ORACLE_MODES = 3
RESONANCE_TOL = 1e-9  # effheis's default resonance and Fock clustering tolerance


@dataclass(frozen=True)
class SplitSpec:
    """Data for one split Hamiltonian H0 + coupling * HI with diagonal H0."""

    n: int
    m: int
    frequencies: tuple
    interaction: np.ndarray  # 2n x 2n valid fermionic coefficient matrix
    degenerate: bool
    seed: int  # per-job seed handed to the program where it takes one


def exchange(n: int) -> np.ndarray:
    eye = np.eye(n)
    zero = np.zeros((n, n))
    return np.block([[zero, eye], [eye, zero]])


def random_interaction(n: int, rng: np.random.Generator) -> np.ndarray:
    """Valid HI (H = -H^T = -E conj(H) E), scaled to unit max entry."""
    A = rng.standard_normal((2 * n, 2 * n)) + 1j * rng.standard_normal((2 * n, 2 * n))
    A = (A - A.T) / 2
    E = exchange(n)
    A = (A - E @ A.conj() @ E) / 2
    return A / np.max(np.abs(A))


def frequencies(n: int, degenerate: bool, rng: np.random.Generator) -> tuple:
    if degenerate:
        return tuple(float(w) for w in rng.choice(DEGENERATE_FREQUENCIES, n))
    return tuple(float(w) for w in rng.uniform(*GENERIC_FREQUENCIES, n))


def _split(n, m, degenerate, rng) -> SplitSpec:
    return SplitSpec(
        n=n,
        m=m,
        frequencies=frequencies(n, degenerate, rng),
        interaction=random_interaction(n, rng),
        degenerate=degenerate,
        seed=int(rng.integers(2**31)),
    )


def moments_specs(seed: int, pool: int) -> list[SplitSpec]:
    """(n, m) alternates between (4, 2) and (2, 3); every other pair of jobs
    has a degenerate H0."""
    rng = np.random.default_rng([seed, 1])
    specs = []
    for i in range(pool):
        n, m = MOMENT_SHAPES[i % 2]
        specs.append(_split(n, m, (i // 2) % 2 == 1, rng))
    return specs


# (m, degenerate) by pool position: the median job is a generic m = 1 one
ORACLE_CLASSES = ((1, False), (2, False), (1, False), (2, True), (1, False))


def oracle_specs(seed: int, pool: int) -> list[SplitSpec]:
    """n = 3 jobs.  A degenerate H0 here repeats one frequency, (a, a, b),
    so it always has 6 Fock clusters against the generic 8 and every seed
    costs the same; draws from {1, 2} would give 4 to 6."""
    rng = np.random.default_rng([seed, 2])
    specs = []
    for i in range(pool):
        m, degenerate = ORACLE_CLASSES[i % len(ORACLE_CLASSES)]
        spec = _split(ORACLE_MODES, m, False, rng)
        if degenerate:
            a, b = spec.frequencies[:2]
            spec = replace(spec, frequencies=(a, a, b), degenerate=True)
        specs.append(spec)
    return specs


def encode_matrix(M: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(M, dtype=complex)]


def cli_configs(seed: int) -> list[tuple[str, dict, str]]:
    """Random configs the size of the shipped ones: (name, config, kind).

    Fermionic: n = 2 with generic (hopping), resonant (equal frequencies)
    and random-matrix HI.  Bosonic: n = 1, one stable and one unstable
    symplectic generator.  The fermionic grid is a quarter of the shipped one,
    which keeps a cli-small pass short enough for several passes per run.
    """
    rng = np.random.default_rng([seed, 3])

    def fermion(m, H0, HI):
        return {
            "n": 2, "m": m, "H0": H0, "HI": HI, "lambda": COUPLING,
            "grid": {"t_end": 0.25, "steps": 25},
            "tolerances": {"resonance": RESONANCE_TOL},
            "seed": int(rng.integers(2**31)),
        }

    def hopping():
        return {"hopping": [{"j": 1, "k": 2, "g": float(rng.uniform(0.5, 1.5))}]}

    def boson(a, b):
        # H = [[a, b], [b, a]]: H J has eigenvalues +-sqrt(b^2 - a^2)
        X = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        return {
            "n": 1,
            "boson": {
                "H0": {"matrix": encode_matrix([[a, b], [b, a]])},
                "X": encode_matrix(X),
                "T_list": [1, 5, 10, 20],
            },
        }

    w = float(rng.uniform(*GENERIC_FREQUENCIES))
    return [
        ("rand_generic", fermion(1, {"frequencies": list(frequencies(2, False, rng))}, hopping()), "fermion"),
        ("rand_resonant", fermion(2, {"frequencies": [w, w]}, hopping()), "resonant"),
        (
            "rand_matrix",
            fermion(2, {"frequencies": list(frequencies(2, False, rng))},
                    {"matrix": encode_matrix(random_interaction(2, rng))}),
            "fermion",
        ),
        ("rand_boson_stable", boson(rng.uniform(0.0, 0.5), rng.uniform(1.0, 1.5)), "stable"),
        ("rand_boson_unstable", boson(rng.uniform(0.8, 1.2), rng.uniform(0.0, 0.5)), "unstable"),
    ]


# -- exact workload properties, computed from the inputs alone ---------------

def _clusters(values, tol: float = RESONANCE_TOL):
    """Single-linkage clusters of a spectrum, effheis's rule: sorted values
    more than tol * (1 + spread) apart start a new cluster.  Returns the
    cluster sizes and means."""
    w = np.sort(np.asarray(values, dtype=float))
    gap = tol * (1.0 + (w[-1] - w[0]))
    labels = np.concatenate([[0], np.cumsum(np.diff(w) > gap)])
    sizes = np.bincount(labels)
    means = np.bincount(labels, weights=w) / sizes
    return sizes, means


def moment_partition(freqs, m: int) -> dict:
    """Resonance blocks of M0 = kron_sum(E H0, m), whose spectrum is every
    sum of m single-particle energies +-omega_j."""
    single = np.concatenate([np.asarray(freqs), -np.asarray(freqs)])
    spectrum = single
    for _ in range(m - 1):
        spectrum = np.add.outer(spectrum, single).ravel()
    sizes, _ = _clusters(spectrum)
    return {
        "clusters": int(len(sizes)),
        "largest_block": int(sizes.max()),
        "mask_density": float(np.sum(sizes.astype(float) ** 2) / len(spectrum) ** 2),
    }


def fock_partition(freqs) -> dict:
    """Clusters of the Fock-space H0 = sum_j omega_j (n_j - 1/2) and the
    share of cluster quadruples with e1 - e2 + e3 - e4 = 0 that the
    superoperator projection keeps."""
    omega = np.asarray(freqs, dtype=float)
    occupations = np.array(list(itertools.product((0, 1), repeat=len(omega))), dtype=float)
    _, e = _clusters((occupations - 0.5) @ omega)
    gap = RESONANCE_TOL * (1.0 + (e.max() - e.min()))
    combos = e[:, None, None, None] - e[None, :, None, None] + e[None, None, :, None] - e[None, None, None, :]
    k = len(e)
    return {"clusters": k, "quadruple_hit_ratio": float(np.count_nonzero(np.abs(combos) <= gap) / k**4)}

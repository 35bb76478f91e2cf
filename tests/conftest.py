import numpy as np
import pytest

import effheis as eh
from effheis.fermion import SplitHamiltonian


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture(scope="session")
def offres_split():
    """n=2, omega=(1, 2), hopping interaction: the fully off-resonant model."""
    return SplitHamiltonian(
        base=eh.diagonal_modes([1.0, 2.0]),
        interaction=eh.hopping(2, 1, 2, 1.0),
        coupling=0.1,
    )


@pytest.fixture(scope="session")
def resonant_split():
    """omega=(1, 1): the interaction commutes with the free generator."""
    return SplitHamiltonian(
        base=eh.diagonal_modes([1.0, 1.0]),
        interaction=eh.hopping(2, 1, 2, 1.0),
        coupling=0.1,
    )


@pytest.fixture(scope="session")
def detuned_split():
    """Off-resonant model with hopping plus onsite detuning in the
    interaction, so the third cumulant does not vanish."""
    HI = eh.hopping(2, 1, 2, 1.0).H + eh.diagonal_modes([0.3, -0.2]).H
    return SplitHamiltonian(
        base=eh.diagonal_modes([1.0, 2.0]),
        interaction=eh.validate_fermion(HI, 2),
        coupling=0.1,
    )

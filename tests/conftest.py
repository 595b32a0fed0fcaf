import numpy as np
import pytest

from weakhyp.spectral import Grid
from weakhyp.symbols import CoefficientField, SymbolB


@pytest.fixture(scope="session")
def coeff():
    return CoefficientField()


@pytest.fixture(scope="session")
def sb_c1(coeff):
    return SymbolB(coeff, c=1.0)


@pytest.fixture(scope="session")
def sb_half(coeff):
    return SymbolB(coeff, c=0.5)


@pytest.fixture(scope="session")
def grid64():
    return Grid(64)


@pytest.fixture(scope="session")
def grid128():
    return Grid(128)


@pytest.fixture
def rng():
    return np.random.default_rng(42)


class FrozenZeroCoefficient(CoefficientField):
    """Coefficient frozen at its degenerate corner: a == 0 everywhere.

    Turns b into the pure multiplier <xi>^(c/2); only for tests of the
    multiplier-reduction paths.
    """

    def a(self, t, x):
        return np.zeros_like(np.broadcast_arrays(
            np.asarray(t, dtype=float), np.asarray(x, dtype=float))[0])

    def dx_a(self, t, x):
        return self.a(t, x)

    def dt_a(self, t, x):
        return self.a(t, x)


@pytest.fixture(scope="session")
def frozen_zero_coeff():
    return FrozenZeroCoefficient()

import numpy as np
import pytest

from proxgap import catalog, verify

# the golden-record helpers assert, so show their comparisons like a test's
pytest.register_assert_rewrite("golden")


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def energy2():
    return catalog.make_energy(2)


@pytest.fixture
def subspace_e1():
    """Indicator of span{(1,0)} inside R^2."""
    return catalog.make_subspace_indicator([[1.0, 0.0]])


@pytest.fixture
def burg():
    return catalog.make_burg()


@pytest.fixture
def shannon():
    return catalog.make_shannon()


@pytest.fixture
def rotator():
    return catalog.make_rotator()


def draw_domain_point(f, rng):
    """A point of dom f (for subspace: of the subspace itself)."""
    return verify._domain_points(f, rng.normal(size=f.dim))


def draw_dual_point(f, rng):
    """A random point where the conjugate of f is finite."""
    if f.name == "energy":
        return rng.normal(size=f.dim)
    if f.name == "subspace":
        z = rng.normal(size=f.dim)
        return z - f.prox(1.0, z)
    if f.name == "burg":
        return np.array([-np.exp(rng.uniform(-2.0, 1.0))])
    return rng.normal(size=1)

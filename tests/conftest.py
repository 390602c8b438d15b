import dataclasses

import numpy as np
import pytest

from proxgap import catalog
from proxgap.bounds import minty_decompose

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


def bits(value):
    """A result as comparable bits: each leaf's type and bytes, records field
    by field and tuples item by item."""
    if dataclasses.is_dataclass(value):
        return tuple(bits(getattr(value, f.name)) for f in dataclasses.fields(value))
    if isinstance(value, tuple):
        return tuple(bits(v) for v in value)
    return type(value), np.asarray(value).tobytes()


def draw_domain_point(f, rng):
    """A point of dom df (for subspace: of the subspace itself), from a normal draw."""
    return f.value_kernel.domain_points(rng.normal(size=f.dim))


def draw_dual_point(f, rng):
    """A point of ran df, where the conjugate of f is finite, from a normal draw."""
    return f.conjugate_kernel.domain_points(rng.normal(size=f.dim))


def graph_point(A, rng):
    """A point (a, a*) of the graph of A: the Minty pair of a normal draw (u, v),
    a = J_A(u + v) and a* = u + v - a."""
    u, v = rng.normal(size=(2, A.dim))
    pair = minty_decompose(A, 1.0, u, v)
    return pair.a, pair.a_star


def moreau_fallback(f):
    """f with its closed-form conjugate prox dropped, so the record derives
    the Moreau flip of its prox."""
    bare = dataclasses.replace(f, conjugate_prox=None, conjugate_prox_kernel=None)
    assert bare.conjugate_prox_kernel is not f.conjugate_prox_kernel
    return bare


def resolvent_paths(functions):
    """Every resolvent path, name -> operator: for each function of
    ``functions`` (name -> function) its subdifferential and the closed-form,
    generic and Moreau inverses, then the rotator and two of its inverses."""
    ops = {}
    for name, f in functions.items():
        op = catalog.subdifferential_operator(f)
        ops[name] = op
        ops[f"{name}/closed-inverse"] = op.inverse()
        ops[f"{name}/generic-inverse"] = dataclasses.replace(op, inverse_factory=None).inverse()
        moreau = catalog.conjugate_function(moreau_fallback(f))
        ops[f"{name}/moreau-inverse"] = catalog.subdifferential_operator(moreau)
    rot = catalog.make_rotator()
    ops["rotator"] = rot
    ops["rotator/closed-inverse"] = rot.inverse()
    ops["rotator/generic-inverse"] = dataclasses.replace(rot, inverse_factory=None).inverse()
    return ops

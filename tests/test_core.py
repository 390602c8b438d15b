import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st
from hypothesis.extra import numpy as hnp

from proxgap.core import (
    MEMBERSHIP_TOL,
    as_gamma,
    as_pairs,
    as_vector,
    check_finite,
    inner,
    parse_vector,
    row_norm,
    within_membership,
    within_tolerance,
)


def test_inner_matches_numpy(rng):
    x = rng.normal(size=7)
    y = rng.normal(size=7)
    assert np.allclose(inner(x, y), np.dot(x, y))


def test_inner_shape_mismatch():
    with pytest.raises(ValueError):
        inner([1.0, 2.0], [1.0, 2.0, 3.0])


@given(
    st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=6),
    st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=6),
    st.floats(-10.0, 10.0),
)
def test_inner_is_bilinear(xs, ys, t):
    n = min(len(xs), len(ys))
    x = np.array(xs[:n])
    y = np.array(ys[:n])
    lhs = inner(t * x, y)
    rhs = t * inner(x, y)
    assert abs(lhs - rhs) <= 1e-9 * (1.0 + abs(lhs) + abs(rhs))


def test_as_vector_coerces_and_checks():
    v = as_vector([1, 2, 3], 3, "v")
    assert v.dtype == np.float64
    assert v.shape == (3,)

    with pytest.raises(ValueError):
        as_vector([1.0, 2.0], 3, "v")
    with pytest.raises(ValueError):
        as_vector([[1.0, 2.0]], None, "v")
    with pytest.raises(ValueError):
        as_vector([1.0, np.nan], None, "v")
    with pytest.raises(ValueError):
        as_vector([1.0, np.inf], None, "v")


def test_membership_scale_grows_with_inputs():
    # the largest accepted error is MEMBERSHIP_TOL * (1 + sum of norms)
    big = MEMBERSHIP_TOL * (1.0 + math.hypot(100.0, 100.0))
    for err, norms in ((MEMBERSHIP_TOL, (0.0,)), (big, (0.0, math.hypot(100.0, 100.0)))):
        assert within_tolerance(err, norms) is True
        assert within_tolerance(math.nextafter(err, math.inf), norms) is False
    assert within_membership(big, np.zeros(2), np.full(2, 100.0))
    assert not within_membership(math.nextafter(big, math.inf), np.zeros(2), np.full(2, 100.0))


def test_row_norm_has_the_bits_of_linalg_norm():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(50, 3)) * 10.0 ** rng.uniform(-3.0, 100.0, size=(50, 1))
    norms = row_norm(x)
    assert norms.shape == (50,)
    assert all(norms[i] == np.linalg.norm(x[i]) for i in range(50))
    assert row_norm(x[0]) == np.linalg.norm(x[0])


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_membership_rejects_an_overflowed_scale():
    # any error above 0 is undecided under an overflowed scale; exactly 0 is
    # a member at every scale
    assert within_membership(1e-300, np.array([1e150, 0.0]))
    assert not within_membership(1e-300, np.array([1e200, 0.0]))
    assert within_membership(0.0, np.array([1e200, 0.0]))
    err = np.array([1e-300, 1e-300, 0.0])
    rows = within_membership(err, np.array([[1e150, 0.0], [1e200, 0.0], [1e200, 0.0]]))
    assert rows.tolist() == [True, False, True]
    # the same rule on Python floats, with the norm already +inf
    assert within_tolerance(0.0, [math.inf]) is True
    assert within_tolerance(1e-300, [math.inf]) is False


@pytest.mark.parametrize("value", [0.0, -1.0, math.inf, -math.inf, math.nan])
def test_as_gamma_rejects_non_positive_and_non_finite(value):
    with pytest.raises(ValueError, match=f"^step must be positive and finite, got {value!r}$"):
        as_gamma(value, "step")


def test_as_gamma_returns_a_float():
    g = as_gamma(np.float64(0.25))
    assert g == 0.25 and type(g) is float
    assert as_gamma(5e-324) == 5e-324


def test_check_finite_names_the_stack():
    stack = np.zeros((2, 3))
    assert check_finite(stack, "z") is stack
    stack[1, 2] = math.inf
    with pytest.raises(ValueError, match="^z has non-finite entries"):
        check_finite(stack, "z")


# 1e308 pairs overflow a sum although every entry is finite
STACKS = hnp.arrays(
    np.float64,
    hnp.array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=4),
    elements=st.one_of(
        st.sampled_from([1e308, -1e308, math.inf, -math.inf, math.nan]), st.floats()
    ),
)


@pytest.mark.filterwarnings("error")
@example(np.array([1e308, 1e308]))
@example(np.full((2, 2), -1e308))
@example(np.zeros(0))
@example(np.zeros((0, 3)))
@example(np.array([[1.0, math.nan], [math.inf, -math.inf]]))
@given(STACKS)
def test_check_finite_and_as_vector_agree_with_isfinite_all(stack):
    finite = bool(np.isfinite(stack).all())
    if finite:
        assert check_finite(stack, "z") is stack
    else:
        with pytest.raises(ValueError) as info:
            check_finite(stack, "z")
        assert str(info.value) == f"z has non-finite entries: {stack!r}"
    if stack.ndim != 1 or stack.size == 0:
        with pytest.raises(ValueError, match="^v must be a 1-D sequence with at least one entry$"):
            as_vector(stack, None, "v")
    elif finite:
        assert as_vector(stack.tolist(), stack.size, "v").tolist() == stack.tolist()
    else:
        with pytest.raises(ValueError) as info:
            as_vector(stack.tolist(), stack.size, "v")
        assert str(info.value) == f"v has non-finite entries: {stack!r}"


def test_parse_vector():
    assert parse_vector("1,-2.5,1e3", "--x") == [1.0, -2.5, 1000.0]
    for text in ("", "1,", "1,oops"):
        with pytest.raises(ValueError, match=f"^bad --x '{text}': expected comma-separated reals$"):
            parse_vector(text, "--x")


def test_as_pairs_checks_every_point_once():
    pairs = as_pairs([([1, 2], (3.0, 4.0))], 2)
    assert [(a.tolist(), s.tolist()) for a, s in pairs] == [([1.0, 2.0], [3.0, 4.0])]
    with pytest.raises(ValueError, match="at least one pair"):
        as_pairs([], 2)
    with pytest.raises(ValueError, match="^a_star_2 has dimension 1, expected 2$"):
        as_pairs([([1, 2], [3, 4]), ([1, 2], [3])], 2)
    with pytest.raises(ValueError, match="^a_1 has non-finite entries"):
        as_pairs([([1, math.nan], [3, 4])], 2)

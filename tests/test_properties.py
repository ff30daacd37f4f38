"""Property tests over random model parameters (hypothesis).

The examples are derandomized, so every run draws the same cases and the
suite stays reproducible; ``deadline=None`` because the first call of a
fresh model pays for numpy's warm-up.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from snlpscale import (
    laplace_invert,
    make_brownian,
    make_exp_jump_diffusion,
    w_derivative,
    wq,
    zq,
)

from conftest import (
    _simple_roots,
    partial_fraction_w,
    partial_fraction_w_prime,
    partial_fraction_z,
    psi_derivative,
)

_SETTINGS = settings(deadline=None, max_examples=60, derandomize=True, database=None)

_models = st.one_of(
    st.builds(make_brownian, st.floats(-5.0, 5.0), st.floats(0.1, 3.0)),
    st.builds(
        make_exp_jump_diffusion,
        st.floats(-5.0, 5.0),
        st.floats(0.1, 3.0),
        st.floats(0.0, 5.0),
        st.floats(0.05, 5.0),
    ),
)

_jump_models = st.builds(
    make_exp_jump_diffusion,
    st.floats(-2.0, 2.0),
    st.floats(0.5, 2.0),
    st.floats(0.2, 3.0),
    st.floats(0.25, 2.0),
)


@_SETTINGS
@given(model=_models, q=st.floats(0.0, 20.0))
def test_phi_is_right_inverse_of_psi(model, q):
    root = model.phi(q)
    assert root >= 0.0
    assert model.psi(root) == pytest.approx(q, rel=1e-9, abs=1e-9)
    # the largest root: psi is nondecreasing there
    assert psi_derivative(model, root) >= -1e-9


@_SETTINGS
@given(model=_jump_models, q=st.floats(0.05, 20.0), x=st.floats(0.1, 8.0))
def test_scale_functions_match_partial_fractions(model, q, x):
    # exact representations on both sides, so only rounding separates them,
    # with phi(q) x past 100
    assert wq(model, q, x) == pytest.approx(partial_fraction_w(model, q, x), rel=1e-10)
    assert w_derivative(model, q, x) == pytest.approx(
        partial_fraction_w_prime(model, q, x), rel=1e-10
    )
    assert zq(model, q, x) == pytest.approx(partial_fraction_z(model, q, x), rel=1e-10)


@_SETTINGS
@given(model=_jump_models, q=st.floats(0.05, 5.0), x=st.floats(0.1, 2.0))
def test_inversion_matches_partial_fractions(model, q, x):
    # the fixed 48-node contour keeps about 1e-7 relative accuracy in this box
    roots = np.sort(_simple_roots(model, q)[0].real)
    assume(np.min(np.diff(roots)) > 0.25)  # well-separated simple roots
    shift = model.phi(q) + 1.0
    w = laplace_invert(lambda b: 1.0 / (model._psi_any(b) - q), x, shift=shift)
    int_w = laplace_invert(lambda b: 1.0 / (b * (model._psi_any(b) - q)), x, shift=shift)
    assert w == pytest.approx(partial_fraction_w(model, q, x), rel=1e-6)
    assert 1.0 + q * int_w == pytest.approx(partial_fraction_z(model, q, x), rel=1e-6)

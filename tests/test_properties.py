"""Property tests over random model parameters (hypothesis).

The examples are derandomized, so every run draws the same cases and the
suite stays reproducible; ``deadline=None`` because the first call of a
fresh model pays for numpy's warm-up.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from snlpscale import make_brownian, make_exp_jump_diffusion, wq, zq

from conftest import _simple_roots, partial_fraction_w, partial_fraction_z

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

# the range where the fixed 48-node contour keeps about 1e-7 relative
# accuracy; larger phi(q) * x is the Esscher item of the roadmap
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
    assert model.psi_derivative(root) >= -1e-9


@_SETTINGS
@given(model=_jump_models, q=st.floats(0.05, 5.0), x=st.floats(0.1, 2.0))
def test_inversion_matches_partial_fractions(model, q, x):
    roots = np.sort(_simple_roots(model, q)[0].real)
    assume(np.min(np.diff(roots)) > 0.25)  # well-separated simple roots
    assert wq(model, q, x) == pytest.approx(partial_fraction_w(model, q, x), rel=1e-6)
    assert zq(model, q, x) == pytest.approx(partial_fraction_z(model, q, x), rel=1e-6)

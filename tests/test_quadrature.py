import math

import numpy as np
import pytest

from snlpscale.quadrature import composite_simpson, cumulative_simpson


def test_composite_simpson_polynomial_exact():
    xs = np.linspace(0.0, 2.0, 9)
    vals = xs**3 - xs
    assert composite_simpson(vals, xs[1] - xs[0]) == pytest.approx(2.0, abs=1e-14)


def test_composite_simpson_rejects_even_node_count():
    with pytest.raises(ValueError):
        composite_simpson(np.zeros(8), 0.1)


def test_cumulative_simpson_matches_antiderivative():
    # odd nodes carry one half-cell quadratic segment: local error h^4 f'''/24
    xs = np.linspace(0.0, 1.5, 31)
    out = cumulative_simpson(np.exp(xs), xs[1] - xs[0])
    expected = np.exp(xs) - 1.0
    h = xs[1] - xs[0]
    assert np.max(np.abs(out - expected)) < h**4 * math.e**1.5


def test_cumulative_simpson_even_node_count():
    xs = np.linspace(0.0, 1.0, 10)
    out = cumulative_simpson(np.cos(xs), xs[1] - xs[0])
    assert out[-1] == pytest.approx(math.sin(1.0), abs=1e-5)


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


def _cumulative_simpson_per_node(values, step):
    """The per-node loop that ``cumulative_simpson`` vectorizes."""
    n = values.size
    out = np.zeros(n)
    if n == 2:
        out[1] = 0.5 * step * (values[0] + values[1])
        return out
    h = step
    for i in range(2, n, 2):
        out[i] = out[i - 2] + h / 3.0 * (values[i - 2] + 4.0 * values[i - 1] + values[i])
    for i in range(1, n, 2):
        if i + 1 < n:
            seg = h / 12.0 * (5.0 * values[i - 1] + 8.0 * values[i] - values[i + 1])
        else:
            seg = h / 12.0 * (-values[i - 2] + 8.0 * values[i - 1] + 5.0 * values[i])
        out[i] = out[i - 1] + seg
    return out


@pytest.mark.parametrize("n", [*range(2, 40), 129, 257, 1025, 2048])
def test_cumulative_simpson_is_the_per_node_loop_bit_for_bit(n):
    rng = np.random.default_rng(n)
    arrays = [rng.standard_normal(n) * 10.0 ** rng.uniform(-3, 3) for _ in range(50)]
    arrays.append(np.full(n, -0.0))  # signed zeros: the sums start from +0
    for values in arrays:
        step = rng.uniform(1e-3, 1.0) * rng.choice([-1.0, 1.0])
        want = _cumulative_simpson_per_node(values, step)
        assert np.array_equal(cumulative_simpson(values, step).view(np.int64), want.view(np.int64))

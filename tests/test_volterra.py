import math

import numpy as np
import pytest

from snlpscale import (
    UnivariatePotential,
    classical_exit_up,
    make_brownian,
    make_exp_jump_diffusion,
    parse_bivariate,
    solve_w_z_f,
    wq,
    zq,
)
from snlpscale.scale import _exp_sum, _w_deriv_array, _wq_array, w_prime_at_zero
from snlpscale.volterra import _march

from conftest import product_trapezoid_end, product_trapezoid_march


def const_potential(level):
    return UnivariatePotential(lambda x: level + 0.0 * x, bound=level, name=f"const{level}")


ZERO = const_potential(0.0)
HALF = const_potential(0.5)


class TestDegenerate:
    def test_zero_potential_collapses_to_w(self, bm_driftless):
        sol = solve_w_z_f(bm_driftless, ZERO, 0.0, 1.0, 128)
        expected = _wq_array(bm_driftless, 0.0, sol.nodes - sol.b)
        assert np.max(np.abs(sol.w - expected)) == 0.0

    def test_zero_potential_z_is_one(self, bm_driftless):
        sol = solve_w_z_f(bm_driftless, ZERO, 0.0, 1.0, 128)
        assert np.max(np.abs(sol.z - 1.0)) == 0.0
        assert sol.z_end_deriv == 0.0


class TestDiscountRecovery:
    def test_w_matches_q_scale(self, bm_driftless):
        sol = solve_w_z_f(bm_driftless, HALF, 0.0, 1.0, 2000)
        assert sol.w[-1] == pytest.approx(2.0 * math.sinh(1.0), abs=1e-6)

    def test_z_matches_q_scale(self, bm_driftless):
        sol = solve_w_z_f(bm_driftless, HALF, 0.0, 1.0, 2000)
        assert sol.z[-1] == pytest.approx(math.cosh(1.0), abs=1e-6)

    def test_z_derivative_column(self, bm_driftless):
        sol = solve_w_z_f(bm_driftless, HALF, 0.0, 1.0, 2000)
        assert sol.z_end_deriv == pytest.approx(math.sinh(1.0), abs=1e-5)

    def test_exit_ratio_reproduction(self, bm_driftless):
        sol = solve_w_z_f(bm_driftless, HALF, 0.0, 1.0, 2000)
        ratio = sol.w[1000] / sol.w[-1]
        classical = classical_exit_up(bm_driftless, 0.5, 0.0, 0.5, 1.0)
        assert ratio == pytest.approx(classical, abs=1e-6)

    def test_grid_halving_reduces_error(self, bm_driftless):
        target = 2.0 * math.sinh(1.0)
        e_coarse = abs(solve_w_z_f(bm_driftless, HALF, 0.0, 1.0, 1000).w[-1] - target)
        e_fine = abs(solve_w_z_f(bm_driftless, HALF, 0.0, 1.0, 2000).w[-1] - target)
        assert e_coarse / e_fine >= 3.0

    def test_jump_family_against_inversion(self, jd_unit):
        sol = solve_w_z_f(jd_unit, HALF, 0.0, 1.0, 1500)
        assert sol.w[-1] == pytest.approx(wq(jd_unit, 0.5, 1.0), rel=2e-6)
        assert sol.z[-1] == pytest.approx(zq(jd_unit, 0.5, 1.0), rel=2e-6)


class TestStructure:
    def test_monotone_in_potential(self, bm_driftless):
        indicator = UnivariatePotential(
            lambda x: 0.5 * (np.asarray(x) > 0.5), bound=0.5, name="step"
        )
        low = solve_w_z_f(bm_driftless, ZERO, 0.0, 1.5, 600)
        mid = solve_w_z_f(bm_driftless, indicator, 0.0, 1.5, 600)
        high = solve_w_z_f(bm_driftless, HALF, 0.0, 1.5, 600)
        assert np.all(mid.w >= low.w - 1e-12)
        assert np.all(mid.w <= high.w + 1e-12)

    def test_solution_positive_and_increasing(self, bm_drift_up):
        sol = solve_w_z_f(bm_drift_up, HALF, 0.0, 2.0, 400)
        assert np.all(sol.w >= 0.0)
        assert np.all(np.diff(sol.w) > 0.0)
        assert sol.w[0] == 0.0
        assert sol.w_end_deriv > 0.0 and sol.z_end_deriv > 0.0

    def test_z_at_least_one(self, bm_drift_up):
        sol = solve_w_z_f(bm_drift_up, HALF, 0.0, 2.0, 400)
        assert np.all(sol.z >= 1.0 - 1e-12)

    def test_derivative_column_consistent_with_values(self, bm_driftless):
        # W^(q)' = 2 cosh(s), Z^(q)' = sinh(s) for const:1/2; each row's end
        # slope carries the trapezoid's O(h^2) error and no more
        levels = np.array([0.25, 0.5, 1.0, 1.5, 2.0])
        sol = solve_w_z_f(bm_driftless, [HALF] * levels.size, 0.0, levels, 800)
        h2 = sol.grid_step**2
        assert np.all(np.abs(sol.w_end_deriv - 2.0 * np.cosh(levels)) < h2)
        assert np.all(np.abs(sol.z_end_deriv - np.sinh(levels)) < h2)

    def test_offset_barrier(self, bm_driftless):
        # the march is translation covariant in the barrier
        lo = solve_w_z_f(bm_driftless, HALF, 0.0, 1.0, 500)
        shifted_pot = UnivariatePotential(lambda x: 0.5 + 0.0 * x, bound=0.5)
        hi = solve_w_z_f(bm_driftless, shifted_pot, -2.0, -1.0, 500)
        assert np.allclose(lo.w, hi.w, atol=1e-12)
        assert np.allclose(lo.nodes, hi.nodes + 2.0)


class TestValidation:
    def test_bound_violation_is_hard_error(self, bm_driftless):
        lying = UnivariatePotential(lambda x: np.asarray(x) ** 2, bound=0.1, name="liar")
        with pytest.raises(ValueError):
            solve_w_z_f(bm_driftless, lying, 0.0, 1.0, 64)

    def test_interval_and_resolution_preconditions(self, bm_driftless):
        with pytest.raises(ValueError):
            solve_w_z_f(bm_driftless, HALF, 1.0, 1.0, 64)
        with pytest.raises(ValueError):
            solve_w_z_f(bm_driftless, HALF, 0.0, 1.0, 8)


class TestBlockSolve:
    @pytest.mark.parametrize("model,pot", [
        (make_brownian(0.3, 1.0), "reflected:0.5"),
        (make_exp_jump_diffusion(2.0, 1.0, 1.0, 0.5), "level:1,0.6"),
    ], ids=["bm-reflected", "jd-level"])
    def test_block_matches_single_solves(self, model, pot):
        # each row has its own interval [0, s] and its own frozen slice F(s, .)
        F = parse_bivariate(pot, 1.0)
        levels = np.linspace(0.55, 1.0, 6)
        block = solve_w_z_f(model, [F.frozen(s) for s in levels], 0.0, levels, 64)
        for r, s in enumerate(levels):
            one = solve_w_z_f(model, F.frozen(s), 0.0, float(s), 64)
            assert np.array_equal(block.nodes[r], one.nodes)
            assert block.w[r, -1] == pytest.approx(one.w[-1], rel=1e-13)
            assert block.z[r, -1] == pytest.approx(one.z[-1], rel=1e-13)
            assert block.w_end_deriv[r] == pytest.approx(one.w_end_deriv, rel=1e-13)
            assert block.z_end_deriv[r] == pytest.approx(one.z_end_deriv, rel=1e-13)

    def test_one_upper_end_per_potential(self, bm_driftless):
        with pytest.raises(ValueError):
            solve_w_z_f(bm_driftless, [HALF, HALF], 0.0, [1.0], 64)
        with pytest.raises(ValueError):
            solve_w_z_f(bm_driftless, [], 0.0, [], 64)


MARCH_MODELS = pytest.mark.parametrize("model", [
    make_brownian(0.0, 1.0),
    make_brownian(0.3, 0.8),
    make_exp_jump_diffusion(2.0, 1.0, 1.0, 0.5),
    make_brownian(1e-9, 1.0),
], ids=["double-root", "two-roots", "three-roots", "merging-roots"])


def march_block(model, n=512):
    """The march on four rows of differing steps, with its lattice, kernel and inputs."""
    h = np.array([1.0, 1.7, 2.5, 4.0]) / n
    lattice = h[:, None] * np.arange(n + 1)
    kernel = _wq_array(model, 0.0, lattice)
    fvals = 0.5 + 0.4 * np.sin(3.0 * lattice)
    inhom = np.stack([kernel.T, np.ones_like(kernel.T)], axis=1)
    phi, end = _march(_exp_sum(model, 0.0), fvals, h, inhom, w_prime_at_zero(model))
    return h, lattice, kernel, fvals, inhom, phi, end


class TestMarchRecursion:
    @MARCH_MODELS
    def test_matches_direct_product_trapezoid(self, model):
        # the O(n) recursion is the O(n^2) rule summed in another order
        h, _, kernel, fvals, inhom, phi, _ = march_block(model)
        for r in range(h.size):
            for c in range(2):
                want = product_trapezoid_march(kernel[r], fvals[r], h[r], inhom[:, c, r])
                assert phi[:, c, r] == pytest.approx(want, rel=1e-13)

    @MARCH_MODELS
    def test_end_history_matches_direct_trapezoid(self, model):
        # the derivative history read off the running sums is the direct
        # trapezoid of W' against the direct march's f phi at the last node
        h, lattice, kernel, fvals, inhom, _, end = march_block(model)
        kernel_deriv = _w_deriv_array(model, 0.0, lattice)
        kernel_deriv[:, 0] = w_prime_at_zero(model)
        for r in range(h.size):
            for c in range(2):
                phi = product_trapezoid_march(kernel[r], fvals[r], h[r], inhom[:, c, r])
                want = product_trapezoid_end(kernel_deriv[r], fvals[r], h[r], phi)
                assert end[c, r] == pytest.approx(want, rel=1e-13)

    def test_second_order_to_fine_grids(self, bm_driftless):
        # W^(q) = 2 sinh(x), Z^(q) = cosh(x) for const:1/2; the trapezoid error
        # stays a clean h^2 term to n = 16384, with no rounding drift on top
        errors = []
        for n in (4096, 16384):
            sol = solve_w_z_f(bm_driftless, HALF, 0.0, 1.0, n)
            x = sol.nodes[1:]
            errors.append((
                np.max(np.abs(sol.w[1:] / (2.0 * np.sinh(x)) - 1.0)),
                np.max(np.abs(sol.z[1:] / np.cosh(x) - 1.0)),
            ))
        h = 1.0 / 16384
        assert errors[1][0] < 0.2 * h**2
        assert errors[1][1] < 0.04 * h**2
        for coarse, fine in zip(*errors):
            assert coarse / fine == pytest.approx(16.0, rel=1e-2)

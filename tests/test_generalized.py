import math
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad

from snlpscale import (
    BivariatePotential,
    ExitSpec,
    classical_exit_down,
    classical_exit_up,
    conditional_curve,
    evaluate_exit,
    iota,
    kappa,
    local_time_laplace,
    make_brownian,
    make_exp_jump_diffusion,
    n_height_tail,
    parse_bivariate,
    supremum_atom,
    supremum_density,
    supremum_mass,
    wq,
)
from snlpscale import generalized, volterra
from snlpscale.quadrature import composite_simpson

from conftest import (
    constant_iota_mpmath,
    level_exit_bm,
    partial_fraction_w,
    partial_fraction_z,
    route_constancy_ratios,
)

ZERO = BivariatePotential(lambda s, x: 0.0 * s, bound=0.0, name="zero")
HALF = BivariatePotential(lambda s, x: 0.5 + 0.0 * s, bound=0.5, name="half")
SPEC = ExitSpec(0.0, 0.5, 1.0)


class TestIota:
    def test_zero_potential_is_exactly_zero(self, bm_driftless):
        assert iota(bm_driftless, ZERO, 0.0, 1.0, 128) == 0.0

    def test_constant_potential_closed_form(self, bm_driftless):
        # delta*coth(delta s) - 1/s with delta = 1
        want = 1.0 / math.tanh(1.0) - 1.0
        assert iota(bm_driftless, HALF, 0.0, 1.0, 1024) == pytest.approx(want, abs=1e-5)

    def test_reflected_potential_bounded_by_phi(self, bm_driftless):
        F = BivariatePotential(
            lambda s, x: 0.5 * (np.asarray(s) - np.asarray(x) > 0.25), bound=0.5,
            name="deep-excursion",
        )
        val = iota(bm_driftless, F, 0.0, 1.0, 1024)
        assert 0.0 < val < bm_driftless.phi(0.5)

    def test_rejects_bad_level(self, bm_driftless):
        with pytest.raises(ValueError):
            iota(bm_driftless, HALF, 0.0, 0.0, 128)

    @pytest.mark.parametrize("model", ["bm_driftless", "jd_drifting"])
    def test_outer_pass_matches_closed_form_at_every_distance(self, model, request):
        # each frozen solve's lattice scales with [b, s], so the error does not
        # grow as s nears the barrier
        model = request.getfixturevalue(model)
        levels = np.array([1e-4, 1e-3, 1e-2, 0.1, 1.0])
        iotas, _, _, _ = generalized._functional_grids(model, HALF, 0.0, levels, 1024)
        want = [constant_iota_mpmath(model, 0.5, s) for s in levels]
        assert iotas == pytest.approx(want, rel=3e-6, abs=0.0)


class TestKappa:
    def test_zero_potential_reduces_to_height_tail(self, bm_driftless):
        assert kappa(bm_driftless, ZERO, 0.0, 2.0, 256) == pytest.approx(0.5, abs=1e-12)
        zs = np.linspace(0.25, 2.0, 8)
        gap = [
            abs(kappa(bm_driftless, ZERO, 0.0, float(z), 512) - n_height_tail(bm_driftless, float(z)))
            for z in zs
        ]
        assert max(gap) < 1e-8

    def test_constant_potential_closed_form(self, bm_driftless):
        # delta/sinh(delta z) with delta = 1
        want = 1.0 / math.sinh(1.0)
        assert kappa(bm_driftless, HALF, 0.0, 1.0, 1024) == pytest.approx(want, abs=1e-5)

    def test_damping_monotone_in_potential(self, bm_driftless):
        assert kappa(bm_driftless, HALF, 0.0, 1.0, 512) < kappa(
            bm_driftless, ZERO, 0.0, 1.0, 512
        )

    def test_rejects_bad_level(self, bm_driftless):
        with pytest.raises(ValueError):
            kappa(bm_driftless, HALF, 0.0, -1.0, 128)


class TestExitUp:
    @pytest.mark.usefixtures("one_pass")
    def test_zero_potential_is_classical(self, bm_driftless):
        val = evaluate_exit(bm_driftless, ZERO, SPEC).up_laplace
        assert val == pytest.approx(0.5, abs=1e-12)

    def test_constant_potential_sinh_ratio(self, bm_driftless):
        want = math.sinh(0.5) / math.sinh(1.0)
        val = evaluate_exit(bm_driftless, HALF, SPEC).up_laplace
        assert val == pytest.approx(want, abs=1e-5)

    @pytest.mark.usefixtures("one_pass")
    def test_supremum_dependent_potential_in_range(self, bm_driftless):
        F = BivariatePotential(
            lambda s, x: np.minimum(0.4 * (np.asarray(s) - np.asarray(x)), 2.0),
            bound=2.0, name="reflected",
        )
        val = evaluate_exit(bm_driftless, F, SPEC).up_laplace
        assert 0.0 < val < 0.5

    @pytest.mark.usefixtures("one_pass")
    def test_damping_monotonicity(self, bm_driftless):
        quarter = BivariatePotential(lambda s, x: 0.25 + 0.0 * s, bound=0.25, name="q")
        v0, v1, v2 = (
            evaluate_exit(bm_driftless, F, SPEC).up_laplace
            for F in (ZERO, quarter, HALF)
        )
        assert v0 > v1 > v2


class TestExitDown:
    @pytest.mark.usefixtures("one_pass")
    def test_zero_potential_unit_weight(self, bm_driftless):
        val = evaluate_exit(bm_driftless, ZERO, SPEC).down_value
        assert val == pytest.approx(0.5, abs=1e-9)

    @pytest.mark.usefixtures("one_pass")
    def test_supremum_at_ruin_identity(self, bm_driftless):
        # E[S_T; down] for driftless unit BM: int z (x/z)(1/z) dz = x ln(a/x)
        val = evaluate_exit(
            bm_driftless, ZERO, SPEC, g=lambda z: np.asarray(z)
        ).down_value
        assert val == pytest.approx(0.5 * math.log(2.0), abs=1e-9)

    def test_constant_potential_csch_integral(self, bm_driftless):
        # sinh(0.5) * (coth(0.5) - coth(1)), which also equals the classical
        # down identity at q = 0.5
        want = math.sinh(0.5) * (1.0 / math.tanh(0.5) - 1.0 / math.tanh(1.0))
        got = evaluate_exit(bm_driftless, HALF, SPEC).down_value
        assert got == pytest.approx(want, abs=1e-5)
        assert got == pytest.approx(
            classical_exit_down(bm_driftless, 0.5, 0.0, 0.5, 1.0), abs=1e-5
        )


class TestJumpFamilyExactExit:
    def test_constant_potential_is_classical_identity(self, jd_drifting):
        # a constant killing rate q is the classical discounted exit problem,
        # so the refined generalized values must reproduce the partial-fraction
        # W^{(q)}/Z^{(q)} identities
        q, spec = 0.5, ExitSpec(0.0, 0.5, 2.0)
        res = evaluate_exit(jd_drifting, parse_bivariate("const:0.5", spec.a - spec.b), spec)
        assert res.diagnostics["converged"]
        ratio = partial_fraction_w(jd_drifting, q, 0.5) / partial_fraction_w(jd_drifting, q, 2.0)
        z_a = partial_fraction_z(jd_drifting, q, 2.0)
        down = partial_fraction_z(jd_drifting, q, 0.5) - z_a * ratio
        assert res.up_laplace == pytest.approx(ratio, rel=1e-6)
        assert res.down_value == pytest.approx(down, rel=1e-6)


class TestLevelPotentialExactExit:
    def test_default_exit_lands_on_the_closed_form(self, bm_driftless):
        # c 1{x > r} is discontinuous at r; the default refinement must still
        # converge onto the closed form of the weighted scale functions
        spec = ExitSpec(0.0, 0.5, 2.0)
        res = evaluate_exit(bm_driftless, parse_bivariate("level:1,0.6", 2.0), spec)
        up, down = level_exit_bm(1.0, 0.6, spec.x, spec.a)
        assert res.diagnostics["converged"]
        assert res.up_laplace == pytest.approx(up, rel=1e-6)
        assert res.down_value == pytest.approx(down, rel=1e-6)


class TestOneMarchPerGrid:
    def test_one_frozen_solve_per_grid_level(self, bm_driftless, monkeypatch):
        # every outer node of a grid is marched in the one solve
        calls = []

        def counted(*args):
            calls.append(args[3].size)
            return volterra.solve_w_z_f(*args)

        monkeypatch.setattr(generalized, "solve_w_z_f", counted)
        spec = ExitSpec(0.0, 0.5, 2.0)
        res = evaluate_exit(bm_driftless, parse_bivariate("const:0.5", 2.0), spec)
        assert res.diagnostics["refinement_levels"] == 1
        assert calls == [129, 257]

    def test_grid_memory_does_not_grow_with_the_lattice(self):
        # 257 rows of 16385 nodes would take 34 MB per lattice-sized array
        model, F = make_brownian(0.0, 1.0), parse_bivariate("reflected:0.5", 2.0)
        nodes = np.linspace(0.5, 2.0, 257)
        tracemalloc.start()
        try:
            generalized._functional_grids(model, F, 0.0, nodes, 16384)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20


class TestSupremumLaw:
    def test_density_hand_value(self, bm_driftless):
        assert supremum_density(bm_driftless, SPEC, 0.8) == pytest.approx(1.5625)

    def test_conditional_density_normalizes(self, bm_driftless):
        total, _ = quad(
            lambda z: supremum_density(bm_driftless, SPEC, z), 0.5, 1.0 - 1e-12,
            epsabs=1e-12, epsrel=0,
        )
        assert total == pytest.approx(1.0, abs=1e-8)

    def test_unconditional_mass(self, bm_driftless):
        p_down = 1.0 - supremum_atom(bm_driftless, SPEC)
        total, _ = quad(
            lambda z: supremum_density(bm_driftless, SPEC, z), 0.5, 1.0 - 1e-12,
            epsabs=1e-12, epsrel=0,
        )
        assert total * p_down + supremum_atom(bm_driftless, SPEC) == pytest.approx(
            1.0, abs=1e-10
        )

    @pytest.mark.parametrize("lo,hi", [(0.5, 0.6), (0.7, 0.9), (0.9, 1.0)])
    def test_bin_mass_is_the_integral_of_the_density(self, bm_driftless, lo, hi):
        # driftless W(v) = 2v: the mass is x (1/lo - 1/hi)
        p_down = 1.0 - supremum_atom(bm_driftless, SPEC)
        total, _ = quad(lambda z: supremum_density(bm_driftless, SPEC, z), lo,
                        min(hi, 1.0 - 1e-12), epsabs=1e-12, epsrel=0)
        mass = supremum_mass(bm_driftless, SPEC, lo, hi)
        assert mass == pytest.approx(0.5 * (1.0 / lo - 1.0 / hi), rel=1e-12)
        assert mass == pytest.approx(total * p_down, abs=1e-10)

    @pytest.mark.parametrize("lo,hi", [(0.3, 0.6), (0.6, 0.6), (0.7, 1.1)])
    def test_bin_mass_domain_validation(self, bm_driftless, lo, hi):
        with pytest.raises(ValueError, match="supremum_mass"):
            supremum_mass(bm_driftless, SPEC, lo, hi)

    def test_domain_validation(self, bm_driftless):
        with pytest.raises(ValueError):
            supremum_density(bm_driftless, SPEC, 1.0)
        with pytest.raises(ValueError):
            supremum_density(bm_driftless, SPEC, 0.3)


class TestConditionalLaplace:
    def test_zero_potential_everywhere_one(self, bm_driftless):
        _, curve = conditional_curve(bm_driftless, ZERO, SPEC)
        assert curve == pytest.approx(np.ones_like(curve), abs=1e-9)

    @pytest.mark.parametrize("n_outer,n_inner", [(129, 1024), (33, 512)])
    def test_constant_potential_closed_form(self, bm_driftless, n_outer, n_inner):
        # driftless unit BM at F = 1/2: iota(s) = coth(s) - 1/s, kappa(z) =
        # 1/sinh(z) and W'/W = 1/z, so below a the value is
        # z^2 sinh(x) / (x sinh(z)^2); at a it is (a sinh(x)) / (x sinh(a))
        nodes, curve = conditional_curve(
            bm_driftless, HALF, SPEC, n_outer=n_outer, n_inner=n_inner
        )
        z = nodes[:-1]
        below = z**2 * math.sinh(0.5) / (0.5 * np.sinh(z) ** 2)
        assert curve[:-1] == pytest.approx(below, rel=1e-6)
        assert curve[-1] == pytest.approx(2.0 * math.sinh(0.5) / math.sinh(1.0), rel=1e-6)

    def test_law_of_total_expectation(self, bm_driftless):
        # the conditional value jumps at z = a: the down-branch limit keeps
        # the terminal-excursion factor, the atom does not.  The density
        # integral runs over down-exits, so it takes the down-branch limit.
        nodes, curve = conditional_curve(bm_driftless, HALF, SPEC)
        down_curve = curve.copy()
        down_curve[-1] = (
            curve[-1]
            * kappa(bm_driftless, HALF, SPEC.b, SPEC.a, 1024)
            / n_height_tail(bm_driftless, SPEC.a - SPEC.b)
        )
        dens = np.array(
            [supremum_density(bm_driftless, SPEC, float(z)) for z in nodes[:-1]]
        )
        dens = np.append(dens, supremum_density(bm_driftless, SPEC, nodes[-1] - 1e-9))
        p_up = supremum_atom(bm_driftless, SPEC)
        lhs = (1.0 - p_up) * composite_simpson(down_curve * dens, nodes[1] - nodes[0])
        lhs += p_up * curve[-1]
        res = evaluate_exit(bm_driftless, HALF, SPEC)
        rhs = res.up_laplace + res.down_value
        assert lhs == pytest.approx(rhs, abs=1e-5)


class TestRepresentationInvariant:
    def test_two_quadratures_of_the_level_integral_agree(self, bm_driftless):
        # the construction defines Wf through exp(int iota); two Richardson
        # refined quadratures of that exponent must agree to 1e-8
        def level_integral(n_outer, n_inner):
            nodes = np.linspace(0.0, 1.0, n_outer)
            h = nodes[1] - nodes[0]
            vals = np.zeros(n_outer)
            for j, s in enumerate(nodes):
                if j == 0:
                    continue
                coarse = iota(bm_driftless, HALF, 0.0, float(s), n_inner)
                fine = iota(bm_driftless, HALF, 0.0, float(s), 2 * n_inner)
                # second-order scheme on a smooth potential
                vals[j] = (4.0 * fine - coarse) / 3.0
            return composite_simpson(vals, h)

        i_a = level_integral(65, 512)
        i_b = level_integral(97, 768)
        product = math.exp(i_a - i_b)
        assert abs(product - 1.0) < 1e-8


class TestRouteConstancy:
    def test_step_potential_ratio_is_constant(self, bm_driftless):
        ratios = route_constancy_ratios(bm_driftless)
        cv = ratios.std() / ratios.mean()
        assert cv < 1e-5


class TestLocalTime:
    def test_zero_potential(self, bm_driftless):
        f0 = BivariatePotential(lambda s, x: 0.0 * x, bound=0.0, name="zero", reads_sup=False)
        value, diagnostics = local_time_laplace(bm_driftless, f0, SPEC)
        assert value == pytest.approx(1.0, abs=1e-9)
        assert diagnostics["converged"]

    def test_constant_potential_matches_classical_sum(self, bm_driftless):
        fh = BivariatePotential(lambda s, x: 0.5 + 0.0 * x, bound=0.5, name="half",
                                reads_sup=False)
        val, _ = local_time_laplace(bm_driftless, fh, SPEC)
        want = 2.0 * math.sinh(0.5) / math.sinh(1.0)
        assert val == pytest.approx(want, abs=1e-5)
        classical = classical_exit_up(
            bm_driftless, 0.5, 0.0, 0.5, 1.0
        ) + classical_exit_down(bm_driftless, 0.5, 0.0, 0.5, 1.0)
        assert val == pytest.approx(classical, abs=1e-5)

    def test_grid_arguments_reach_the_solve(self, bm_driftless):
        step = BivariatePotential(lambda s, x: 0.5 * (x > 0.7), bound=0.5, name="step",
                                  reads_sup=False)
        val, diagnostics = local_time_laplace(bm_driftless, step, SPEC, n_outer=9, n_inner=32)
        res = evaluate_exit(bm_driftless, step, SPEC, n_outer=9, n_inner=32)
        assert val == res.up_laplace + res.down_value
        assert diagnostics == res.diagnostics

    @pytest.mark.parametrize("spec", ["reflected:0.5", "indicator:1,0.3"])
    def test_a_potential_that_reads_the_supremum_is_rejected(self, bm_driftless, spec):
        F = parse_bivariate(spec, SPEC.a - SPEC.b)
        with pytest.raises(ValueError, match="reads the supremum"):
            local_time_laplace(bm_driftless, F, SPEC, n_outer=9, n_inner=32)


class TestDiagnostics:
    def test_refinement_reports_convergence(self, bm_driftless):
        res = evaluate_exit(bm_driftless, HALF, SPEC)
        assert res.diagnostics["converged"]
        assert res.diagnostics["refinement_levels"] >= 1
        assert res.iota_grid.shape[1] == 2
        assert res.kappa_grid.shape == res.iota_grid.shape

    @pytest.mark.usefixtures("one_pass")
    def test_json_round_trip(self, bm_driftless):
        res = evaluate_exit(bm_driftless, ZERO, SPEC)
        doc = res.to_json_dict()
        assert doc["up_laplace"] == res.up_laplace
        # a pass that was never compared with a finer one has not converged
        assert (doc["diagnostics"]["refinement_levels"], doc["diagnostics"]["converged"]) == (
            0, False)
        assert len(doc["iota"]) == res.iota_grid.shape[0]


# evaluate_exit at 9/32 without refinement, on b=0, x=0.5, a=1:
# (up_laplace, down_value, iota on the outer grid, kappa on the outer grid).
# Each node's iota and kappa come from its own frozen solve on [b, s], the
# two nodes nearest the barrier included; the level rows read iota = 0 there,
# below the threshold r.
GOLDEN_MODELS = {"bm": make_brownian(0.3, 1.0), "jd": make_exp_jump_diffusion(2.0, 1.0, 1.0, 0.5)}
EXIT_GOLDEN = {
    ("bm", "const:0.5"): (
        0.5098222715139679, 0.37776170059428094,
        [0.1635575876077051, 0.18307934720436414, 0.20229148865344615, 0.22116806566379776,
         0.23968545549860942, 0.2578224377410129, 0.27556024085559694, 0.29288255785321915,
         0.3097755329372056],
        [1.6457193367273666, 1.4188308613788694, 1.236873041498955, 1.0877219602557882,
         0.9632916699039141, 0.8579803420545293, 0.7677824383005161, 0.6897560967569083,
         0.6216903302011564]),
    ("bm", "reflected:0.5"): (
        0.5611169434840888, 0.41006579414078514,
        [0.020615540741366623, 0.026005352057636433, 0.03197843870349826,
         0.03851388733220462, 0.045587345109253, 0.05317099855442142, 0.06123363324525832,
         0.06974077814569113, 0.07865493548834501],
        [1.6972888920486284, 1.4727483950280007, 1.292348493209638, 1.144012663526486,
         1.0197060641337279, 0.9138812922837694, 0.8225900622431439, 0.7429500102025163,
         0.6728112363515538]),
    ("bm", "level:1,0.6"): (
        0.5117117085188112, 0.408396256710995,
        [0.0, 0.0, 0.05613708384449856, 0.1665872185897388, 0.24363058416839767,
         0.31887688208222487, 0.3900947086505572, 0.43674207891502237, 0.48210512142988327],
        [1.7149775481060494, 1.4946208282819686, 1.317732612968157, 1.1653609046330708,
         1.0350770684548978, 0.9197590737787982, 0.8160769491990179, 0.7308603381256692,
         0.654721373972824]),
    ("jd", "const:0.5"): (
        0.7351931376469951, 0.17989747945725598,
        [0.14105176418016108, 0.15316029522454844, 0.16407077153097538, 0.17388766580002518,
         0.18272236490098953, 0.19068576289985734, 0.1978831919329505, 0.20441132127059664,
         0.21035659077742094],
        [0.7853762010673451, 0.6352790107876384, 0.5236317443427063, 0.43863081372787055,
         0.3725710132877332, 0.3202649072163635, 0.2781337880461132, 0.24365912058321193,
         0.21503843242730997]),
    ("jd", "reflected:0.5"): (
        0.792746154205696, 0.19104805771515104,
        [0.01642032608436028, 0.019739977220586735, 0.02310070863240421,
         0.026458994183555018, 0.029783075723152697, 0.03305126333409569,
         0.036249974820286246, 0.03937178512951822, 0.042413659120320774],
        [0.8052157279842743, 0.6537631467691133, 0.54066615363434, 0.4542061488992018,
         0.38673207200541093, 0.3330880919609818, 0.28971134514366387, 0.25408864430786743,
         0.2244162818983212]),
    ("jd", "level:1,0.6"): (
        0.7320429863135992, 0.18919651682825891,
        [0.0, 0.0, 0.054852530803741306, 0.15328521245658883, 0.21388802745384533,
         0.2664530775443636, 0.31022415518716046, 0.3352767374222839, 0.3574636699898869],
        [0.8117787164811398, 0.6609100808577761, 0.5478829843747036, 0.4587419160131881,
         0.38849724015587206, 0.33173093196219156, 0.28527716264813374, 0.24851339307650247,
         0.2178809280181656]),
}


@pytest.mark.usefixtures("one_pass")
@pytest.mark.parametrize("model_name", sorted(GOLDEN_MODELS))
def test_golden_iota_is_solved_at_the_barrier_nodes(model_name):
    # the two nodes nearest b carry only the march's own error
    model = GOLDEN_MODELS[model_name]
    spec = ExitSpec(0.0, 0.5, 1.0)
    res = evaluate_exit(
        model, parse_bivariate("const:0.5", 1.0), spec, n_outer=9, n_inner=32
    )
    near = res.iota_grid[:2]
    want = [constant_iota_mpmath(model, 0.5, s - spec.b) for s in near[:, 0]]
    assert near[:, 1] == pytest.approx(want, rel=1.5e-3, abs=0.0)


def test_exit_spec_rejects_an_infinite_barrier():
    # an infinite a makes the default time cap infinite, so no path is censored
    with pytest.raises(ValueError, match="finite"):
        ExitSpec(0.0, 0.5, math.inf)


@pytest.mark.usefixtures("one_pass")
@pytest.mark.parametrize("case", sorted(EXIT_GOLDEN), ids=lambda c: f"{c[0]}-{c[1]}")
def test_exit_values_are_pinned(case):
    model_name, pot = case
    up, down, iotas, kappas = EXIT_GOLDEN[case]
    spec = ExitSpec(0.0, 0.5, 1.0)
    F = parse_bivariate(pot, spec.a - spec.b)
    res = evaluate_exit(GOLDEN_MODELS[model_name], F, spec, n_outer=9, n_inner=32)
    assert res.up_laplace == pytest.approx(up, rel=1e-12)
    assert res.down_value == pytest.approx(down, rel=1e-12)
    assert res.iota_grid[:, 0] == pytest.approx(np.linspace(0.5, 1.0, 9), rel=1e-15)
    assert res.iota_grid[:, 1] == pytest.approx(iotas, rel=1e-12)
    assert res.kappa_grid[:, 1] == pytest.approx(kappas, rel=1e-12)


@pytest.mark.parametrize("case", sorted(EXIT_GOLDEN), ids=lambda c: f"{c[0]}-{c[1]}")
def test_grid_values_equal_the_pointwise_routes(case):
    # W(s-b) and W'(s-b)/W(s-b) come from one array evaluation over the grid,
    # bit for bit the scalar values; iota(s) and kappa(s) are the grid's at s
    model_name, pot = case
    model, spec = GOLDEN_MODELS[model_name], ExitSpec(0.0, 0.5, 1.0)
    F = parse_bivariate(pot, spec.a - spec.b)
    nodes = np.linspace(spec.x, spec.a, 9)
    iotas, kappas, w0, tails = generalized._functional_grids(model, F, spec.b, nodes, 32)
    assert w0.tolist() == [wq(model, 0.0, s - spec.b) for s in nodes]
    assert tails.tolist() == [n_height_tail(model, s - spec.b) for s in nodes]
    assert iotas.tolist() == [iota(model, F, spec.b, s, 32) for s in nodes]
    assert kappas.tolist() == [kappa(model, F, spec.b, s, 32) for s in nodes]

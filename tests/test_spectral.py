"""Kernel symbols, pole search, and strip-sampled symbol bounds."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from fput_fronts.errors import ConfigError, PoleProximityError, PoleSearchError
from fput_fronts.spectral import (
    denominator_D,
    find_pole,
    pole_expansion_fit,
    residue_symbol,
    sinc2,
    symbol_a,
    symbol_a_mu,
    tent_symbol,
    verify_symbol_bounds,
)
from oracles import kernel_physical

# Tail rate and residue amplitude at the kernel pole, computed to 50 digits
# with an independent real root solve of the dispersion relation
# (m + p) * (sinh(e m / 2) / (e m / 2))^2 = 1 (p < 1; p - m in place of
# m + p for p > 1).
POLE_ORACLE = {
    (0.0, 0.2): ("0.9966952306730606608409", "0.9934252197812850188654"),
    (0.0, 0.1): ("0.9991684670966759922956", "0.9983391437788651871932"),
    (0.0, 0.05): ("0.9997917794336072883855", "0.9995836975579326437243"),
    (1.5, 0.2): ("0.5008357020424195405707", "1.003346719778044618078"),
    (1.5, 0.1): ("0.5002084810212003035487", "1.000834167494170594309"),
    (1.5, 0.05): ("0.5000520925582728110512", "1.000208385429587221926"),
    (2.0, 0.2): ("1.003348951420630997049", "1.00670680351271990107"),
    (2.0, 0.1): ("1.000834306531471677448", "1.001669168813380112104"),
    (2.0, 0.05): ("1.00020839411246638075", "1.000416822950241431735"),
    (3.0, 0.2): ("2.013403795422884442554", "1.01338388825929128248"),
    (3.0, 0.1): ("2.0033377679019024903", "1.00333662406850919495"),
    (3.0, 0.05): ("2.000833610957826758394", "1.000833541004236925365"),
}


class TestSinc2:
    def test_at_zero(self):
        assert sinc2(0.0) == 1.0

    def test_known_values(self):
        assert sinc2(np.pi / 2) == pytest.approx(4.0 / np.pi**2, rel=1e-14)
        assert sinc2(np.pi) == pytest.approx(0.0, abs=1e-30)

    def test_branch_seam(self):
        for u in (9.99e-3, 1.0e-2, 1.001e-2):
            direct = (np.sin(u) / u) ** 2
            assert sinc2(u) == pytest.approx(direct, rel=1e-13)

    def test_complex_argument(self):
        u = 0.3 + 0.2j
        assert sinc2(u) == pytest.approx((np.sin(u) / u) ** 2, rel=1e-14)

    @given(st.floats(-50.0, 50.0))
    def test_even_and_bounded(self, u):
        v = sinc2(u)
        assert v == sinc2(-u)
        assert -1e-15 <= v <= 1.0 + 1e-15


class TestTentSymbol:
    def test_half_angle_identity(self):
        """sinc^2(u) = (1 - cos 2u) / (2 u^2), the raw tent transform."""
        k = np.linspace(0.3, 60.0, 500)
        for eps in (0.05, 0.2, 0.5):
            u = eps * np.pi * k
            direct = (1.0 - np.cos(2.0 * u)) / (2.0 * u * u)
            assert np.max(np.abs(tent_symbol(eps, k) - direct)) <= 1e-14

    def test_unit_mass(self):
        assert tent_symbol(0.3, 0.0) == 1.0


class TestLimitSymbol:
    def test_against_quadrature(self):
        """symbol_a at eps = 0 equals the transform of exp(-x) on x >= 0."""
        for k in (0.11, 0.37, 2.5):
            w = 2 * np.pi * k
            re, _ = quad(lambda x: np.exp(-x), 0, np.inf, weight="cos", wvar=w)
            im, _ = quad(lambda x: np.exp(-x), 0, np.inf, weight="sin", wvar=w)
            val = symbol_a(0.0, k)
            assert val.real == pytest.approx(re, abs=1e-12)
            assert val.imag == pytest.approx(-im, abs=1e-12)
        # sinc2(0) is exactly 1, so on grid frequencies it is the closed form
        k = np.fft.rfftfreq(4096, d=80.0 / 4096)
        assert np.array_equal(symbol_a(0.0, k), 1.0 / (1.0 + 2j * np.pi * k))


class TestKernelSymbol:
    def test_matches_rescaled_quotient(self):
        """T/(1 - mu T + 2 pi i k T) equals eps sin^2(z)/D(z) at z = eps pi k."""
        rng = np.random.default_rng(7)
        k = rng.uniform(-30, 30, 300) + 1j * rng.uniform(-0.05, 0.05, 300)
        for eps, mu in ((0.1, 0.0), (0.2, 1.5), (0.4, 2.0)):
            z = eps * np.pi * k
            D, _ = denominator_D(eps, mu, z)
            direct = eps * np.sin(z) ** 2 / D
            assert np.max(np.abs(symbol_a_mu(eps, mu, k) - direct)) <= 1e-14

    def test_value_at_origin(self):
        assert symbol_a(0.2, 0.0) == pytest.approx(1.0, abs=1e-15)
        assert abs(symbol_a_mu(0.2, 2.0, 0.0)) == pytest.approx(1.0, rel=1e-14)
        assert symbol_a_mu(0.2, 1.5, 0.0) == pytest.approx(-2.0, rel=1e-14)

    def test_mu_zero_is_solver_kernel(self):
        k = np.linspace(-5, 5, 101)
        assert np.array_equal(symbol_a(0.1, k), symbol_a_mu(0.1, 0.0, k))

    @settings(max_examples=200)
    @given(st.floats(1e-3, 10.0), st.floats(0.02, 0.5))
    def test_hermitian_symmetry(self, k, eps):
        v_pos = symbol_a(eps, k)
        v_neg = symbol_a(eps, -k)
        assert v_neg == pytest.approx(np.conj(v_pos), rel=1e-14)

    def test_pole_proximity_guard(self):
        pole = find_pole(0.2, 0.0)
        with pytest.raises(PoleProximityError):
            symbol_a(0.2, pole.z / (0.2 * np.pi))


class TestFindPole:
    @pytest.mark.parametrize("p,eps", sorted(POLE_ORACLE))
    def test_against_dispersion_oracle(self, p, eps):
        pole = find_pole(eps, p)
        rate_ref, nu_ref = (float(v) for v in POLE_ORACLE[(p, eps)])
        assert pole.mu_rate == pytest.approx(rate_ref, rel=1e-12)
        assert pole.nu == pytest.approx(nu_ref, rel=1e-12)

    @pytest.mark.parametrize("p,eps", sorted(POLE_ORACLE))
    def test_contract(self, p, eps):
        pole = find_pole(eps, p)
        D, _ = denominator_D(eps, p, pole.z)
        assert abs(D) <= 1e-13
        assert abs(pole.z.real) <= 1e-12 * abs(pole.z)
        assert abs(pole.z) < 0.9 * np.pi
        assert pole.mu_rate > 0
        assert pole.nu > 0
        assert pole.family == (1 if p < 1 else -1)
        assert (pole.z.imag > 0) == (p < 1)

    def test_matches_corrected_expansions(self):
        """Tail data follows |1-p| -+ eps^2 (1-p)^2/12 and 1 - eps^2 (1-p)/6."""
        eps = 0.1
        for p in (0.0, 1.5, 2.0, 3.0):
            pole = find_pole(eps, p)
            sign = 1.0 if p < 1 else -1.0
            rate_series = abs(1.0 - p) - sign * eps**2 * (1.0 - p) ** 2 / 12.0
            nu_series = 1.0 - eps**2 * (1.0 - p) / 6.0
            assert abs(pole.mu_rate - rate_series) <= 1e-5
            assert abs(pole.nu - nu_series) <= 1e-5

    def test_deterministic(self):
        a = find_pole(0.1, 1.5)
        b = find_pole(0.1, 1.5)
        assert a.z == b.z and a.nu == b.nu and a.mu_rate == b.mu_rate

    def test_validation(self):
        with pytest.raises(ConfigError):
            find_pole(0.0, 0.0)
        with pytest.raises(ConfigError):
            find_pole(1.5, 0.0)
        with pytest.raises(ConfigError):
            find_pole(0.1, 1.0)
        with pytest.raises(ConfigError):
            find_pole(0.1, 4.5)


class TestExpansionFit:
    @pytest.mark.parametrize("p", [0.0, 0.5, 1.5, 2.0, 3.0])
    def test_eps2_coefficients(self, p):
        fit = pole_expansion_fit(p, eps=0.1)
        sign = 1.0 if p < 1 else -1.0
        mu2_ref = -sign * (1.0 - p) ** 2 / 12.0
        nu2_ref = -(1.0 - p) / 6.0
        assert fit["mu2"] == pytest.approx(mu2_ref, rel=1e-4, abs=1e-12)
        assert fit["nu2"] == pytest.approx(nu2_ref, rel=1e-4)


class TestResidue:
    @pytest.mark.parametrize("eps,mu", [(0.1, 0.0), (0.1, 2.0), (0.2, 1.5)])
    def test_near_pole_identity(self, eps, mu):
        """A matches its principal part close to the pole.

        The analytic remainder contributes about 2e-2 * distance in relative
        terms for these parameters, so the 1e-6 target needs distance 1e-5;
        the linear scaling of the defect is checked alongside.
        """
        pole = find_pole(eps, mu)
        defects = {}
        for dist in (1e-4, 1e-5):
            worst = 0.0
            for direction in (1.0, -1.0, 1j, -1j):
                z = pole.z + dist * direction
                A = symbol_a_mu(eps, mu, z / (eps * np.pi))
                B = residue_symbol(pole, z)
                worst = max(worst, abs(A - B) / abs(B))
            defects[dist] = worst
        assert defects[1e-5] <= 1e-6
        ratio = defects[1e-4] / defects[1e-5]
        assert 5.0 <= ratio <= 20.0


class TestKernelPhysical:
    def test_masses(self):
        for eps in (0.1, 0.2):
            ker = kernel_physical(eps)
            assert abs(ker.mass_a - 1.0) <= 1e-8
            assert abs(ker.mass_b) <= 1e-8

    def test_B_vanishes_at_right_end(self):
        ker = kernel_physical(0.2)
        assert ker.B[-1] == 0.0
        assert abs(ker.B[0]) <= 1e-8

    def test_kernel_decays_at_ends(self):
        """End values sit at the band-limitation floor of the kernel corners."""
        ker = kernel_physical(0.1)
        assert abs(ker.a_eps[0]) <= 1e-6
        assert abs(ker.a_eps[-1]) <= 1e-6

    def test_left_side_is_subdominant(self):
        """a_eps has an oscillatory left tail, far below the causal bulk."""
        ker = kernel_physical(0.2)
        x = ker.grid.x
        assert np.max(np.abs(ker.a_eps[x <= -2.0])) <= 5e-4
        assert np.max(np.abs(ker.a_eps[x <= -2.0])) < 1e-3 * np.max(ker.a_eps)
        # the bulk sits right of the tent's reach
        assert np.trapezoid(np.abs(ker.a_eps[x >= -0.2]), dx=ker.grid.h) > 0.95

    def test_nyquist_guard(self):
        with pytest.raises(ConfigError):
            kernel_physical(0.2, L=40.0, N=256)


@pytest.fixture(scope="module")
def bounds_report():
    return verify_symbol_bounds()


class TestSymbolBounds:
    @pytest.fixture()
    def report(self, bounds_report):
        return bounds_report

    def test_sup_difference_order_one(self, report):
        assert 0.9 <= report.order_diff <= 1.1

    def test_weighted_bound_order_half(self, report):
        """The weighted sup obeys C * eps^(1/2) with a small constant.

        Its fitted slope at these eps is about 0.7: the sup is attained near
        the first tent-symbol zero k = 0.95/eps, where the quantity is a
        mixture c1*eps + c2*sqrt(eps), and the sqrt term only dominates for
        much smaller eps.  The clean one-sided bound is what holds here; the
        slope itself must stay at or above the guaranteed rate.
        """
        consts = report.sup_weighted / np.sqrt(np.asarray(report.eps_list))
        assert np.max(consts) <= 0.5
        assert report.order_weighted >= 0.4

    def test_bulk_and_tail_bounded(self, report):
        assert report.bulk_ratios_ok
        assert report.tail_ratios_ok
        for vals in report.bulk.values():
            assert np.all(np.asarray(vals) < 50.0)
        for vals in report.tail.values():
            assert np.all(np.asarray(vals) < 50.0)

    def test_orders_resolved_at_small_eps(self):
        # the weighted-sup peak near k = 0.95/eps is about eps^(-1/2) wide,
        # narrower than the log grid's spacing there once eps ~ 1e-4
        rep = verify_symbol_bounds(eps_list=(2e-4, 1e-4, 5e-5))
        assert 0.9 <= rep.order_diff <= 1.1
        assert 0.4 <= rep.order_weighted <= 0.6

    def test_needs_two_distinct_eps(self):
        with pytest.raises(ConfigError):
            verify_symbol_bounds(eps_list=(0.1, 0.1))

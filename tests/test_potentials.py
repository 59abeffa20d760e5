"""Potential structure, jump constants, and renormalization."""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import polynomial as npoly
from scipy.integrate import quad

from fput_fronts import (
    Potential,
    PotentialError,
    hertz_potential,
    linear_force_potential,
    polynomial_potential,
    quadratic_force_potential,
)
from fput_fronts.potentials import _horner


def chord_area_oracle(pot):
    """Area between the chord of the force law and the force law, by quadrature."""
    a, b = pot.r_plus, pot.r_minus
    dp_a, dp_b = pot.dphi(a), pot.dphi(b)

    def chord_minus_force(r):
        return dp_a + (dp_b - dp_a) * (r - a) / (b - a) - pot.dphi(r)

    val, _ = quad(chord_minus_force, a, b, epsabs=1e-14, epsrel=1e-13, limit=200)
    return val


class TestNormalization:
    def test_quadratic_endpoints(self):
        pot = quadratic_force_potential()
        assert abs(pot.dphi(0.0)) <= 1e-12
        assert abs(pot.dphi(1.0) - 1.0) <= 1e-12
        assert pot.is_normalized

    def test_hertz_endpoints(self):
        pot = hertz_potential()
        assert abs(pot.dphi(0.0)) <= 1e-12
        assert abs(pot.dphi(1.0) - 1.0) <= 1e-12

    def test_phi_vanishes_at_zero(self):
        for pot in (quadratic_force_potential(), hertz_potential(), linear_force_potential()):
            assert pot.phi(0.0) == 0.0

    def test_curvature_limits(self):
        pot = hertz_potential()
        assert pot.p_plus == pytest.approx(0.0, abs=1e-14)
        assert pot.p_minus == pytest.approx(1.5, abs=1e-14)


class TestFrontConstants:
    def test_normalized_unit_speed(self):
        for pot in (quadratic_force_potential(), hertz_potential()):
            fc = pot.front_constants()
            assert abs(fc.speed - 1.0) <= 1e-12
            assert abs(fc.offset) <= 1e-12

    def test_hertz_unnormalized_speed(self):
        fc = hertz_potential(r_minus=4.0).front_constants()
        assert abs(fc.speed - np.sqrt(2.0)) <= 1e-12

    def test_offset_agrees_at_both_ends(self):
        pot = polynomial_potential([0.1, 0.7, 1.3, 0.4], r_plus=0.2, r_minus=1.7)
        fc = pot.front_constants()
        c2 = fc.speed**2
        d_left = pot.dphi(pot.r_minus) - c2 * pot.r_minus
        d_right = pot.dphi(pot.r_plus) - c2 * pot.r_plus
        assert abs(d_left - d_right) <= 1e-12
        assert abs(fc.offset - d_right) <= 1e-12


class TestChordArea:
    def test_frozen_values(self):
        assert quadratic_force_potential().coefficient_A() == pytest.approx(1 / 6, abs=1e-12)
        assert hertz_potential().coefficient_A() == pytest.approx(1 / 10, abs=1e-12)
        assert linear_force_potential().coefficient_A() == pytest.approx(0.0, abs=1e-12)

    def test_matches_quadrature_oracle(self):
        for pot in (
            quadratic_force_potential(),
            hertz_potential(),
            hertz_potential(alpha=1.8, r_minus=2.5),
            polynomial_potential([0.0, 0.5, 0.2, 0.3]),
        ):
            assert pot.coefficient_A() == pytest.approx(chord_area_oracle(pot), abs=1e-12)

    def test_positive_for_strictly_convex(self):
        assert quadratic_force_potential().coefficient_A() > 0
        assert hertz_potential().coefficient_A() > 0


class TestExtension:
    def test_force_is_c1_across_core_ends(self):
        pot = hertz_potential()
        for edge in (0.0, 1.0):
            eps = 1e-7
            jump = pot.dphi(edge + eps) - pot.dphi(edge - eps)
            slope = pot.d2phi(edge)
            assert abs(jump - 2 * eps * slope) <= 1e-9

    def test_constant_curvature_outside(self):
        pot = quadratic_force_potential()
        assert pot.d2phi(-3.0) == pytest.approx(pot.d2phi(0.0), abs=1e-14)
        assert pot.d2phi(5.0) == pytest.approx(pot.d2phi(1.0), abs=1e-14)

    def test_hertz_force_vanishes_below_zero(self):
        pot = hertz_potential()
        assert pot.dphi(-0.5) == 0.0
        assert pot.phi(-0.5) == 0.0

    def test_beyond_the_ends_both_paths_use_the_end_data(self):
        # a core whose array form disagrees with its float form: beyond the
        # core ends both paths evaluate the Taylor data the arrays gave
        def core(r):
            return 3.0 if type(r) is float else np.full(np.shape(r), 5.0)

        pot = Potential(core, core, core)
        r = np.array([-1.0, 0.5, 2.0])
        for f in (pot.phi, pot.dphi, pot.d2phi):
            out = f(r)
            assert out[1] == 5.0
            assert [f(-1.0), f(2.0)] == [out[0], out[2]]

    @pytest.mark.parametrize("alpha", [1.5, 2.0, 3.0])
    def test_hertz_signed_zero_strain_gives_positive_zero(self, alpha):
        # odd integer powers would keep the sign of -0.0 without the
        # core's -0.0 -> +0.0 step
        for pot in (hertz_potential(alpha), hertz_potential(alpha, r_minus=2.0).renormalize()[0]):
            for f in (pot.phi, pot.dphi, pot.d2phi):
                values = [f(-0.0), f(0.0), *f(np.array([-0.0, 0.0]))]
                assert values == [0.0] * 4 and not np.signbit(values).any()


class TestArrayEvaluation:
    @pytest.mark.parametrize("method", ["phi", "dphi", "d2phi"])
    @pytest.mark.parametrize(
        "pot",
        [
            quadratic_force_potential(),
            hertz_potential(),
            # a core that returns a scalar must still give a full-shape array
            Potential(lambda r: 0.5 * r * r, lambda r: r, lambda r: 1.0),
        ],
        ids=["quadratic", "hertz", "scalar-curvature"],
    )
    def test_mixed_array_matches_scalars_bitwise(self, pot, method):
        # below, inside and above the core [0, 1], plus the signed zeros,
        # the core ends, NaN and both infinities
        r = np.array(
            [-np.inf, -3.0, -1e-6, -0.0, 0.0, 0.25, 0.5, 1.0, 1.0 + 1e-6, 2.5, np.inf, np.nan]
        )
        f = getattr(pot, method)
        with np.errstate(invalid="ignore"):
            values = f(r)
            scalars = np.array([f(x) for x in r])
        assert values.shape == r.shape
        assert values.tobytes() == scalars.tobytes()

    @pytest.mark.parametrize("n", [None, 2000, 16383, 32768])
    @pytest.mark.parametrize(
        "method, r",
        [
            # -1e308 and -1.7e308 would overflow the upper side's slope
            # term, and +inf would turn the lower side's zero slope into
            # 0 * inf
            ("dphi", [-1.7e308, -1e308, 0.5, 1.5, np.inf]),
            # r * r overflows on both sides alike, so phi only has +inf
            ("phi", [-1e150, 0.5, 1.5, np.inf]),
        ],
    )
    @pytest.mark.parametrize("make", [quadratic_force_potential, hertz_potential])
    def test_each_side_sees_only_its_own_strains(self, make, method, r, n):
        # each strain takes its own side's coefficients, at every size
        f = getattr(make(), method)
        r = np.resize(r, n or len(r))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = f(r)
            scalars = np.array([f(x) for x in r])
        assert values.tobytes() == scalars.tobytes()


_FORCE_LAWS = {
    "quadratic": quadratic_force_potential,
    "hertz": hertz_potential,
    # odd integer powers keep the sign of a zero: alpha 2 gives d2phi = 2*r,
    # alpha 3 gives dphi = r**3
    "hertz2": lambda: hertz_potential(alpha=2.0),
    "hertz3": lambda: hertz_potential(alpha=3.0, r_minus=0.7),
    "degree4": lambda: polynomial_potential(
        [0.1, 0.7, 1.3, 0.4, 0.2], r_plus=0.2, r_minus=1.7
    ),
}


class TestScalarPath:
    """Floats, numpy scalars and 0-d arrays give what the array path gives."""

    @staticmethod
    def probe(pot):
        a, b = pot.r_plus, pot.r_minus
        ends = [a, b, 0.0, -0.0]
        neighbours = [np.nextafter(e, d) for e in ends for d in (-np.inf, np.inf)]
        # enough interior points that a last-bit difference in pow shows
        inside = np.linspace(a, b, 201)[1:-1]
        outside = [a - 1.5, b + 2.0, -np.inf, np.inf, np.nan]
        return np.concatenate([ends, neighbours, inside, outside])

    @pytest.mark.parametrize("method", ["phi", "dphi", "d2phi"])
    @pytest.mark.parametrize("norm", [False, True], ids=["raw", "renormalized"])
    @pytest.mark.parametrize("name", list(_FORCE_LAWS))
    def test_scalars_match_array_bitwise(self, name, norm, method):
        pot = _FORCE_LAWS[name]()
        if norm:
            pot = pot.renormalize()[0]
        r = self.probe(pot)
        f = getattr(pot, method)
        with np.errstate(invalid="ignore"):
            values = f(r)
            for kind in (float, np.float64, np.array):
                scalars = [f(kind(x)) for x in r]
                assert all(type(v) is float for v in scalars)
                assert np.array(scalars).tobytes() == values.tobytes(), kind

    @staticmethod
    def large_probe(pot, n):
        """n strains: both sides of the core, its ends, ±0.0, NaN and ±inf.

        The special values sit at both ends of the array and in its middle,
        where vector loops take their edges.
        """
        a, b = pot.r_plus, pot.r_minus
        w = b - a
        rng = np.random.default_rng(0)
        special = [a, b, 0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf]
        special += [np.nextafter(e, t) for e in (a, b) for t in (-np.inf, np.inf)]
        body = np.concatenate(
            [
                rng.uniform(a - 2.0 * w, b + 2.0 * w, n // 2),
                a + 1e-6 * w * rng.uniform(-1.0, 1.0, n // 8),
                b + 1e-6 * w * rng.uniform(-1.0, 1.0, n // 8),
            ]
        )
        body = np.concatenate([body, rng.uniform(a, b, n - 3 * len(special) - body.size)])
        rng.shuffle(body)
        half = body.size // 2
        return np.concatenate([special, body[:half], special, body[half:], special])

    # a lattice field (M = 2000), 16383 points, and 32768 points (256 KiB,
    # above the 200 KB of the front solver's N = 25600 grids): one path
    @pytest.mark.parametrize("n", [2000, 16383, 32768])
    @pytest.mark.parametrize("norm", [False, True], ids=["raw", "renormalized"])
    @pytest.mark.parametrize("name", list(_FORCE_LAWS))
    def test_large_array_matches_floats_bitwise(self, name, norm, n):
        pot = _FORCE_LAWS[name]()
        if norm:
            pot = pot.renormalize()[0]
        r = self.large_probe(pot, n)
        assert r.size == n
        points = r.tolist()
        for method in ("phi", "dphi", "d2phi"):
            f = getattr(pot, method)
            with np.errstate(invalid="ignore", over="ignore", under="ignore"):
                values = f(r)
                scalars = np.array([f(x) for x in points])
            assert values.tobytes() == scalars.tobytes(), method

    @staticmethod
    def gap_reference(pot, d):
        """dphi(r_minus) - dphi(r_minus - d) by its three cases, forces from arrays."""
        if d < 0.0:
            return pot.p_minus * d
        if d > pot.r_minus - pot.r_plus:
            force = pot.dphi(np.array([pot.r_minus, pot.r_minus - d]))
            return float(force[0] - force[1])
        return float(pot.gap_core(d))

    @pytest.mark.parametrize("norm", [False, True], ids=["raw", "renormalized"])
    @pytest.mark.parametrize(
        "name", [n for n, make in _FORCE_LAWS.items() if make().gap_core is not None]
    )
    def test_gap_force_on_floats(self, name, norm):
        pot = _FORCE_LAWS[name]()
        if norm:
            pot = pot.renormalize()[0]
        span = pot.r_minus - pot.r_plus
        # above the core (d < 0), the signed zeros, the span end and below
        # the core (d > span), with the neighbours of each boundary
        edges = [-0.0, 0.0, span]
        neighbours = [np.nextafter(e, t) for e in edges for t in (-np.inf, np.inf)]
        outside = [-5e-324, -1e-3, -0.5, span + 1e-3, span + 2.0]
        inside = np.linspace(0.0, span, 41)[1:-1]
        d = np.concatenate([edges, neighbours, outside, inside])
        want = np.array([self.gap_reference(pot, x) for x in d.tolist()])
        got = [pot.gap_force(x) for x in d.tolist()]
        assert all(type(v) is float for v in got)
        assert np.array(got).tobytes() == want.tobytes()


class TestHorner:
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_polyval_bitwise(self, seed):
        rng = np.random.default_rng(seed)
        c = rng.normal(size=seed + 1)
        c[rng.random(c.size) < 0.3] = -0.0  # signed zero coefficients
        x = np.concatenate(
            [
                rng.normal(scale=3.0, size=500),
                [0.0, -0.0, np.nan, -np.nan, 1e300, -1e300, np.inf, -np.inf],
            ]
        )
        x_before = x.copy()
        with np.errstate(invalid="ignore", over="ignore"):
            ref = npoly.polyval(x, c)
            out = _horner(tuple(map(float, c)), x)
            scalars = np.array([_horner(tuple(map(float, c)), float(v)) for v in x])
        # arrays and floats agree everywhere, +-inf included
        assert scalars.tobytes() == out.tobytes()
        # polyval's bits at every strain a core gets: finite, +-0.0 and NaN
        core = ~np.isinf(x)
        assert out[core].tobytes() == ref[core].tobytes()
        # at +-inf polyval gives NaN; _horner gives NaN for a constant or a
        # zero leading coefficient, else the leading term's signed inf
        deg = c.size - 1
        for v, y in zip(x[~core], out[~core]):
            if deg == 0 or c[-1] == 0.0:
                assert np.isnan(y)
            else:
                assert y == np.copysign(np.inf, c[-1] * np.sign(v) ** deg)
        assert x.tobytes() == x_before.tobytes()


class TestCoreOutput:
    @pytest.mark.parametrize(
        "lo, r",
        [
            # all inside [-1, 1], -0.0 included
            (-1.0, [-0.0, 0.0, 0.5, -0.5, 1.0, np.nextafter(-1.0, 0.0)]),
            # -0.0 and 0.0 at the end r_plus = 0
            (0.0, [-0.0, 0.0, 0.5, 1.0, 5e-324]),
        ],
    )
    def test_identity_core_returns_fresh_clip_result(self, lo, r):
        r = np.array(r)
        pot = Potential(lambda x: x, lambda x: x, lambda x: x, r_plus=lo, r_minus=1.0)
        for f in (pot.phi, pot.dphi, pot.d2phi):
            out = f(r)
            assert not np.shares_memory(out, r)
            assert out.tobytes() == np.clip(r, lo, 1.0).tobytes()
            assert np.array([f(float(x)) for x in r]).tobytes() == out.tobytes()

    @pytest.mark.parametrize(
        "coeffs",
        [
            [0.0, 0.0, 1.0],
            [-0.0, 0.5, -0.0],
            [0.25, -0.0, 2.0, -0.0],
            [1.0, -0.0, 0.0],
            [0.0, -0.0],
            [-0.0, -0.0],
            [-0.0, -0.0, -0.0],
            [-0.0],
            [0.0],
            [0.5],
        ],
    )
    @pytest.mark.parametrize("lo", [-1.0, 0.0])
    def test_polynomial_cores_are_polyval(self, coeffs, lo):
        # at core strains, +-0.0 and NaN each law is polyval's of its own
        # coefficients, bit for bit, on arrays and on floats; leading and
        # inner signed-zero coefficients included
        c = np.array(coeffs)
        laws = {
            "phi": npoly.polyint(c),
            "dphi": c,
            "d2phi": npoly.polyder(c) if c.size > 1 else np.zeros(1),
        }
        rng = np.random.default_rng(len(coeffs))
        r = np.concatenate(
            [
                [lo, -0.0, 0.0, 5e-324, -5e-324, 0.5, np.nextafter(1.0, 0.0), 1.0, np.nan, -np.nan],
                rng.uniform(lo, 1.0, 200),
            ]
        )
        if lo == 0.0:
            r = r[~(r < 0.0)]
        pot = polynomial_potential(coeffs, r_plus=lo, r_minus=1.0)
        for name, law in laws.items():
            f = getattr(pot, name)
            ref = npoly.polyval(r, law)
            assert f(r).tobytes() == ref.tobytes(), name
            assert np.array([f(float(x)) for x in r]).tobytes() == ref.tobytes(), name

    @pytest.mark.parametrize(
        "core",
        [
            lambda x: x,
            lambda x: np.asarray(x)[...],
            lambda x: np.broadcast_to(np.asarray(x, dtype=float), np.shape(x)),
        ],
        ids=["identity", "view", "read-only"],
    )
    def test_extension_leaves_the_strains_alone(self, core):
        # the core's output may be the clip result, a view of it or
        # read-only: the extension goes into an array of the call's own
        r = np.array([-2.0, -1e-6, -0.0, 0.0, 0.5, 1.0, 1.0 + 1e-6, 3.0, np.inf, -np.inf, np.nan])
        r_before = r.tobytes()
        pot = Potential(core, core, core, r_plus=0.0, r_minus=1.0)
        for f in (pot.phi, pot.dphi, pot.d2phi):
            # zero curvature times an infinite distance is NaN on both paths
            with np.errstate(invalid="ignore"):
                out = f(r)
                scalars = np.array([f(float(x)) for x in r])
            assert not np.shares_memory(out, r)
            assert out.flags.writeable
            assert r.tobytes() == r_before
            assert scalars.tobytes() == out.tobytes()

    def test_extension_leaves_a_cached_core_output_alone(self):
        # a core that hands out an array it keeps (a memo, a table) must
        # find it as it was on the next call
        cache = {}

        def core(x):
            if type(x) is float:
                return 0.5 * x
            return cache.setdefault(x.size, 0.5 * x)

        r = np.array([-2.0, 0.25, 0.5, 3.0])
        pot = Potential(core, core, core, r_plus=0.0, r_minus=1.0)
        for f in (pot.phi, pot.dphi, pot.d2phi):
            cache.clear()
            first = f(r)
            kept = cache[r.size].copy()
            assert f(r).tobytes() == first.tobytes()
            assert cache[r.size].tobytes() == kept.tobytes()
            assert not np.shares_memory(first, cache[r.size])
            assert first.tobytes() == np.array([f(float(x)) for x in r]).tobytes()

    def test_non_finite_end_data_are_rejected(self):
        # the extension starts from each law's values at the core ends, so
        # a law whose phi, dphi or d2phi is not finite there is rejected
        # when it is built, with one line
        def bad_at(end, value):
            def core(x):
                return np.where(np.asarray(x) == end, value, 1.0)

            return core

        def good(x):
            return 0.5 * x

        for end in (0.0, 1.0):
            for value in (np.inf, -np.inf, np.nan):
                for k, law in enumerate(("phi", "dphi", "d2phi")):
                    cores = [good, good, good]
                    cores[k] = bad_at(end, value)
                    with pytest.raises(PotentialError) as info:
                        Potential(*cores, r_plus=0.0, r_minus=1.0, name="bad")
                    message = str(info.value)
                    values = [value, 1.0] if end == 0.0 else [1.0, value]
                    assert message == f"bad: {law} at the core ends is {values}, not finite"
                    assert "\n" not in message
        # a factory law whose potential and force overflow at r_minus
        with pytest.raises(PotentialError, match=r"phi at the core ends is \[0\.0, inf\]"):
            polynomial_potential([0.0, 0.0, 1.0], r_minus=1e160)

    @pytest.mark.parametrize(
        "coeffs, r_minus, what",
        [
            ([0.0, 0.0, 1e308], 1.0, "derivative"),
            ([0.0, 1e308, 1e308], 1.0, "derivative"),
            # dphi'(r_minus) = 2e310: only the Taylor shift to r_minus overflows
            ([0.0, 0.0, 1e300], 1e10, "gap Taylor shift"),
            ([0.0, 1.0, np.inf], 1.0, "antiderivative"),
        ],
    )
    def test_non_finite_derived_coefficients_are_rejected(self, coeffs, r_minus, what):
        # one line, and no numpy warning on the way
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(PotentialError) as info:
                polynomial_potential(coeffs, r_minus=r_minus)
        message = str(info.value)
        assert message.endswith(f"the force law's {what} has a non-finite coefficient")
        assert "\n" not in message

    def test_scalar_core_gives_full_shape(self):
        pot = Potential(lambda r: 0.5 * r * r, lambda r: r, lambda r: 1.0)
        r = np.array([[0.25, 0.5, 1.0], [0.75, 0.1, 0.2]])
        out = pot.d2phi(r)
        assert out.shape == r.shape
        assert np.all(out == 1.0)


def _signed_zero_law(coeffs, zeros, returned):
    """The polynomial force law ``coeffs`` on [0, 1] whose cores give -0.0 at ``zeros``.

    Every array a core returns is appended to ``returned``.
    """
    c = tuple(map(float, coeffs))
    polys = [tuple(map(float, npoly.polyint(c))), c, tuple(map(float, npoly.polyder(c)))]

    def core(poly):
        def f(x):
            y = np.where(np.isin(x, zeros), -0.0, _horner(poly, x))
            returned.append(y)
            return y

        return f

    return Potential(*map(core, polys), r_plus=0.0, r_minus=1.0, name=f"{list(c)} with -0.0")


class TestOnePath:
    """Every array size takes one path: each strain adds its own side's terms."""

    ZEROS = (0.25, 0.5, 0.75)

    @staticmethod
    def lattice_field(m=2000):
        """Strains of a front across the core, perturbed by 1e-6 past both ends."""
        rng = np.random.default_rng(4242)
        r = 1.0 / (1.0 + np.exp(np.linspace(-20.0, 20.0, m))) + 1e-6 * rng.standard_normal(m)
        return r

    @pytest.mark.parametrize(
        "coeffs",
        [
            # end slopes of dphi: p_plus -0.1 < 0, p_minus 2.1 > 0;
            # of phi: dphi(0) = +0.0, dphi(1) = 1
            [0.0, -0.1, 1.1],
            # as above with dphi(0) = -0.0
            [-0.0, -0.1, 1.1],
            # p_plus 1.5 > 0, p_minus -0.5 < 0; phi's curvature terms
            # 0.75 > 0 at r_plus, -0.25 < 0 at r_minus
            [0.0, 1.5, 0.5, -1.0],
        ],
    )
    @pytest.mark.parametrize("sides", ["below", "above", "both"])
    def test_core_signed_zeros_survive(self, coeffs, sides):
        returned = []
        pot = _signed_zero_law(coeffs, self.ZEROS, returned)
        r = self.lattice_field()
        if sides == "below":
            r = np.minimum(r, 1.0)
        elif sides == "above":
            r = np.maximum(r, 0.0)
        at = np.arange(5, r.size, 200)
        r[at] = np.resize(self.ZEROS, at.size)
        assert (r.min() < 0.0) == (sides != "above") and (r.max() > 1.0) == (sides != "below")
        r_before = r.tobytes()
        for method in ("phi", "dphi", "d2phi"):
            f = getattr(pot, method)
            returned.clear()
            values = f(r)
            assert returned and not any(np.shares_memory(values, y) for y in returned)
            assert not np.shares_memory(values, r)
            assert values[at].tolist() == [0.0] * at.size and np.signbit(values[at]).all()
            scalars = np.array([f(x) for x in r.tolist()])
            assert values.tobytes() == scalars.tobytes(), method
        assert r.tobytes() == r_before

    def test_signed_zero_laws_cover_every_end_slope(self):
        # the coefficients the core strains see in the test above: the
        # slope terms of phi and dphi and the curvature term of phi
        signs = set()
        for coeffs in ([0.0, -0.1, 1.1], [-0.0, -0.1, 1.1], [0.0, 1.5, 0.5, -1.0]):
            pot = _signed_zero_law(coeffs, self.ZEROS, [])
            for law in (pot._phi_law, pot._dphi_law):
                for _, *terms in law[1:]:
                    signs.update((t != 0.0, math.copysign(1.0, t)) for t in terms)
        assert signs == {(True, 1.0), (False, 1.0), (False, -1.0), (True, -1.0)}

    @pytest.mark.parametrize("norm", [False, True], ids=["raw", "renormalized"])
    @pytest.mark.parametrize("name", list(_FORCE_LAWS))
    def test_end_data_are_the_array_cores_values(self, name, norm):
        # at a strain beyond an end the clipped core gives its array value
        # at the end, which the Taylor data must start from; for the
        # factory laws the float cores give the same bits
        pot = _FORCE_LAWS[name]()
        if norm:
            pot = pot.renormalize()[0]
        ends = [pot.r_plus, pot.r_minus]
        phi, dphi, d2phi = pot._phi_law, pot._dphi_law, pot._d2phi_law
        for core, below, above in (phi, dphi, d2phi):
            data = np.array([below[0], above[0]])
            assert data.tobytes() == core(np.array(ends)).tobytes()
            assert data.tobytes() == np.array([float(core(e)) for e in ends]).tobytes()
        # the higher terms are the next law's end values
        for law, nxt in ((phi, dphi), (dphi, d2phi)):
            assert [law[1][1], law[2][1]] == [nxt[1][0], nxt[2][0]]
        assert [phi[1][2], phi[2][2]] == [0.5 * d2phi[1][0], 0.5 * d2phi[2][0]]


class TestRenormalize:
    def test_hertz_is_scale_invariant(self):
        raw = hertz_potential(r_minus=4.0)
        norm, fmap = raw.renormalize()
        ref = hertz_potential()
        R = np.linspace(0.0, 1.0, 101)
        assert np.max(np.abs(norm.dphi(R) - ref.dphi(R))) <= 1e-12
        assert abs(fmap.speed - np.sqrt(2.0)) <= 1e-12
        assert norm.is_normalized

    def test_polynomial_unit_force_is_exact_near_zero(self):
        # the unit force of a polynomial is a polynomial with no constant
        # term, so it keeps its relative accuracy as R goes to 0
        coeffs = [0.1, 0.7, 1.3, 0.4, 0.2]
        raw = polynomial_potential(coeffs, r_plus=0.2, r_minus=1.7)
        norm = raw.renormalize()[0]
        assert norm.is_normalized
        assert norm.dphi(0.0) == 0.0 and norm.phi(0.0) == 0.0

        def force(r):
            return sum(Fraction(c) * r**j for j, c in enumerate(coeffs))

        a, s = Fraction(0.2), Fraction(1.7 - 0.2)
        jump = force(a + s) - force(a)
        for R in np.geomspace(1e-300, 1.0, 60):
            exact = (force(a + s * Fraction(R)) - force(a)) / jump
            assert abs(Fraction(norm.dphi(R)) - exact) <= 1e-14 * exact
        assert abs(norm.dphi(1.0) - 1.0) <= 4e-16

    def test_rejects_decreasing_force(self):
        with pytest.raises(PotentialError):
            polynomial_potential([1.0, -1.0]).renormalize()

    def test_unit_coefficient_beyond_the_double_range(self):
        # the chord rises by 1e-300, so the unit force's R^2 coefficient is 1e600
        raw = polynomial_potential([0.0, 1e-300, 1e300, -1e300])
        with pytest.raises(PotentialError, match=r"^polynomial\[0\.0, 1e-300, 1e\+300, -1e\+300\]: ") as exc:
            raw.renormalize()
        assert "\n" not in str(exc.value)

    def test_nonconvex_force_renormalizes(self):
        # the force's curvature 0.5 + 1.6R - 0.9R^2 falls past R = 8/9; the
        # solver, not renormalize, decides whether the law has a front
        raw = polynomial_potential([0.0, 0.75, 0.6, -0.1125], r_plus=0.0, r_minus=2.0)
        norm, fmap = raw.renormalize()
        assert norm.is_normalized
        assert fmap.speed == pytest.approx(np.sqrt(1.5), abs=1e-15)
        R = np.linspace(0.0, 1.0, 101)
        assert np.max(np.abs(norm.dphi(R) - (0.5 * R + 0.8 * R**2 - 0.3 * R**3))) <= 1e-15

    def test_linear_force_renormalizes(self):
        norm, fmap = linear_force_potential().renormalize()
        assert norm.is_normalized
        assert fmap.speed == 1.0 and fmap.offset == 0.0

    @settings(max_examples=40, deadline=None)
    @given(
        c1=st.floats(0.05, 3.0),
        c2=st.floats(0.0, 2.0),
        c3=st.floats(0.0, 2.0),
        c0=st.floats(-1.0, 1.0),
        r_lo=st.floats(0.0, 0.5),
        width=st.floats(0.3, 3.0),
    )
    def test_random_convex_cubics(self, c1, c2, c3, c0, r_lo, width):
        """Renormalizing preserves the sign of the chord area."""
        if c2 + c3 < 1e-3:
            c2 = 0.5  # keep the force law strictly convex
        raw = polynomial_potential([c0, c1, c2, c3], r_plus=r_lo, r_minus=r_lo + width)
        A_raw = raw.coefficient_A()
        norm, _ = raw.renormalize()
        assert abs(norm.dphi(0.0)) <= 1e-12
        assert abs(norm.dphi(1.0) - 1.0) <= 1e-12
        A_norm = norm.coefficient_A()
        assert A_raw > 0
        assert A_norm > 0
        assert A_norm == pytest.approx(chord_area_oracle(norm), abs=1e-12)


def _exact_gap(coeffs, r_minus, d):
    """dphi(r_minus) - dphi(r_minus - d) in exact rational arithmetic."""

    def force(r):
        return sum(Fraction(c) * r**j for j, c in enumerate(coeffs))

    rm = Fraction(r_minus)
    return force(rm) - force(rm - Fraction(d))


class TestGapForce:
    """Closed-form gap forces dphi(r_minus) - dphi(r_minus - d) of the built-ins."""

    @settings(max_examples=200, deadline=None)
    @given(
        c0=st.floats(-1.0, 1.0),
        c1=st.floats(0.0, 10.0),
        c2=st.floats(0.1, 10.0),
        c3=st.floats(0.0, 10.0),
        c4=st.floats(0.0, 10.0),
        degree=st.integers(2, 4),
        r_minus=st.sampled_from([1.0, 0.7, 2.5]),
        q=st.floats(1e-300, 0.5),
    )
    def test_polynomial_matches_exact_rationals(self, c0, c1, c2, c3, c4, degree, r_minus, q):
        # nonnegative c_j (j >= 1) keep the force convex and increasing on [0, r_minus]
        coeffs = [c0, c1, c2, c3, c4][: degree + 1]
        pot = polynomial_potential(coeffs, r_minus=r_minus)
        d = q * r_minus
        exact = _exact_gap(coeffs, r_minus, d)
        assert abs(Fraction(pot.gap_force(d)) - exact) <= 1e-14 * exact

    def test_quadratic_is_q_times_two_minus_q(self):
        pot = quadratic_force_potential()
        for q in (1e-300, 1e-12, 0.1, 0.5, 1.0):
            assert pot.gap_force(q) == q * (2.0 - q)

    @pytest.mark.parametrize("alpha", [1.05, 1.5, 2.0, 2.5, 3.0])
    @pytest.mark.parametrize("r_minus", [1.0, 0.7, 2.5])
    def test_hertz_matches_quadrature_and_series(self, alpha, r_minus):
        pot = hertz_potential(alpha, r_minus=r_minus)
        nodes, weights = np.polynomial.legendre.leggauss(40)
        s, w = 0.5 * (nodes + 1.0), 0.5 * weights
        for q in np.geomspace(1e-4, 0.5, 60):
            d = q * r_minus
            want = d * float(np.dot(w, pot.d2phi(r_minus - d * s)))
            assert pot.gap_force(d) == pytest.approx(want, rel=4e-15, abs=0.0)
        rm_a = r_minus**alpha
        for q in np.geomspace(1e-300, 1e-8, 60):
            d = q * r_minus
            want = rm_a * (alpha * q - 0.5 * alpha * (alpha - 1.0) * q * q)
            assert pot.gap_force(d) == pytest.approx(want, rel=2e-15, abs=0.0)

    def test_renormalized_gap_is_scaled_raw_gap(self):
        raw = polynomial_potential([0.2, 0.3, 1.1, 0.4], r_plus=0.1, r_minus=2.0)
        norm, _ = raw.renormalize()
        ddp = raw.dphi(2.0) - raw.dphi(0.1)
        for q in np.geomspace(1e-300, 1.0, 40):
            exact = _exact_gap([0.2, 0.3, 1.1, 0.4], 2.0, 1.9 * q) / Fraction(ddp)
            assert abs(Fraction(norm.gap_force(q)) - exact) <= 1e-14 * exact
        hertz = hertz_potential(1.5, r_minus=4.0).renormalize()[0]
        unit = hertz_potential(1.5)
        for q in np.geomspace(1e-300, 1.0, 40):
            assert hertz.gap_force(q) == pytest.approx(unit.gap_force(q), rel=1e-14, abs=0.0)

    @pytest.mark.parametrize(
        "pot",
        [quadratic_force_potential(), hertz_potential(1.5, r_minus=2.0)],
        ids=["quad", "hertz"],
    )
    def test_extension_beyond_the_core(self, pot):
        span = pot.r_minus - pot.r_plus
        for d in (-1e-300, -1e-3, -0.5):
            assert pot.gap_force(d) == pot.p_minus * d
        for d in (span + 1e-3, span + 0.5):
            assert pot.gap_force(d) == pot.dphi(pot.r_minus) - pot.dphi(pot.r_minus - d)
        assert pot.gap_force(0.0) == 0.0
        assert pot.gap_force(span) == pytest.approx(pot.dphi(pot.r_minus), rel=1e-15)

    def test_user_core_has_none(self):
        assert Potential(lambda r: r, lambda r: r, lambda r: 1.0).gap_core is None


class TestPowerTag:
    """A law is tagged alpha exactly when its force is r^alpha on [0, 1]."""

    @pytest.mark.parametrize(
        "make, power",
        [
            (quadratic_force_potential, 2.0),
            (lambda: hertz_potential(1.5), 1.5),
            (lambda: hertz_potential(1.2, r_minus=3.0), 1.2),
            (lambda: polynomial_potential([0.0, 0.0, 0.0, 1.0]), 3.0),
            (lambda: polynomial_potential([0.0, 0.0, 1.0, 0.0]), 2.0),
            (lambda: polynomial_potential([0.0, 0.0, 1.0], r_minus=2.0), 2.0),
            # unit forms that are unit monomials
            (lambda: polynomial_potential([0.0, 0.0, 2.0]).renormalize()[0], 2.0),
            (lambda: polynomial_potential([0.0, 0.0, 1.0], r_minus=2.0).renormalize()[0], 2.0),
        ],
    )
    def test_tagged(self, make, power):
        assert make().power == power

    @pytest.mark.parametrize(
        "make",
        [
            lambda: hertz_potential(1.5, r_minus=0.5),
            linear_force_potential,
            lambda: polynomial_potential([0.0, 0.0, 2.0]),
            lambda: polynomial_potential([0.0, 0.5, 0.8, -0.3]),
            lambda: polynomial_potential([0.0, 0.0, 1.0], r_plus=-0.5),
            lambda: polynomial_potential([0.0, 0.0, 1.0], r_minus=0.9),
            lambda: polynomial_potential([0.0, 0.0, 1.0], r_plus=0.2, r_minus=1.7).renormalize()[0],
            lambda: polynomial_potential(
                [0.1, 0.7, 1.3, 0.4, 0.2], r_plus=0.2, r_minus=1.7
            ).renormalize()[0],
            # the generic unit form wraps the cores, which then no longer give r^alpha exactly
            lambda: hertz_potential(1.5, r_minus=2.0).renormalize()[0],
            lambda: Potential(lambda r: r**3 / 3.0, lambda r: r * r, lambda r: 2.0 * r),
        ],
    )
    def test_untagged(self, make):
        assert make().power is None

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.stats import kstest

from pathdecomp import (
    ParameterError,
    RngStream,
    TexpParams,
    derive_seed,
    texp_cdf,
    texp_icdf,
    texp_pdf,
    texp_sample,
    texp_sample_many,
)


def random_texp_cases(count, draws, seed=9):
    """(params, stream seed, draws) with lo in [0, 10), hi - lo log-uniform
    in [1e-3, 1e2] and lam / (hi - lo) log-uniform in [1e-3, 10]."""
    rng = np.random.default_rng(seed)
    cases = []
    for i in range(count):
        lo = float(rng.uniform(0.0, 10.0))
        hi = lo + float(10.0 ** rng.uniform(-3, 2))
        lam = float(10.0 ** rng.uniform(-3, 1)) * (hi - lo)
        cases.append((TexpParams(lam, lo, hi), i, draws))
    return cases


class TestParams:
    @pytest.mark.parametrize("lam,lo,hi", [(0.0, 0, 1), (-1, 0, 1), (1, -0.1, 1),
                                           (1, 1, 1), (1, 2, 1), (1, 0, math.inf)])
    def test_invalid_rejected(self, lam, lo, hi):
        with pytest.raises(ParameterError):
            TexpParams(lam, lo, hi)


class TestPdf:
    def test_zero_outside_support(self):
        p = TexpParams(1.0, 0.25, 0.4)
        assert texp_pdf(p, 0.2) == 0.0
        assert texp_pdf(p, 0.5) == 0.0

    @pytest.mark.parametrize("p", [
        TexpParams(1.0, 0.0, 1.0),
        TexpParams(0.03, 0.25, 0.4),
        TexpParams(5.0, 2.0, 3.2),
    ])
    def test_integrates_to_one(self, p):
        total, err = quad(lambda x: texp_pdf(p, x), p.lo, p.hi)
        assert abs(total - 1.0) < 1e-9

    def test_huge_lam_tends_to_uniform(self):
        p = TexpParams(1e12, 0.0, 1.0)
        assert abs(texp_pdf(p, 0.5) - 1.0) < 1e-6


class TestCdf:
    def test_boundaries(self):
        p = TexpParams(0.5, 0.25, 0.4)
        assert texp_cdf(p, p.lo) == 0.0
        assert texp_cdf(p, p.hi) == 1.0

    def test_monotone_on_grid(self):
        p = TexpParams(0.7, 1.0, 9.0)
        xs = np.linspace(p.lo, p.hi, 1000)
        vals = [texp_cdf(p, x) for x in xs]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_closed_form_midpoint(self):
        p = TexpParams(1.0, 0.0, 1.0)
        expected = (1 - math.exp(-0.5)) / (1 - math.exp(-1.0))
        assert abs(texp_cdf(p, 0.5) - expected) < 1e-12
        by_quad, _ = quad(lambda x: texp_pdf(p, x), 0.0, 0.5)
        assert abs(texp_cdf(p, 0.5) - by_quad) < 1e-9

    def test_is_antiderivative_of_pdf(self):
        p = TexpParams(0.08, 2.0, 3.2)
        for x in np.linspace(p.lo, p.hi, 29):
            integral, _ = quad(lambda t: texp_pdf(p, t), p.lo, x)
            assert abs(texp_cdf(p, x) - integral) < 1e-9


class TestSampling:
    def test_icdf_endpoints_exact(self):
        p = TexpParams(0.161, 2.0, 3.2)
        assert texp_icdf(p, 0.0) == 2.0
        assert texp_icdf(p, 1.0) == 3.2

    def test_icdf_rejects_bad_u(self):
        p = TexpParams(1.0, 0.0, 1.0)
        with pytest.raises(ParameterError):
            texp_icdf(p, -0.1)
        with pytest.raises(ParameterError):
            texp_icdf(p, 1.1)

    def test_icdf_inverts_cdf(self):
        p = TexpParams(0.3, 0.25, 0.4)
        for u in (0.1, 0.37, 0.5, 0.9, 0.999):
            assert abs(texp_cdf(p, texp_icdf(p, u)) - u) < 1e-12

    def test_samples_in_support(self):
        p = TexpParams(0.05, 0.25, 0.4)
        xs = texp_sample_many(p, RngStream(2), 10_000)
        assert (xs >= p.lo).all() and (xs <= p.hi).all()

    def test_deterministic_bit_for_bit(self):
        p = TexpParams(0.3, 0.25, 0.4)
        a = texp_sample_many(p, RngStream(99), 1000)
        b = texp_sample_many(p, RngStream(99), 1000)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("cases", [
        pytest.param([(TexpParams(0.3, 0.25, 0.4), 5, 10_000)], id="lam0.3-seed5-10000"),
        pytest.param(random_texp_cases(300, 200), id="sweep-300x200"),
    ])
    def test_batch_equals_sequential(self, cases):
        # a last-bit difference between two log1p implementations shows up in
        # a few percent of draws, so every case draws thousands of radii
        for p, seed, k in cases:
            batch = texp_sample_many(p, RngStream(seed), k)
            rng = RngStream(seed)
            one_by_one = np.array([texp_sample(p, rng) for _ in range(k)])
            assert np.array_equal(batch, one_by_one), (p, seed)

    def test_ks_against_cdf_quick(self):
        p = TexpParams(0.161, 0.25, 0.4)
        xs = texp_sample_many(p, RngStream(7), 100_000)
        stat = kstest(xs, lambda x: np.array([texp_cdf(p, v) for v in np.atleast_1d(x)])).statistic
        assert stat < 0.01

    def test_degenerate_lam_is_point_mass_at_lo(self):
        p = TexpParams(1e-310, 0.25, 0.4)
        xs = texp_sample_many(p, RngStream(1), 100)
        assert (xs == 0.25).all()
        assert texp_icdf(p, 0.5) == 0.25

    @given(st.floats(1e-6, 1e6), st.floats(0, 100), st.floats(1e-3, 100),
           st.floats(0, 1))
    @settings(max_examples=200, deadline=None)
    def test_icdf_stays_in_support(self, lam, lo, span, u):
        p = TexpParams(lam, lo, lo + span)
        x = texp_icdf(p, u)
        assert p.lo <= x <= p.hi


class TestGoldenStream:
    """Frozen values of the keyed Philox stream and the splitmix64 mix; any
    platform or numpy-version drift must fail loudly here."""

    def test_philox_stream(self):
        assert [float(x) for x in RngStream(0).uniforms(3)] == [
            0.011546754286331562, 0.24154919656271812, 0.11142585551493822,
        ]
        assert [float(x) for x in RngStream(2**64 - 1).uniforms(2)] == [
            0.23494158814525556, 0.7173107484541781,
        ]

    def test_splitmix_values(self):
        assert derive_seed(42, 7) == 14769051326987775908
        assert derive_seed(0, 0) == 16294208416658607535


class TestSeedDerivation:
    def test_deterministic(self):
        assert derive_seed(42, 7) == derive_seed(42, 7)

    def test_indices_give_distinct_streams(self):
        seeds = {derive_seed(1234, i) for i in range(-1, 1000)}
        assert len(seeds) == 1001

    def test_derived_stream_matches_direct(self):
        a = RngStream.derived(10, 3)
        b = RngStream(derive_seed(10, 3))
        assert np.array_equal(a.uniforms(8), b.uniforms(8))

    def test_negative_master_ok(self):
        assert 0 <= derive_seed(-5, 0) < 2**64

"""Delay-kernel estimation, quantiles, and cumulative curves."""

import numpy as np
import pytest

from postsched import (
    DelayKernel,
    InsufficientDataError,
    PairTable,
    cumulative_curve,
    estimate_delay_kernel,
    time_to_fraction,
)


def pairs_from_delays(delays):
    """The delay column of joined pairs with the given delays."""
    n = len(delays)
    return PairTable.from_columns(["a"] * n, ["b"] * n, [1000] * n,
                                  [1000 + d for d in delays]).delay


class TestDelayPair:
    def test_delay(self):
        assert PairTable.from_columns(["a"], ["b"], [100], [400]).delay[0] == 300

    def test_rejects_negative_delay(self):
        with pytest.raises(ValueError):
            PairTable.from_columns(["a"], ["b"], [100], [50])


class TestEstimateKernel:
    def test_single_zero_delay_is_delta(self):
        k = estimate_delay_kernel(pairs_from_delays([0]))
        assert k.mass[0] == 1.0
        assert k.mass[1:].sum() == 0.0

    def test_two_lags(self):
        k = estimate_delay_kernel(pairs_from_delays([5 * 60, 20 * 60]))
        assert k.mass[0] == 0.5
        assert k.mass[1] == 0.5
        assert k.mass[2:].sum() == 0.0

    def test_out_of_window_excluded(self):
        with pytest.raises(InsufficientDataError):
            estimate_delay_kernel(pairs_from_delays([25 * 3600] * 4))

    def test_window_boundary_is_exclusive(self):
        k = estimate_delay_kernel(pairs_from_delays([0, 24 * 3600]))
        assert k.mass[0] == 1.0

    def test_accepts_raw_delay_array(self):
        k = estimate_delay_kernel(np.array([0, 950, 1000]))
        assert np.isclose(k.mass[0], 1 / 3)
        assert np.isclose(k.mass[1], 2 / 3)

    def test_resample_recovers_kernel(self):
        # Sampling delays from a kernel and re-estimating reproduces it.
        rng = np.random.default_rng(42)
        true = np.zeros(96)
        true[:8] = [0.4, 0.2, 0.1, 0.1, 0.08, 0.06, 0.04, 0.02]
        lags = rng.choice(96, size=50_000, p=true)
        delays = lags * 900 + rng.integers(0, 900, size=lags.size)
        est = estimate_delay_kernel(delays)
        tv = 0.5 * np.abs(est.mass - true).sum()
        assert tv < 0.02


class TestTimeToFraction:
    def test_point_mass(self):
        pairs = pairs_from_delays([300, 300, 300])
        for p in (0.01, 0.25, 0.5, 1.0):
            assert time_to_fraction(pairs, p) == 300

    def test_hand_sorted_quantiles(self):
        pairs = pairs_from_delays([60, 120, 180, 240])
        assert time_to_fraction(pairs, 0.5) == 120
        assert time_to_fraction(pairs, 0.9) == 240
        assert time_to_fraction(pairs, 0.25) == 60
        assert time_to_fraction(pairs, 1.0) == 240

    def test_monotone_in_p(self):
        rng = np.random.default_rng(9)
        delays = rng.integers(0, 24 * 3600, size=500)
        pairs = pairs_from_delays(delays)
        ps = np.linspace(0.01, 1.0, 50)
        ts = [time_to_fraction(pairs, float(p)) for p in ps]
        assert all(a <= b for a, b in zip(ts, ts[1:]))

    def test_rejects_bad_fraction(self):
        pairs = pairs_from_delays([10])
        for p in (0.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                time_to_fraction(pairs, p)

    def test_no_in_window_pairs(self):
        with pytest.raises(InsufficientDataError):
            time_to_fraction(pairs_from_delays([25 * 3600]), 0.5)


class TestCumulativeCurve:
    def test_point_mass_all_ones(self):
        curve = cumulative_curve(pairs_from_delays([0, 1, 2]))
        assert np.all(curve == 1.0)

    def test_uniform_two_lags(self):
        curve = cumulative_curve(pairs_from_delays([100, 1000]))
        assert curve[0] == 0.5
        assert np.all(curve[1:] == 1.0)

    def test_hand_histogram(self):
        pairs = pairs_from_delays([5 * 60, 20 * 60, 200 * 60])
        curve = cumulative_curve(pairs)
        assert np.isclose(curve[1], 2 / 3)

    def test_equals_prefix_sum_of_kernel(self):
        rng = np.random.default_rng(13)
        pairs = pairs_from_delays(rng.integers(0, 24 * 3600, size=400))
        kernel = estimate_delay_kernel(pairs)
        curve = cumulative_curve(pairs)
        assert np.array_equal(curve, np.cumsum(kernel.mass))

    def test_monotone_and_ends_at_one(self):
        rng = np.random.default_rng(19)
        pairs = pairs_from_delays(rng.integers(0, 24 * 3600, size=333))
        curve = cumulative_curve(pairs)
        assert np.all(np.diff(curve) >= 0)
        assert abs(curve[-1] - 1.0) <= 1e-9


class TestKernelTable:
    def test_kernel_validation(self):
        with pytest.raises(ValueError):
            DelayKernel(np.array([0.5, 0.4]))
        with pytest.raises(ValueError):
            DelayKernel(np.array([-0.5, 1.5]))
        with pytest.raises(ValueError):
            DelayKernel.delta(96, n_lags=96)

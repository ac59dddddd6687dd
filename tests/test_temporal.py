"""Grid bucketization, profiles, delayed profiles, and normalization."""

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from postsched import (
    DelayKernel,
    PairTable,
    PostTable,
    ScheduleTable,
    TimeWindow,
    WeeklyGrid,
    build_profiles,
    delayed_profile,
    normalize_rows,
)
from postsched import temporal
from postsched.ingest import UserTable
from postsched.temporal import WEEK_SECONDS


def created_profile(timestamps, tz_offset_min, grid):
    """The created-post row that build_profiles counts for one user who
    posted at ``timestamps``."""
    ts = list(timestamps)
    posts = PostTable.from_columns(["TW"], ["u"] * len(ts),
                                   [f"p{i}" for i in range(len(ts))], ts)
    window = TimeWindow(min(ts, default=0), max(ts, default=0))
    profiles = build_profiles(posts, PairTable.from_columns([], [], [], []),
                              UserTable.from_columns(["TW"], ["u"],
                                                     [tz_offset_min], [None]),
                              grid, window)
    return profiles.created.rows([0])[0]


def normalize(q):
    """The S1 schedule of one profile row."""
    return normalize_rows(np.asarray(q, dtype=float)[None], ["u"], "S1")


class TestWeeklyGrid:
    def test_default_geometry(self):
        g = WeeklyGrid()
        assert g.buckets_per_week == 672 == 4 * 24 * 7
        assert g.bucket_width_s == 900
        assert g.bucket_width_s * g.buckets_per_week == WEEK_SECONDS

    def test_rejects_nondivisible_bucket_count(self):
        with pytest.raises(ValueError):
            WeeklyGrid(671)
        with pytest.raises(ValueError):
            WeeklyGrid(0)

    def test_epoch_is_thursday_midnight(self):
        # Thu 1970-01-01 00:00 UTC is 3 full days past Monday: 3 * 96 = 288.
        assert WeeklyGrid().bucket_index(0, 0) == 288

    def test_offset_shifts_local_time(self):
        # Local Thu 01:00 under a +60 minute offset: 288 + 4.
        assert WeeklyGrid().bucket_index(0, 60) == 292

    def test_last_bucket_of_week(self):
        # Sun 1970-01-04 23:45 UTC is the final 15-minute bucket.
        assert WeeklyGrid().bucket_index(345600 - 900, 0) == 671

    def test_half_open_boundary(self):
        g = WeeklyGrid()
        assert g.bucket_index(345600, 0) == 0  # next Monday 00:00 wraps
        assert g.bucket_index(899, 0) == g.bucket_index(0, 0)
        assert g.bucket_index(900, 0) == g.bucket_index(0, 0) + 1

    def test_fifteen_minute_offset_shift_property(self):
        g = WeeklyGrid()
        rng = np.random.default_rng(7)
        ts = rng.integers(0, 10 * WEEK_SECONDS, size=1000)
        offs = rng.integers(-720, 826, size=1000)  # o + 15 stays within 840
        base = np.array([g.bucket_index(int(t), int(o)) for t, o in zip(ts, offs)])
        shifted = np.array([g.bucket_index(int(t), int(o) + 15)
                            for t, o in zip(ts, offs)])
        assert np.array_equal(shifted, (base + 1) % 672)

    def test_vectorized_matches_scalar(self):
        g = WeeklyGrid()
        rng = np.random.default_rng(3)
        ts = rng.integers(-5 * WEEK_SECONDS, 5 * WEEK_SECONDS, size=500)
        vec = g.bucket_indices(ts, -330)
        assert np.array_equal(vec, [g.bucket_index(int(t), -330) for t in ts])

    def test_tz_offset_bounds(self):
        g = WeeklyGrid()
        with pytest.raises(ValueError):
            g.bucket_index(0, 841)
        with pytest.raises(ValueError):
            g.bucket_index(0, -841)
        with pytest.raises(ValueError):
            g.bucket_index(0, -721)
        assert g.bucket_index(0, -720) == g.bucket_index(0, 0) - 48

    def test_day_mask(self):
        g = WeeklyGrid()
        weekday = g.day_mask("weekday")
        assert weekday[:480].all() and not weekday[480:].any()
        weekend = g.day_mask("weekend")
        assert np.array_equal(weekend, ~weekday)
        assert g.day_mask("all").all()

    def test_bucket_labels(self):
        g = WeeklyGrid()
        assert g.bucket_label(0) == "Mon 00:00"
        assert g.bucket_label(292) == "Thu 01:00"
        assert g.bucket_label(671) == "Sun 23:45"


class TestAggregateProfile:
    def test_empty_input_is_zero_profile(self):
        prof = created_profile([], 0, WeeklyGrid())
        assert prof.sum() == 0.0
        assert prof.size == 672

    def test_counts_per_bucket(self):
        g = WeeklyGrid()
        prof = created_profile([0, 10, 901], 0, g)
        assert prof[288] == 2.0
        assert prof[289] == 1.0
        assert prof.sum() == 3.0

    def test_weekly_periodicity_of_offset(self):
        # An offset shifted by exactly 7 days of minutes changes nothing...
        # except it exceeds the legal range, so shift the timestamps instead.
        g = WeeklyGrid()
        ts = [0, 4000, 86400 * 2 + 77]
        base = created_profile(ts, 120, g)
        shifted = created_profile([t + WEEK_SECONDS for t in ts], 120, g)
        assert np.array_equal(base, shifted)


class TestDelayedProfile:
    def test_delta_kernel_is_identity(self):
        g = WeeklyGrid()
        rng = np.random.default_rng(11)
        prof = rng.integers(0, 9, size=672).astype(float)
        out = delayed_profile(prof, DelayKernel.delta(0))
        assert np.array_equal(out, prof)

    def test_impulse_split_lands_before(self):
        g8 = WeeklyGrid(8)
        imp = np.eye(8)[5]
        kernel = DelayKernel(np.array([0.5, 0.5]), g8.bucket_width_s)
        out = delayed_profile(imp, kernel)
        expected = np.zeros(8)
        expected[4] = expected[5] = 0.5
        assert np.allclose(out, expected)

    def test_wraps_at_week_boundary(self):
        g8 = WeeklyGrid(8)
        imp = np.eye(8)[0]
        kernel = DelayKernel(np.array([0.0, 1.0]), g8.bucket_width_s)
        out = delayed_profile(imp, kernel)
        assert out[7] == 1.0
        assert out.sum() == 1.0

    def test_mass_conservation_property(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            n = int(rng.integers(2, 64))
            prof = rng.random(n) * 50
            mass = rng.random(int(rng.integers(1, n + 1)))
            mass /= mass.sum()
            out = delayed_profile(prof, mass)
            total = prof.sum()
            assert abs(out.sum() - total) <= 1e-9 * max(1.0, total)

    def test_rejects_unnormalized_kernel(self):
        with pytest.raises(ValueError):
            delayed_profile(np.ones(8), np.array([0.5, 0.4]))

    def test_stacked_rows_match_single_rows(self):
        # A stack is transformed row by row, bit for bit, whatever the
        # chunking, including lags of a week or more, which wrap.
        rng = np.random.default_rng(13)
        values = rng.random((600, 24)) * 10
        mass = rng.random(30)
        mass /= mass.sum()
        stacked = delayed_profile(values, mass)
        for row in (0, 255, 256, 599):
            assert np.array_equal(stacked[row], delayed_profile(values[row], mass))
        assert np.array_equal(delayed_profile(values.reshape(2, 300, 24), mass),
                              stacked.reshape(2, 300, 24))

    @pytest.mark.parametrize("bad", [-1.0, -0.0, np.nan, np.inf, -np.inf],
                             ids=["negative", "negative-zero", "nan", "inf",
                                  "minus-inf"])
    def test_rejects_value_not_finite_with_sign_bit_clear(self, bad):
        values = np.ones((3, 8))
        values[1, 5] = bad
        with pytest.raises(ValueError, match="sign bit clear"):
            delayed_profile(values, np.array([0.5, 0.5]))


@st.composite
def delay_cases(draw):
    """A stack of profiles, a kernel and a chunk size. The stack is 0% to
    100% non-zero, on 4 to 672 buckets, with 1, 2 or 3 axes and possibly no
    rows. The kernel is a delta or a random vector with random zeros, and
    either may reach past the week. The work per case is capped so that a
    case runs in well under a second on either path."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(4, 672))
    if draw(st.booleans()):
        lag = draw(st.integers(0, 2 * n))
        mass = np.zeros(lag + 1)
        mass[lag] = 1.0
    else:
        mass = rng.random(draw(st.integers(1, n + 8)))
        mass[rng.random(mass.size) < draw(st.floats(0, 1))] = 0.0
        mass[rng.integers(mass.size)] += 1.0
        mass /= mass.sum()
    chunk = draw(st.sampled_from([1, 256]))
    budget = 1_000_000 // (n * np.count_nonzero(mass))
    rows = draw(st.integers(0, max(1, min(12 if chunk == 1 else 300, budget))))
    shape = draw(st.sampled_from([(n,), (rows, n), (2, rows // 2, n)]))
    values = np.where(rng.random(shape) < draw(st.floats(0, 1)),
                      rng.random(shape) * draw(st.sampled_from([1.0, 1e-300, 1e300])),
                      0.0)
    if len(shape) == 2 and draw(st.booleans()):
        values = np.asfortranarray(values)
    return values, mass, chunk


class TestSparsePathMatchesDense:
    """The scatter over non-zeros and the dense multiply-add give the same
    bits, so the path a chunk takes cannot change a schedule."""

    @staticmethod
    def both_paths(values, mass, chunk=temporal.CHUNK_ROWS):
        outs = []
        for scatter in (False, True):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(temporal, "CHUNK_ROWS", chunk)
                mp.setattr(temporal, "_scatter_is_cheaper",
                           lambda src, lags, scatter=scatter: scatter)
                outs.append(delayed_profile(values, mass))
        return outs

    @given(delay_cases())
    @example((np.eye(8)[0], np.array([0.0, 1.0]), 256))           # wraps
    @example((np.arange(8.0), np.array([1.0]), 1))                 # delta at 0
    @example((np.arange(24.0).reshape(3, 8), np.eye(11)[10], 1))   # delta past the week
    @example((np.zeros((0, 8)), np.array([0.25, 0.75]), 256))      # no rows
    @example((np.ones((1, 4)), np.full(9, 1 / 9), 256))            # one row
    @example((np.ones((2, 3, 4)), np.array([0.5, 0.0, 0.5]), 1))   # 3-D
    @example((np.array([[5e-324, 0.0, 1.0, 0.0]]),                 # a term
              np.array([0.25, 0.5, 0.25]), 256))                  # rounds to 0
    def test_bit_identical(self, case):
        values, mass, chunk = case
        dense, sparse = self.both_paths(values, mass, chunk)
        assert dense.shape == sparse.shape == values.shape
        assert np.array_equal(dense, sparse)
        assert np.array_equal(np.signbit(dense), np.signbit(sparse))

    def test_cost_rule(self):
        sparse = np.zeros((256, 672))
        sparse[::2, ::100] = 1.0                     # 0.5% non-zero
        dense = np.ones((256, 672))
        scatter = temporal._scatter_is_cheaper
        # A one- or two-lag kernel, as on a fast network, stays dense.
        assert not scatter(sparse, 1) and not scatter(sparse, 2)
        # A slow network's 96 lags go sparse on sparse reactions only.
        assert scatter(sparse, 96) and not scatter(dense, 96)


class TestNormalizeToSchedule:
    def test_single_mass(self):
        s = normalize([2.0, 0.0, 0.0])
        assert np.array_equal(s.probabilities, [[1.0, 0.0, 0.0]])
        assert s.provenance.tolist() == ["S1"]

    def test_two_bucket_toy(self):
        s = normalize([1.0, 3.0])
        assert np.allclose(s.probabilities, [[0.25, 0.75]])

    def test_all_zero_row_dropped(self):
        # An all-zero row has no signal: it gets no schedule, so its user
        # falls back to a baseline.
        assert len(normalize(np.zeros(4))) == 0
        s = normalize_rows(np.array([[0.0, 0.0], [1.0, 3.0], [0.0, 0.0]]),
                           ["a", "b", "c"], ["S1", "S1w", "S1"])
        assert s.labels.tolist() == ["b"]
        assert s.provenance.tolist() == ["S1w"]
        assert np.allclose(s.probabilities, [[0.25, 0.75]])

    def test_scale_invariance_property(self):
        rng = np.random.default_rng(17)
        for _ in range(300):
            q = rng.random(24) * rng.choice([0.01, 1.0, 1e6])
            q[rng.integers(0, 24)] += 1.0  # ensure signal
            c = float(rng.uniform(0.1, 100))
            a = normalize(q).probabilities
            b = normalize(c * q).probabilities
            assert np.all(np.abs(a - b) <= 1e-9)

    def test_argmax_preserved(self):
        rng = np.random.default_rng(23)
        for _ in range(300):
            q = rng.integers(0, 5, size=30).astype(float)
            q[rng.integers(0, 30)] += 1.0
            s = normalize(q)
            assert int(np.argmax(s.probabilities[0])) == int(np.argmax(q))


class TestSchedule:
    def test_must_sum_to_one(self):
        with pytest.raises(ValueError):
            ScheduleTable(["u"], ["S1"], np.array([[0.5, 0.4]]))
        # Every row is checked, not only the first.
        with pytest.raises(ValueError):
            ScheduleTable(["u", "v"], ["S1", "S1"], np.array([[0.5, 0.5],
                                                              [0.5, 0.4]]))

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            ScheduleTable(["u"], ["S1"], np.array([[1.5, -0.5]]))

    def test_rejects_non_finite_and_shape(self):
        with pytest.raises(ValueError):
            ScheduleTable(["u"], ["S1"], np.array([[np.nan, 1.0]]))
        with pytest.raises(ValueError):
            ScheduleTable(["u"], ["S1"], np.array([0.5, 0.5]))  # not 2-D
        with pytest.raises(ValueError):
            ScheduleTable(["u", "v"], ["S1"], np.full((2, 2), 0.5))

    def test_probabilities_are_read_only(self):
        s = ScheduleTable(["u"], ["S1"], np.array([[0.5, 0.5]]))
        with pytest.raises(ValueError):
            s.probabilities[0, 0] = 1.0


class TestTimeWindow:
    def test_closed_bounds(self):
        w = TimeWindow.from_days(1000, 63)
        assert w.contains(1000)
        assert w.contains(w.end)
        assert not w.contains(w.end + 1)
        assert not w.contains(999)
        assert w.n_days == 63

    def test_overlap(self):
        a = TimeWindow.from_days(0, 63)
        b = TimeWindow.from_days(63 * 86400, 56)
        assert not a.overlaps(b)
        assert a.overlaps(TimeWindow(a.end, a.end + 5))

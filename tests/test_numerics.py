import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import gammainc

from cvmeta.errors import DomainError
from cvmeta.numerics import (
    _ZOOM_POINTS,
    RngState,
    chisq_quantile,
    norm_cdf,
    norm_quantile,
    optimize_1d,
)

from conftest import run_python, scalar_search


class TestNormQuantile:
    def test_median(self):
        assert norm_quantile(0.5) == 0.0

    def test_upper_975(self):
        assert abs(norm_quantile(0.975) - 1.95996398) < 1e-8

    def test_adjusted_level_critical(self):
        # two-sided critical value at the 0.1658 level
        assert abs(norm_quantile(0.9171) - 1.386) < 1e-3

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.1, 1.5])
    def test_domain(self, p):
        with pytest.raises(DomainError):
            norm_quantile(p)

    def test_round_trip_grid(self):
        for p in np.concatenate([[1e-6], np.linspace(0.01, 0.99, 99), [1 - 1e-6]]):
            assert abs(norm_cdf(norm_quantile(p)) - p) <= 1e-9


class TestNormCdf:
    def test_zero(self):
        assert norm_cdf(0.0) == 0.5

    def test_upper(self):
        assert abs(norm_cdf(1.959964) - 0.975) < 1e-7

    def test_symmetry(self):
        for x in (0.3, 1.7, 4.2):
            assert abs(norm_cdf(-x) - (1.0 - norm_cdf(x))) < 1e-15


class TestChisqQuantile:
    def test_exponential_median(self):
        assert abs(chisq_quantile(0.5, 2) - 2.0 * math.log(2.0)) < 1e-9

    def test_df1_95(self):
        assert abs(chisq_quantile(0.95, 1) - 3.841459) < 1e-6

    def test_cdf_round_trip(self):
        # forward CDF via the regularized incomplete gamma; one array call per df
        p = np.array([0.025, 0.5, 0.975])
        for df in (1, 5, 9, 34):
            x = chisq_quantile(p, df)
            assert x.shape == p.shape
            assert np.all(abs(gammainc(df / 2.0, x / 2.0) - p) < 1e-10)

    def test_strictly_increasing(self):
        ps = np.linspace(0.01, 0.99, 99)
        qs = [chisq_quantile(p, 7) for p in ps]
        assert all(a < b for a, b in zip(qs, qs[1:]))

    @pytest.mark.parametrize(
        "p, df", [(0.0, 3), (1.0, 3), (0.5, 0), (0.5, -1.0)],
        ids=["0.0", "1.0", "df_zero", "df_negative"],
    )
    def test_domain(self, p, df):
        with pytest.raises(DomainError):
            chisq_quantile(p, df)


class TestOptimize1d:
    def test_sin_max(self):
        [(arg, val, _)] = optimize_1d(np.sin, 0.0, math.pi / 2, modes=("max",))
        assert abs(arg - math.pi / 2) < 1e-6
        assert abs(val - 1.0) < 1e-9

    def test_cos_min(self):
        [(arg, val, _)] = optimize_1d(np.cos, 0.0, math.pi / 2, modes=("min",))
        assert abs(arg - math.pi / 2) < 1e-6
        assert abs(val) < 1e-9

    def test_multimodal(self):
        # two interior minima on [0, pi/2]; dense scan pins the global one
        f = lambda t: np.sin(7.0 * t) + 0.3 * t
        [(_, val, _)] = optimize_1d(f, 0.0, math.pi / 2, modes=("min",), tol=1e-9)
        grid = np.linspace(0.0, math.pi / 2, 100001)
        dense = min(f(t) for t in grid)
        assert val <= dense + 1e-9

    def test_max_dominates_probes(self):
        rng = np.random.default_rng(5)
        f = lambda t: np.exp(-t) * np.cos(5.0 * t)
        [(_, val, _)] = optimize_1d(f, 0.0, math.pi / 2, modes=("max",))
        for t in rng.uniform(0.0, math.pi / 2, 200):
            assert val >= f(t) - 1e-9

    def test_interior_optimum_takes_seven_calls(self):
        # the grid leaves a bracket of two grid steps, 2/128, around an
        # interior optimum, and each zoom narrows it (_ZOOM_POINTS + 1)/2-fold
        # until it is no wider than tol: 6 zooms at 16.5-fold for 1e-9
        calls = []

        def f(x):
            calls.append(x.shape)
            return (x - 0.3) ** 2

        [(arg, _, n)] = optimize_1d(f, 0.0, 1.0, tol=1e-9)
        zooms = math.ceil(math.log((2 / 128) / 1e-9, (_ZOOM_POINTS + 1) / 2))
        assert len(calls) == 1 + zooms == 7
        assert calls == [(1, 129)] + [(1, _ZOOM_POINTS)] * zooms
        assert n == 129 + zooms * _ZOOM_POINTS
        assert abs(arg - 0.3) <= 1e-9


# Objective families for the lockstep property: each maps (param, t) to values.
OBJECTIVES = {
    "smooth": lambda p, t: np.sin(3.0 * t + p),
    "multimodal": lambda p, t: np.sin((8.0 + 30.0 * abs(p)) * t) + 0.3 * p * t,
    "endpoint": lambda p, t: p * t,
    "tied": lambda p, t: np.floor((2.0 + 4.0 * abs(p)) * t),
    "nan": lambda p, t: np.where(t > 0.8 + 0.5 * p, np.nan, np.cos(5.0 * t)),
    "all_nan": lambda p, t: np.full(np.shape(t), np.nan),
    "inf": lambda p, t: np.where(t < 0.2 + 0.2 * p, -np.inf, t),
}


def stacked(specs, calls=None):
    """One objective per row; ``calls`` collects a copy of every argument array."""

    def f(x):
        if calls is not None:
            calls.append(np.array(x))
        return np.stack([OBJECTIVES[kind](p, row) for (kind, p, _), row in zip(specs, x)])

    return f


def same(r, s):
    """Exact equality of (argopt, value, evaluations), NaN equal to NaN."""
    both_nan = math.isnan(r[1]) and math.isnan(s[1])
    return r[0] == s[0] and r[2] == s[2] and (r[1] == s[1] or both_nan)


TOL_SCRIPT = """
import json, math
from cvmeta.errors import DomainError
from cvmeta.numerics import optimize_1d
out = {}
for name, tol in [("tiny", 1e-17), ("zero", 0.0), ("negative", -1.0), ("nan", math.nan)]:
    try:
        out[name] = optimize_1d(lambda x: (x - 0.9) ** 2, 0.0, 1.0, tol=tol)[0]
    except DomainError:
        out[name] = "DomainError"
print(json.dumps(out))
"""


class TestOptimize1dLockstep:
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        specs=st.lists(
            st.tuples(
                st.sampled_from(sorted(OBJECTIVES)),
                st.floats(-1.0, 1.0),
                st.sampled_from(["min", "max"]),
            ),
            min_size=1,
            max_size=6,
        ),
        tol=st.sampled_from([1e-7, 1e-9, 1e-3, 0.05]),
    )
    @example(
        specs=list(zip(sorted(OBJECTIVES)[:6], [0.3] * 6, ["min", "max"] * 3)),
        tol=0.05,
    )
    def test_matches_each_mode_alone(self, specs, tol):
        together_calls = []
        together = optimize_1d(
            stacked(specs, together_calls),
            0.0,
            math.pi / 2,
            modes=tuple(m for _, _, m in specs),
            tol=tol,
        )
        assert all(
            (type(x), type(v), type(n)) == (float, float, int) for x, v, n in together
        )
        if tol > 2 * (math.pi / 2) / 128:
            # a tol wider than the two grid steps of a bracket leaves no
            # zoom: the grid call is the only one
            assert len(together_calls) == 1
            assert all(n == 129 for _, _, n in together)
        for spec, got in zip(specs, together):
            calls, used = [], []
            alone = optimize_1d(
                stacked([spec], calls), 0.0, math.pi / 2, modes=(spec[2],), tol=tol
            )
            assert same(got, alone[0])
            assert same(got, scalar_search(stacked([spec]), 0.0, math.pi / 2, spec[2], tol, used))
            # alone, f is called once per zoom of _ZOOM_POINTS counted points,
            # and every argument the search used is one f received
            zooms, rest = divmod(alone[0][2] - 129, _ZOOM_POINTS)
            assert rest == 0 and len(calls) == 1 + zooms
            received = np.concatenate([x.ravel() for x in calls])
            assert set(used) <= set(received.tolist())
            assert np.all((0.0 <= received) & (received <= math.pi / 2))

    def test_one_call_per_zoom_for_all_objectives(self):
        specs = [("smooth", 0.1, "min"), ("endpoint", 1.0, "max"), ("multimodal", 0.5, "min")]
        calls = []
        got = optimize_1d(stacked(specs, calls), 0.0, math.pi / 2, modes=("min", "max", "min"))
        assert calls[0].shape == (3, 129)
        assert all(x.shape == (3, _ZOOM_POINTS) for x in calls[1:])
        # the longest search sets the call count; the others' rows ride along
        assert len(calls) == 1 + (max(n for _, _, n in got) - 129) // _ZOOM_POINTS
        assert all(np.all((0.0 <= x) & (x <= math.pi / 2)) for x in calls)

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(
        lo=st.floats(-10.0, 10.0),
        width=st.floats(1e-3, 10.0),
        at=st.floats(0.0, 1.0),
        tol=st.sampled_from([1e-9, 1e-7, 1e-3, 0.05]),
    )
    def test_finds_the_minimum_of_a_parabola(self, lo, width, at, tol):
        hi = lo + width
        c = min(lo + at * width, hi)
        [(arg, _, _)] = optimize_1d(lambda x: (x - c) ** 2, lo, hi, tol=tol)
        assert abs(arg - c) <= tol

    def test_tol_at_or_below_float_spacing_returns(self):
        # in a fresh interpreter with a timeout, so a search that never ends
        # fails the test instead of hanging the suite
        proc = run_python("-c", TOL_SCRIPT)
        assert proc.returncode == 0, proc.stderr
        out = json.loads(proc.stdout)
        assert out["negative"] == out["nan"] == "DomainError"
        # the bracket stops shrinking at the float spacing near 0.9
        arg, val, _ = out["tiny"]
        assert out["zero"] == out["tiny"]
        assert abs(arg - 0.9) <= 2.0**-52 and val <= 2.0**-100

    @pytest.mark.parametrize(
        "lo, hi, tol, message",
        [
            (1.0, 1.0, 1e-7, "need lo < hi"),
            (1.0, 0.0, 1e-7, "need lo < hi"),
            (0.0, 1.0, -1.0, "tol must be nonnegative"),
            (0.0, 1.0, math.nan, "tol must be nonnegative"),
        ],
        ids=["empty", "reversed", "tol_negative", "tol_nan"],
    )
    def test_rejects_empty_bracket_and_bad_tol(self, lo, hi, tol, message):
        with pytest.raises(DomainError, match=f"^{message}"):
            optimize_1d(np.sin, lo, hi, modes=("min",), tol=tol)

    @pytest.mark.parametrize("modes", [(), ("min", "best")])
    def test_rejects_bad_modes(self, modes):
        with pytest.raises(DomainError):
            optimize_1d(np.sin, 0.0, 1.0, modes=modes)

    @pytest.mark.parametrize(
        "lo, hi",
        [
            (0.0, math.inf),
            (-math.inf, 0.0),
            (-math.inf, math.inf),
            (-1.7e308, 1.7e308),
            (np.float64(-1.7e308), np.float64(1.7e308)),
        ],
    )
    def test_rejects_bounds_that_are_not_finite_or_too_far_apart(self, lo, hi):
        # a non-finite grid, or hi - lo overflowing, gave a bare RuntimeWarning
        # (an error under this suite's filters) and garbage without one
        with pytest.raises(DomainError):
            optimize_1d(np.sin, lo, hi, modes=("min", "max"))


class TestRngState:
    def test_reproducible_streams(self):
        a = RngState(42).stream(7).standard_normal(5)
        b = RngState(42).stream(7).standard_normal(5)
        assert np.array_equal(a, b)

    def test_streams_differ_by_trial(self):
        a = RngState(42).stream(0).standard_normal(5)
        b = RngState(42).stream(1).standard_normal(5)
        assert not np.array_equal(a, b)

    def test_seed_validation(self):
        for seed in (-1, 2**64):
            message = f"^seed must fit in 64 unsigned bits, got {seed}$"
            with pytest.raises(DomainError, match=message):
                RngState(seed)

    @pytest.mark.parametrize("seed", [2.5, 2.0, "2", None, 1.5])
    def test_seed_must_be_an_integer(self, seed):
        # 2.5 once gave seed 2's streams
        with pytest.raises(DomainError, match=f"^seed must be an integer, got {seed!r}$"):
            RngState(seed)

    @pytest.mark.parametrize("trial", [1.5, 1.0, "1"])
    def test_trial_must_be_an_integer(self, trial):
        # 1.5 once gave trial 1's stream
        with pytest.raises(DomainError, match="trial index must be an integer"):
            RngState(42).stream(trial)

    def test_integer_types_keep_their_streams(self):
        expected = RngState(42).stream(7).standard_normal(3)
        for seed, trial in [(np.uint64(42), np.int64(7)), (np.int32(42), np.uint8(7))]:
            assert np.array_equal(RngState(seed).stream(trial).standard_normal(3), expected)

    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 - 1])
    @pytest.mark.parametrize("trial", [0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**96])
    def test_keys_are_seed_sequence_spawn_keys(self, seed, trial):
        seq = np.random.SeedSequence(entropy=seed, spawn_key=(trial,))
        expected = seq.generate_state(2, np.uint64)
        master = RngState(seed)
        (rng,) = master.streams(trial, trial + 1)
        for state in (master.stream(trial).bit_generator.state, rng.bit_generator.state):
            assert state["state"]["key"].tolist() == expected.tolist()
        # counter and buffer too: the whole state of numpy's own construction
        assert repr(master.stream(trial).bit_generator.state) == repr(np.random.Philox(seq).state)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**64 - 1), trial=st.integers(0, 2**70 - 1))
    def test_keys_match_seed_sequence_anywhere(self, seed, trial):
        seq = np.random.SeedSequence(entropy=seed, spawn_key=(trial,))
        key = RngState(seed).stream(trial).bit_generator.state["state"]["key"]
        assert key.tolist() == seq.generate_state(2, np.uint64).tolist()

    @pytest.mark.parametrize("threads", [1, 2, 3, 7])
    def test_streams_draw_as_stream(self, threads):
        # the contiguous chunks run_scenario hands to its workers, 50 trials
        master = RngState(2**40 + 3)
        chunk = -(-50 // threads)
        for start in range(0, 50, chunk):
            stop = min(start + chunk, 50)
            got = [rng.standard_normal(3) for rng in master.streams(start, stop)]
            assert len(got) == stop - start
            for t, draws in zip(range(start, stop), got):
                assert np.array_equal(draws, master.stream(t).standard_normal(3))

    def test_streams_yield_one_rekeyed_generator(self):
        # an item is valid only until the next is taken: taking it re-keys the same object
        master = RngState(42)
        it = master.streams(3, 6)
        first = next(it)
        second = next(it)
        assert first is second
        assert np.array_equal(first.standard_normal(2), master.stream(4).standard_normal(2))
        assert [rng is first for rng in it] == [True]

    @pytest.mark.parametrize("start, match", [(-1, "nonnegative"), (1.5, "must be an integer")])
    def test_streams_start_is_checked(self, start, match):
        with pytest.raises(DomainError, match=match):
            next(RngState(42).streams(start, 4))

"""Substream layout, log-domain accumulation, and interval helpers."""

import ast
import importlib
import pkgutil
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.special
from scipy import stats

import uwbbounds
import uwbbounds.bounds
import uwbbounds.mc
from uwbbounds.mc import Z95, LogAccumulator, log_sums, normal_qq_corr, substream


def test_package_source_imports_no_scipy():
    # every import statement, also those inside functions that an import-time
    # check never runs: numpy is the package's only runtime dependency
    found = []
    for path in sorted(Path(uwbbounds.__file__).resolve().parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {name}" for name in names
                      if name.split(".")[0] == "scipy"]
    assert not found


class TestSubstream:
    def test_reproducible(self):
        a = substream(123, 2, index=7).standard_normal(16)
        b = substream(123, 2, index=7).standard_normal(16)
        np.testing.assert_array_equal(a, b)

    def test_distinct_axes(self):
        base = substream(123, 2, index=7).standard_normal(16)
        for kw in ({"seed": 124}, {"estimator": 3}, {"index": 8}):
            args = {"seed": 123, "estimator": 2, "index": 7}
            args.update(kw)
            other = substream(**args).standard_normal(16)
            assert not np.array_equal(base, other)

    def test_counter_layout(self):
        # key (seed, estimator), block index in the counter's second word
        ref = np.random.Generator(np.random.Philox(
            key=np.array([123, 2], dtype=np.uint64),
            counter=np.array([0, 7, 0, 0], dtype=np.uint64)))
        np.testing.assert_array_equal(substream(123, 2, index=7).random(8), ref.random(8))

    @pytest.mark.parametrize("seed", [0, 9, 2**64 - 1])
    @pytest.mark.parametrize("estimator", [uwbbounds.mc.PAIR_OVERLAP, uwbbounds.mc.UPPER_INFO])
    @pytest.mark.parametrize("total", [1, 512, 1300])
    def test_block_streams_restart_each_block(self, seed, estimator, total):
        # each block draws what a new substream for it draws, even after the
        # last block left a part-used 4-word buffer and a stored 32-bit half
        blocks = list(range(0, total, uwbbounds.bounds.BLOCK))
        for b, (rng, block) in enumerate(
                uwbbounds.bounds._block_streams(seed, estimator, total)):
            fresh = substream(seed, estimator, index=b)
            assert block == slice(blocks[b], min(blocks[b] + uwbbounds.bounds.BLOCK, total))
            # the whole start state: counter, key, buffer and stored half
            assert repr(rng.bit_generator.state) == repr(fresh.bit_generator.state)
            size = block.stop - block.start
            for draw in (lambda g: g.random(dtype=np.float32),
                         lambda g: g.bit_generator.random_raw(3),
                         lambda g: g.standard_normal(size), lambda g: g.random(size)):
                np.testing.assert_array_equal(draw(rng), draw(fresh))
            # leave state behind for the next block: a stored 32-bit half, and
            # an odd number of raw words that leaves the 4-word buffer part-used
            while rng.bit_generator.state["has_uint32"] == 0:
                rng.random(dtype=np.float32)
            rng.bit_generator.random_raw(3 if rng.bit_generator.state["buffer_pos"] == 3 else 1)
            left = rng.bit_generator.state
            assert left["buffer_pos"] < 4 and left["has_uint32"] == 1
        assert b == len(blocks) - 1

    def test_streams_uncorrelated(self):
        # adjacent indices should look independent
        n = 4000
        x = np.array([substream(0, 1, index=i).standard_normal() for i in range(n)])
        y = np.array([substream(0, 1, index=i + 1).standard_normal() for i in range(n)])
        assert abs(np.corrcoef(x, y)[0, 1]) < 0.05

    def test_marginal_uniformity(self):
        u = substream(7, 9).random(1_000_000)
        counts, _ = np.histogram(u, bins=20, range=(0.0, 1.0))
        chi2 = ((counts - 50_000.0) ** 2 / 50_000.0).sum()
        assert stats.chi2.sf(chi2, df=19) > 0.01


class TestLogSumExp:
    @pytest.mark.parametrize("centre", [-1.6e3, 1.6e3])
    @pytest.mark.parametrize("axis", [None, 0, 1])
    def test_matches_scipy(self, axis, centre):
        # paper-scale ln J: thousands of nats, tens of nats of spread
        a = centre + 30.0 * np.random.default_rng(11).normal(size=(37, 81))
        log_sum, log_sumsq = log_sums(a, axis=axis)
        np.testing.assert_allclose(
            log_sum, scipy.special.logsumexp(a, axis=axis), rtol=1e-14, atol=0)
        np.testing.assert_allclose(
            log_sumsq, scipy.special.logsumexp(2.0 * a, axis=axis), rtol=1e-14, atol=0)

    def test_edge_values(self):
        inf, nan = np.inf, np.nan
        a = np.array([[-inf, 3.0, 1.0],     # some -inf entries
                      [-inf, -inf, -inf],   # all -inf: -inf, no warning
                      [inf, 2.0, -inf],     # +inf
                      [1e3, nan, 2.0],      # NaN propagates
                      [inf, nan, 1e3]])
        expect = [np.logaddexp(3.0, 1.0), -inf, inf, nan, nan]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sums = log_sums(a, axis=1)
            whole = log_sums(np.full(4, -inf))[0]
        np.testing.assert_array_equal(sums[0], expect)
        np.testing.assert_array_equal(sums[0], scipy.special.logsumexp(a, axis=1))
        np.testing.assert_array_equal(sums[1], [np.logaddexp(6.0, 2.0), -inf, inf, nan, nan])
        assert whole == -inf

    def test_package_binds_only_this_log_sums(self):
        # one log-domain reduction: no second copy, and no scipy one
        binders = []
        for info in pkgutil.iter_modules(uwbbounds.__path__, "uwbbounds."):
            module = importlib.import_module(info.name)
            assert scipy.special.logsumexp not in vars(module).values(), module.__name__
            assert not hasattr(module, "logsumexp"), module.__name__
            if hasattr(module, "log_sums"):
                assert module.log_sums is uwbbounds.mc.log_sums, module.__name__
                binders.append(module.__name__)
        assert binders == ["uwbbounds.bounds", "uwbbounds.mc"]


class TestLogAccumulator:
    def test_small_known_values(self):
        acc = LogAccumulator.from_log_values(np.log([1.0, 2.0, 3.0]))
        assert np.exp(acc.log_mean) == pytest.approx(2.0, rel=1e-14)
        # sd 1 over sqrt(3) times the mean 2
        assert acc.se_log_mean == pytest.approx(1.0 / (2.0 * np.sqrt(3.0)), rel=1e-12)

    def test_shifted_values(self):
        # same data scaled by e^-5000: log stats shift, relative spread fixed
        acc = LogAccumulator.from_log_values(np.log([1.0, 2.0, 3.0]) - 5000.0)
        assert acc.log_mean == pytest.approx(np.log(2.0) - 5000.0, rel=1e-12)
        assert acc.se_log_mean == pytest.approx(1.0 / (2.0 * np.sqrt(3.0)), rel=1e-9)

    def test_zero_variance(self):
        acc = LogAccumulator.from_log_values(np.full(10, -321.5))
        assert acc.log_mean == pytest.approx(-321.5)
        # the excess of n sum x^2 over (sum x)^2 is rounding only
        assert acc.se_log_mean == 0.0

    @pytest.mark.parametrize("value", [-321.5, 0.0, 1622.9, -3215.0])
    def test_zero_variance_at_any_magnitude(self, value):
        # the rounding in the log excess grows with |log_sum| (at -321.5 it
        # passes 1e-14), so only a cutoff relative to the terms reads it as 0
        acc = LogAccumulator.from_log_values(np.full(400, value))
        assert acc.se_log_mean == 0.0
        columns = LogAccumulator(400, *log_sums(np.full((400, 3), value), axis=0))
        assert np.all(columns.se_log_mean == 0.0)

    def test_rejects_nonfinite(self):
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError):
                LogAccumulator.from_log_values(np.array([0.0, bad]))
        with pytest.raises(ValueError):
            LogAccumulator.from_log_values(np.array([]))

    def test_matches_direct_sums(self):
        rng = np.random.default_rng(3)
        v = rng.normal(size=1001) * 50.0
        acc = LogAccumulator.from_log_values(v)
        assert acc.log_sum == pytest.approx(np.log(np.exp(v).sum()), rel=1e-12)
        assert acc.log_sumsq == pytest.approx(np.log(np.exp(2.0 * v).sum()), rel=1e-12)

    def test_order_of_magnitude_spread(self):
        acc = LogAccumulator.from_log_values(np.array([-5000.0, -5000.0, -5010.0]))
        assert acc.log_sum == pytest.approx(-5000.0 + np.log(2.0 + np.exp(-10.0)), abs=1e-12)

    def test_split_invariance(self):
        # combining the log-sums of blocks must equal one-shot accumulation
        rng = np.random.default_rng(4)
        v = rng.normal(size=777) * 100.0
        whole = LogAccumulator.from_log_values(v)
        head = LogAccumulator.from_log_values(v[:300])
        tail = LogAccumulator.from_log_values(v[300:])
        assert np.logaddexp(head.log_sum, tail.log_sum) == pytest.approx(whole.log_sum, rel=1e-13)
        assert np.logaddexp(head.log_sumsq, tail.log_sumsq) == pytest.approx(
            whole.log_sumsq, rel=1e-13)

    def test_se_needs_two_samples(self):
        acc = LogAccumulator.from_log_values(np.array([-12.0]))
        assert acc.log_mean == -12.0
        with pytest.raises(ValueError, match="count >= 2"):
            acc.se_log_mean

    def test_column_sums_match_scalar_accumulators(self):
        # per-column sums in one accumulator, as the lower bound keeps its strata
        rng = np.random.default_rng(6)
        v = rng.normal(size=(400, 7)) * 40.0 - 2000.0
        v[:, 3] = 0.0           # a constant column, summed exactly: standard error 0
        log_sum, log_sumsq = log_sums(v, axis=0)
        columns = LogAccumulator(v.shape[0], log_sum, log_sumsq)
        scalars = [LogAccumulator.from_log_values(col) for col in v.T]
        np.testing.assert_allclose(columns.log_mean, [acc.log_mean for acc in scalars],
                                   rtol=1e-14)
        np.testing.assert_allclose(columns.se_log_mean, [acc.se_log_mean for acc in scalars],
                                   rtol=1e-12)
        assert columns.se_log_mean[3] == 0.0

    def test_se_matches_direct(self):
        rng = np.random.default_rng(5)
        x = np.abs(rng.normal(size=500)) + 0.1
        acc = LogAccumulator.from_log_values(np.log(x))
        direct = x.std(ddof=1) / np.sqrt(500) / x.mean()
        assert acc.se_log_mean == pytest.approx(direct, rel=1e-10)


class TestIntervals:
    def test_z95_is_normal_quantile(self):
        assert Z95 == stats.norm.ppf(0.975)

    def test_qq_corr(self):
        rng = np.random.default_rng(7)
        assert normal_qq_corr(rng.normal(size=5000)) > 0.999
        assert normal_qq_corr(rng.exponential(size=5000)) < 0.99
        assert normal_qq_corr(np.zeros(10)) == 1.0

    @pytest.mark.parametrize("size", [3, 5000, 40_500])
    @pytest.mark.parametrize("shape", ["normal", "exponential", "cubed-normal"])
    def test_qq_corr_matches_probplot(self, shape, size):
        rng = np.random.default_rng(size)
        x = {"normal": lambda: rng.normal(size=size),
             "exponential": lambda: rng.exponential(size=size),
             "cubed-normal": lambda: rng.normal(size=size) ** 3}[shape]()
        (_, _), (_, _, r) = stats.probplot(x)
        assert normal_qq_corr(x) == pytest.approx(r, abs=1e-12)

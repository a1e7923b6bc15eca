"""Tests for footprint compilation and sampling."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.kernel.footprint import (
    FETCH_STRIDE,
    CompiledFootprint,
    FootprintCompiler,
    FootprintStep,
)


@pytest.fixture(scope="module")
def compiler(request):
    layout = request.getfixturevalue("layout")
    return FootprintCompiler(layout)


class TestStepValidation:
    def test_requires_function_or_range(self):
        with pytest.raises(ValueError, match="function name or an explicit range"):
            FootprintStep(function=None)

    def test_explicit_range_ok(self):
        step = FootprintStep(function=None, address=0x1000, size=0x100)
        assert step.address == 0x1000

    def test_rejects_nonpositive_iterations(self):
        with pytest.raises(ValueError, match="iterations"):
            FootprintStep(function="schedule", iterations=0)

    def test_rejects_bad_coverage(self):
        with pytest.raises(ValueError, match="coverage"):
            FootprintStep(function="schedule", coverage=0.0)
        with pytest.raises(ValueError, match="coverage"):
            FootprintStep(function="schedule", coverage=1.5)

    def test_rejects_negative_jitter(self):
        with pytest.raises(ValueError, match="jitter"):
            FootprintStep(function="schedule", jitter=-0.1)

    def test_rejects_nonpositive_explicit_size(self):
        with pytest.raises(ValueError, match="size"):
            FootprintStep(function=None, address=0x1000, size=0)


class TestCompilation:
    def test_addresses_cover_function_at_stride(self, compiler, layout):
        fn = layout.symbol("schedule")
        footprint = compiler.compile([FootprintStep(function="schedule")])
        expected = np.arange(fn.address, fn.end_address, FETCH_STRIDE)
        np.testing.assert_array_equal(footprint.addresses, expected)

    def test_coverage_limits_addresses(self, compiler, layout):
        fn = layout.symbol("schedule")
        full = compiler.compile([FootprintStep(function="schedule")])
        half = compiler.compile([FootprintStep(function="schedule", coverage=0.5)])
        assert 0 < half.num_addresses < full.num_addresses
        # Covered prefix starts at the function entry.
        assert half.addresses[0] == fn.address

    def test_multi_step_concatenation(self, compiler):
        footprint = compiler.compile(
            [
                FootprintStep(function="sys_read"),
                FootprintStep(function="vfs_read", iterations=3.0),
            ]
        )
        assert footprint.num_steps == 2
        assert footprint.step_lengths.sum() == footprint.num_addresses
        np.testing.assert_array_equal(footprint.mean_iterations, [1.0, 3.0])

    def test_explicit_range_step(self, compiler):
        footprint = compiler.compile(
            [FootprintStep(function=None, address=0xBF000000, size=0x200)]
        )
        assert footprint.addresses[0] == 0xBF000000
        assert footprint.addresses[-1] < 0xBF000200

    def test_empty_footprint_rejected(self, compiler):
        with pytest.raises(ValueError, match="at least one step"):
            compiler.compile([])

    def test_bad_stride_rejected(self, layout):
        with pytest.raises(ValueError, match="stride"):
            FootprintCompiler(layout, stride=0)

    def test_small_function_yields_at_least_one_address(self, compiler, layout):
        # sys_getpid is 0x40 bytes; with tiny coverage it must still
        # produce a fetch.
        footprint = compiler.compile(
            [FootprintStep(function="sys_getpid", coverage=0.01)]
        )
        assert footprint.num_addresses >= 1


class TestSampling:
    def test_sample_shapes(self, compiler, rng):
        footprint = compiler.compile(
            [
                FootprintStep(function="sys_read", iterations=2.0),
                FootprintStep(function="memcpy", iterations=5.0),
            ]
        )
        addresses, weights = footprint.sample(rng)
        assert addresses.shape == weights.shape
        assert (weights >= 1).all()

    def test_weights_constant_within_step(self, compiler, rng):
        footprint = compiler.compile(
            [
                FootprintStep(function="sys_read", iterations=4.0),
                FootprintStep(function="memcpy", iterations=9.0),
            ]
        )
        _, weights = footprint.sample(rng)
        lengths = footprint.step_lengths
        first = weights[: lengths[0]]
        second = weights[lengths[0] :]
        assert len(set(first.tolist())) == 1
        assert len(set(second.tolist())) == 1

    def test_zero_jitter_gives_mean(self, compiler, rng):
        footprint = compiler.compile(
            [FootprintStep(function="sys_read", iterations=3.0, jitter=0.0)]
        )
        _, weights = footprint.sample(rng)
        assert (weights == 3).all()

    def test_mean_burst_is_deterministic(self, compiler):
        footprint = compiler.compile(
            [FootprintStep(function="sys_read", iterations=2.6)]
        )
        addresses_a, weights_a = footprint.mean()
        addresses_b, weights_b = footprint.mean()
        np.testing.assert_array_equal(addresses_a, addresses_b)
        np.testing.assert_array_equal(weights_a, weights_b)
        assert (weights_a == 3).all()  # rint(2.6)

    def test_mean_total_accesses(self, compiler):
        footprint = compiler.compile(
            [FootprintStep(function="sys_read", iterations=2.0)]
        )
        assert footprint.mean_total_accesses == 2.0 * footprint.num_addresses

    def test_addresses_are_readonly(self, compiler):
        footprint = compiler.compile([FootprintStep(function="sys_read")])
        with pytest.raises(ValueError):
            footprint.addresses[0] = 0

    @given(iterations=st.floats(min_value=0.1, max_value=100.0))
    @settings(max_examples=50, deadline=None)
    def test_sampled_weights_never_below_one(self, iterations):
        footprint = CompiledFootprint(
            addresses=np.arange(10),
            step_lengths=np.array([10]),
            mean_iterations=np.array([iterations]),
            jitters=np.array([0.5]),
        )
        rng = np.random.default_rng(0)
        for _ in range(20):
            _, weights = footprint.sample(rng)
            assert (weights >= 1).all()


class TestSampleIterations:
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        means=st.lists(
            st.floats(min_value=0.1, max_value=500.0), min_size=1, max_size=20
        ),
        jitter=st.floats(min_value=0.0, max_value=1.0),
        jitter_scale=st.sampled_from((0.0, 0.5, 1.0, 1.7)),
    )
    @settings(max_examples=200, deadline=None)
    def test_same_draws_as_rng_normal(self, seed, means, jitter, jitter_scale):
        """The counts equal the ``rng.normal``-based formula draw for
        draw, and leave the generator in the same state."""
        steps = len(means)
        jitters = np.full(steps, jitter)
        jitters[::3] = 0.0
        footprint = CompiledFootprint(
            addresses=np.arange(steps),
            step_lengths=np.ones(steps, dtype=np.int64),
            mean_iterations=np.array(means),
            jitters=jitters,
        )
        fast, reference = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(5):
            iters = footprint.sample_iterations(fast, jitter_scale)
            noise = reference.normal(loc=1.0, scale=jitters * jitter_scale)
            expected = np.maximum(1, np.rint(np.array(means) * noise)).astype(np.int64)
            assert iters.dtype == np.int64
            np.testing.assert_array_equal(iters, expected)
        assert fast.random() == reference.random()

    def test_sample_expands_the_same_draw(self, compiler):
        footprint = compiler.compile(
            [
                FootprintStep(function="sys_read", iterations=4.0),
                FootprintStep(function="memcpy", iterations=9.0),
            ]
        )
        iters = footprint.sample_iterations(np.random.default_rng(5))
        addresses, weights = footprint.sample(np.random.default_rng(5))
        assert addresses is footprint.addresses
        np.testing.assert_array_equal(weights, np.repeat(iters, footprint.step_lengths))
        np.testing.assert_array_equal(weights, footprint.weights(iters))


class TestCompiledValidation:
    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="cover"):
            CompiledFootprint(
                addresses=np.arange(5),
                step_lengths=np.array([3]),
                mean_iterations=np.array([1.0]),
                jitters=np.array([0.1]),
            )

    def test_per_step_arrays_must_match(self):
        with pytest.raises(ValueError, match="equal length"):
            CompiledFootprint(
                addresses=np.arange(5),
                step_lengths=np.array([5]),
                mean_iterations=np.array([1.0, 2.0]),
                jitters=np.array([0.1]),
            )

"""Platform-level oracle for the cell-domain Memometer path.

A ``pre-l1`` platform whose Memometer is the kernel's only probe takes
the cell-domain path (:meth:`Memometer.observe_footprint`).  Attaching
an extra :class:`TraceRecorder` forces every kernel burst back onto the
address path, with the same RNG draws — so for one seed the two
platforms must produce the same MHM series and syscall matrix, bit for
bit, on every profile, on an SMP platform and under every attack.
The cache placements must keep the address path.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.hw.cache import CacheFilter
from repro.hw.memometer import Memometer
from repro.pipeline.scenario import ScenarioRunner
from repro.pipeline.stages import SCENARIOS, make_attack, scenario_reversible
from repro.sim.fleet import profile_config
from repro.sim.platform import Platform, PlatformConfig
from repro.sim.smp import partition_tasks
from repro.sim.trace import TraceRecorder

INTERVALS = 12


def build(config: PlatformConfig, address_path: bool) -> Platform:
    platform = Platform(config)
    if address_path:
        platform.kernel.attach_probe(TraceRecorder())
    return platform


def assert_same_outputs(cell: Platform, address: Platform) -> None:
    np.testing.assert_array_equal(
        cell.heatmap_series().matrix(dtype=np.int64),
        address.heatmap_series().matrix(dtype=np.int64),
    )
    np.testing.assert_array_equal(cell.syscall_matrix(), address.syscall_matrix())
    assert cell.memometer.snooped_accesses == address.memometer.snooped_accesses
    assert cell.memometer.accepted_accesses == address.memometer.accepted_accesses


@pytest.fixture
def footprint_calls(monkeypatch):
    """Counts Memometer.observe_footprint calls across all instances."""
    calls = []
    original = Memometer.observe_footprint

    def spy(self, footprint, iters):
        calls.append(footprint)
        return original(self, footprint, iters)

    monkeypatch.setattr(Memometer, "observe_footprint", spy)
    return calls


class TestRouting:
    def test_sole_memometer_takes_the_cell_path(self, footprint_calls):
        platform = Platform(PlatformConfig(seed=1))
        platform.run_intervals(2)
        assert footprint_calls

    def test_extra_probe_forces_the_address_path(self, footprint_calls):
        recorder = TraceRecorder()
        platform = Platform(PlatformConfig(seed=1))
        platform.kernel.attach_probe(recorder)
        platform.run_intervals(2)
        assert not footprint_calls
        assert any(kind.startswith("syscall.") for kind in recorder.kinds())

    def test_detaching_the_extra_probe_restores_the_cell_path(self, footprint_calls):
        recorder = TraceRecorder()
        platform = Platform(PlatformConfig(seed=1))
        platform.kernel.attach_probe(recorder)
        platform.run_intervals(1)
        assert not footprint_calls
        platform.kernel.detach_probe(recorder)
        platform.run_intervals(1)
        assert footprint_calls

    @pytest.mark.parametrize("placement", ["post-l1", "post-l2"])
    def test_cache_placements_keep_the_address_path(
        self, placement, footprint_calls, monkeypatch
    ):
        filtered = []
        original = CacheFilter.observe_burst

        def spy(self, burst):
            filtered.append(burst.kind)
            return original(self, burst)

        monkeypatch.setattr(CacheFilter, "observe_burst", spy)
        platform = Platform(PlatformConfig(seed=1, placement=placement))
        platform.run_intervals(2)
        assert not footprint_calls
        assert any(kind.startswith("syscall.") for kind in filtered)
        assert all(cache.hits + cache.misses > 0 for cache in platform.caches)
        assert platform.heatmap_series().traffic_volumes().sum() > 0


class TestOracle:
    @pytest.mark.parametrize("profile", ["baseline", "rtos", "netload"])
    def test_profiles(self, profile):
        config = profile_config(profile).with_seed(31)
        cell, address = build(config, False), build(config, True)
        cell.run_intervals(INTERVALS)
        address.run_intervals(INTERVALS)
        assert_same_outputs(cell, address)

    def test_two_core_smp(self):
        base = PlatformConfig(seed=32)
        config = replace(
            base, monitored_cores=2, tasks=tuple(partition_tasks(base.tasks, 2))
        )
        cell, address = build(config, False), build(config, True)
        cell.run_intervals(INTERVALS)
        address.run_intervals(INTERVALS)
        assert_same_outputs(cell, address)

    @pytest.mark.parametrize("scenario", sorted(SCENARIOS))
    def test_attacks(self, scenario):
        results = []
        for address_path in (False, True):
            platform = build(PlatformConfig(seed=33), address_path)
            result = ScenarioRunner(platform).run(
                make_attack(scenario),
                pre_intervals=3,
                attack_intervals=6,
                post_intervals=2 if scenario_reversible(scenario) else 0,
            )
            results.append((platform, result))
        (cell, cell_result), (address, address_result) = results
        assert_same_outputs(cell, address)
        np.testing.assert_array_equal(cell_result.syscalls, address_result.syscalls)
        assert [e.label for e in cell_result.events] == [
            e.label for e in address_result.events
        ]

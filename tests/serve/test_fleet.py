"""Fleet simulator: deterministic specs, truth labels, stream purity."""

import numpy as np
import pytest

from repro.sim.fleet import (
    PROFILES,
    DeviceSpec,
    DeviceStream,
    FleetSimulator,
    build_fleet_specs,
    profile_config,
)
from repro.sim.platform import Platform


class TestProfiles:
    def test_known_profiles(self):
        assert set(PROFILES) == {"baseline", "rtos", "netload"}

    def test_profile_config_builds(self):
        for name in PROFILES:
            config = profile_config(name)
            assert config.interval_ns > 0

    def test_unknown_profile_rejected(self):
        with pytest.raises(ValueError, match="unknown device profile"):
            profile_config("toaster")


class TestBuildFleetSpecs:
    def test_deterministic(self):
        a = build_fleet_specs(6, 20, root_seed=3, attacked_devices=2)
        b = build_fleet_specs(6, 20, root_seed=3, attacked_devices=2)
        assert a == b

    def test_seed_changes_device_seeds(self):
        a = build_fleet_specs(4, 10, root_seed=1)
        b = build_fleet_specs(4, 10, root_seed=2)
        assert [s.seed for s in a] != [s.seed for s in b]

    def test_device_seeds_distinct(self):
        specs = build_fleet_specs(16, 10, root_seed=0)
        seeds = [s.seed for s in specs]
        assert len(set(seeds)) == len(seeds)

    def test_profiles_cycle(self):
        specs = build_fleet_specs(6, 10, profiles=("baseline", "rtos"))
        assert [s.profile for s in specs] == ["baseline", "rtos"] * 3

    def test_attacks_spread_and_scenarios_cycle(self):
        specs = build_fleet_specs(
            8,
            20,
            attacked_devices=3,
            attack_scenarios=("shellcode", "rootkit"),
        )
        attacked = [s for s in specs if s.attacked]
        assert len(attacked) == 3
        # Spread across the index range, not clustered at the front.
        assert [s.index for s in attacked] == [0, 2, 5]
        assert [s.scenario for s in attacked] == [
            "shellcode",
            "rootkit",
            "shellcode",
        ]
        for spec in attacked:
            assert spec.inject_interval == 10

    def test_only_reversible_attacks_revert(self):
        specs = build_fleet_specs(
            3, 40, attacked_devices=3,
            attack_scenarios=("app-launch", "shellcode", "rootkit"),
        )
        by_scenario = {s.scenario: s for s in specs}
        # app-launch (qsort exits) and rootkit (module unhooks) are
        # reversible; the shellcode permanently kills its host task.
        assert by_scenario["app-launch"].revert_interval is not None
        assert by_scenario["rootkit"].revert_interval is not None
        assert by_scenario["shellcode"].revert_interval is None

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(devices=0, intervals=10),
            dict(devices=2, intervals=0),
            dict(devices=2, intervals=10, attacked_devices=3),
            dict(devices=2, intervals=10, inject_fraction=1.5),
            dict(devices=2, intervals=10, profiles=()),
            dict(devices=2, intervals=10, profiles=("bogus",)),
            dict(devices=2, intervals=10, attacked_devices=1,
                 attack_scenarios=("bogus",)),
        ],
    )
    def test_invalid_inputs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            build_fleet_specs(**kwargs)


class TestDeviceSpecValidation:
    def test_attack_needs_inject_interval(self):
        with pytest.raises(ValueError, match="inject_interval"):
            DeviceSpec(
                device_id="d", index=0, profile="baseline", seed=1,
                scenario="shellcode",
            )

    def test_revert_after_inject(self):
        with pytest.raises(ValueError, match="revert_interval"):
            DeviceSpec(
                device_id="d", index=0, profile="baseline", seed=1,
                scenario="app-launch", inject_interval=5, revert_interval=5,
            )


class TestDeviceStream:
    def test_truth_labels_bracket_attack_window(self):
        spec = DeviceSpec(
            device_id="d", index=0, profile="baseline", seed=99,
            scenario="app-launch", inject_interval=2, revert_interval=4,
        )
        stream = DeviceStream(spec)
        truths = [stream.next_interval().truth for _ in range(7)]
        assert truths == [False, False, True, True, True, False, False]

    def test_benign_device_never_true(self):
        spec = DeviceSpec(device_id="d", index=0, profile="baseline", seed=99)
        stream = DeviceStream(spec)
        records = [stream.next_interval() for _ in range(4)]
        assert all(not r.truth for r in records)
        assert [r.interval_index for r in records] == [0, 1, 2, 3]
        assert all(r.vector.dtype == np.float64 for r in records)

    def test_archives_stay_bounded_while_indices_keep_counting(self):
        spec = DeviceSpec(device_id="d", index=0, profile="netload", seed=7)
        stream = DeviceStream(spec)
        platform = stream.platform
        for i in range(200):
            record = stream.next_interval()
            assert record.interval_index == i
            assert len(platform.secure_core.heatmaps) <= 1
            assert len(platform._syscall_rows) <= 1
        assert platform.intervals_completed == 200
        assert platform.secure_core.intervals_received == 200
        assert platform.memometer.intervals_completed == 200
        with pytest.raises(ValueError, match="released"):
            platform.secure_core.series(start=0)
        with pytest.raises(ValueError, match="released"):
            platform.syscall_matrix(start=199)

    def test_stream_records_equal_a_batch_collection(self):
        """The released records are exactly what a batch consumer of
        the same seed keeps in its (complete) archives."""
        spec = DeviceSpec(device_id="d", index=0, profile="baseline", seed=8)
        stream = DeviceStream(spec)
        records = [stream.next_interval() for _ in range(30)]
        batch = Platform(profile_config("baseline").with_seed(8))
        series = batch.collect_intervals(30)
        assert len(series) == len(batch.secure_core.heatmaps) == 30
        syscalls = batch.syscall_matrix()
        assert syscalls.shape[0] == 30
        for i, record in enumerate(records):
            np.testing.assert_array_equal(record.vector, series[i].as_vector())
            np.testing.assert_array_equal(record.syscalls, syscalls[i])
            assert record.time_ns == series[i].start_time_ns


class TestFleetSimulator:
    def test_interleaving_order(self):
        specs = build_fleet_specs(3, 4, root_seed=5)
        sim = FleetSimulator(specs)
        records = list(sim.run(2))
        assert [r.device_index for r in records] == [0, 1, 2, 0, 1, 2]
        assert [r.interval_index for r in records] == [0, 0, 0, 1, 1, 1]

    def test_stream_purity(self):
        """A device's records don't depend on the rest of the fleet.

        This is the foundation of the serial ≡ sharded contract: the
        same spec alone and inside a fleet emits bit-identical MHMs.
        """
        specs = build_fleet_specs(3, 3, root_seed=5, attacked_devices=1)
        fleet_records = [
            r for r in FleetSimulator(specs).run(3) if r.device_index == 1
        ]
        solo_records = list(FleetSimulator([specs[1]]).run(3))
        assert len(fleet_records) == len(solo_records) == 3
        for a, b in zip(fleet_records, solo_records):
            assert a.interval_index == b.interval_index
            assert a.truth == b.truth
            np.testing.assert_array_equal(a.vector, b.vector)

    def test_empty_fleet_rejected(self):
        with pytest.raises(ValueError, match="at least one device"):
            FleetSimulator([])

"""The bus-conformance oracle: lockstep ≡ async, bit for bit.

The lockstep executor is the *reference semantics* — a welded serial
loop whose reports the whole historical suite pins.  The async
executor reimplements the same data plane as bus subscribers.  This
suite is the contract between them: for every configuration both
support, the canonical fleet reports (per-device digest chains
included) must be **bit-identical** — across executors, across shard
counts, under fault plans and under either modality.

Cadence and recalibration runs have no lockstep twin (both are
async-only features); for those the oracle degrades to async-internal
shard invariance plus spot-checked semantics.
"""

import dataclasses

import pytest

from repro import faults
from repro.serve import FleetService, health_summary

pytestmark = pytest.mark.bus


def _run(config, *, fault_plan=None, **overrides):
    return FleetService(
        dataclasses.replace(config, **overrides), fault_plan=fault_plan
    ).run()


@pytest.fixture(scope="module")
def lockstep_report(base_config):
    return FleetService(base_config).run()


class TestExecutorIdentity:
    @pytest.mark.parametrize("shards", [1, 2, 4])
    def test_async_matches_lockstep_bitwise(
        self, lockstep_report, base_config, shards
    ):
        report = _run(base_config, executor="async", shards=shards)
        assert report.canonical_dict() == lockstep_report.canonical_dict()
        assert report.fleet_digest == lockstep_report.fleet_digest

    def test_executor_is_recorded_but_not_digested(
        self, lockstep_report, base_config
    ):
        report = _run(base_config, executor="async")
        assert report.executor == "async"
        assert lockstep_report.executor == "lockstep"
        # canonical_dict pops the executor field: the digests carry
        # the *scores*, not the machinery that produced them.
        assert "executor" not in report.canonical_dict()

    def test_async_ledger_is_clean(self, base_config):
        report = _run(base_config, executor="async")
        assert report.emitted == report.scored
        assert report.dropped == 0 and report.skipped == 0
        assert report.bus["published"] >= report.emitted
        assert health_summary(report)["ready"] is True


class TestFaultedIdentity:
    @pytest.mark.parametrize(
        "sites",
        [
            {"serve.score": dict(probability=0.3, mode="corrupt")},
            {"serve.score": dict(probability=0.3, mode="raise")},
        ],
        ids=["corrupt", "raise"],
    )
    def test_score_faults_identical_across_executors(
        self, base_config, sites
    ):
        def plan():
            return faults.FaultPlan(
                seed=5,
                sites={
                    site: faults.FaultSpec(**spec)
                    for site, spec in sites.items()
                },
            )

        lockstep = _run(base_config, fault_plan=plan())
        assert lockstep.skipped > 0  # the plan actually fired
        for shards in (1, 2):
            report = _run(
                base_config, executor="async", shards=shards,
                fault_plan=plan(),
            )
            assert report.canonical_dict() == lockstep.canonical_dict()

    def test_skip_positions_are_batch_composition_independent(
        self, base_config
    ):
        """The regression pinned by the PR-10 ordering fix: a skipped
        record must land at its own interval position in the digest
        chain whether it was scored in a 32-record lockstep batch or a
        4-record bus batch."""
        plan = faults.FaultPlan(
            seed=5,
            sites={
                "serve.score": faults.FaultSpec(
                    probability=0.3, mode="corrupt"
                )
            },
        )
        report = _run(
            base_config, fault_plan=plan, keep_densities=True
        )
        for entry in report.device_reports:
            expected_skips = [
                i
                for i in range(base_config.intervals)
                if plan.would_fire(
                    "serve.score", f"{entry.device_id}@{i}"
                )
            ]
            actual_skips = [
                i
                for i, density in enumerate(entry.log_densities)
                if density != density  # NaN
            ]
            assert actual_skips == expected_skips


class TestModalityIdentity:
    @pytest.fixture(scope="class")
    def ensemble_config(self, base_config):
        return dataclasses.replace(
            base_config, intervals=24, modality="ensemble"
        )

    def test_ensemble_identical_across_executors(self, ensemble_config):
        lockstep = FleetService(ensemble_config).run()
        report = _run(ensemble_config, executor="async", shards=2)
        assert report.canonical_dict() == lockstep.canonical_dict()


class TestCadences:
    def test_cadence_run_is_shard_invariant(self, base_config):
        reference = _run(
            base_config, executor="async", cadences=(1, 2), intervals=16
        )
        sharded = _run(
            base_config, executor="async", cadences=(1, 2), intervals=16,
            shards=2,
        )
        assert sharded.canonical_dict() == reference.canonical_dict()

    def test_cadence_emission_counts_and_health(self, base_config):
        report = _run(
            base_config, executor="async", cadences=(1, 2), intervals=16
        )
        by_cadence = {}
        for entry in report.device_reports:
            by_cadence.setdefault(entry.cadence, []).append(entry.emitted)
        # Device i gets cadences[i % 2]: two full-rate, two half-rate.
        assert by_cadence == {1: [16, 16], 2: [8, 8]}
        assert report.emitted == 48
        summary = health_summary(report)
        assert summary["ready"] is True  # the complete check is
        # cadence-aware: 8 emitted records on a cadence-2 device is full

    def test_cadence_one_everywhere_matches_lockstep(
        self, lockstep_report, base_config
    ):
        """cadences=(1,) is the degenerate case: every device ticks
        every step, so the run must equal the cadence-free reference."""
        report = _run(base_config, executor="async", cadences=(1,))
        canonical = report.canonical_dict()
        assert canonical == lockstep_report.canonical_dict()

    def test_cadences_rejected_under_lockstep(self, base_config):
        with pytest.raises(ValueError, match="async"):
            dataclasses.replace(base_config, cadences=(1, 2))

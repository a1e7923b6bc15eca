"""The benchmark's three workloads.

Each workload has a cold set-up (``train``), optional input generation
(``prepare``), a timed unit of work (``run_unit``) that ``run.py``
repeats until its time is up, and output checks.  Only the generated
inputs reach the program; every seed is derived from the benchmark's
``--seed``.

* ``fleet-steady`` — ``FleetService.run``, 8 devices on the
  baseline/rtos/netload mix, no attacks, modality ``mhm``, executor
  and dtype left at the ``ServeConfig`` defaults.
* ``fleet-attack`` — ``FleetService.run``, 8 devices with 4 attacked
  (the seven scenarios cycled across units), ``executor="async"``,
  modality ``ensemble``, recalibration on, full telemetry.
* ``score-replay`` — simulated MHM and syscall records replayed as a
  256-device virtual fleet through ``ShardWorker.score_batch`` in
  batches of 32, then ``ShardWorker.device_report`` for every device.
"""

from __future__ import annotations

import hashlib
import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro import faults, kernels, obs
from repro.hw.memometer import COUNTER_MAX
from repro.pipeline.cache import ArtifactCache
from repro.pipeline.stages import SCENARIOS
from repro.serve import (
    SERVE_TRACE_CATEGORIES,
    DetectorRegistry,
    DriftMonitor,
    FleetService,
    RecalibrationPolicy,
    ServeConfig,
    ShardWorker,
)
from repro.sim.fleet import (
    DeviceSpec,
    DeviceStream,
    FleetSimulator,
    IntervalRecord,
    build_fleet_specs,
)

from stats import Ledger, Speed

__all__ = ["WORKLOADS", "UnitResult", "make_workload", "derive_seed"]

#: Recorded fleet digests: ``{workload: {seed: [unit 0, unit 1, ...]}}``.
DIGESTS_PATH = Path(__file__).resolve().parent / "digests.json"

#: Scores sampled per run for the reference-backend comparison, and the
#: absolute tolerance of the differential contract in docs/kernels.md.
REFERENCE_SAMPLES = 8
REFERENCE_TOLERANCE = 1e-9

#: Root seed of the profile detectors.  Training is the same work on
#: every run, so ``setup_s`` and the scoring cost do not vary with
#: ``--seed``; the device streams and replay pool do.
TRAIN_SEED = 0

# Seed-derivation tags (SeedSequence entropy words).
_UNIT, _WARMUP, _POOL, _SAMPLE = 1, 2, 3, 4
WARMUP_UNIT = -1


def derive_seed(seed: int, tag: int, index: int = 0) -> int:
    """A 32-bit seed that is a pure function of its arguments."""
    words = [int(seed), tag, index + 1]
    return int(np.random.SeedSequence(words).generate_state(1, np.uint32)[0])


def fleet_digest(device_digests: Sequence[str]) -> str:
    """sha256 chaining device digests in device order (as ``FleetReport``)."""
    fleet = hashlib.sha256()
    for digest in device_digests:
        fleet.update(digest.encode())
    return fleet.hexdigest()


def recorded_digests(workload: str, seed: int) -> List[str]:
    if not DIGESTS_PATH.exists():
        return []
    table = json.loads(DIGESTS_PATH.read_text())
    return table.get(workload, {}).get(str(seed), [])


@dataclass
class UnitResult:
    """One timed unit: a ``FleetService.run`` call or a replay session."""

    index: int
    wall_ns: int
    scored: int
    digest: str
    device_digests: Dict[str, str]
    counts: Dict[str, int] = field(default_factory=dict)
    attacked_alarmed: int = 0
    attacked: int = 0
    benign_alarmed: int = 0
    benign: int = 0
    detection_latencies: List[int] = field(default_factory=list)
    #: Wall time of each ``score_batch`` call in the unit (untraced runs).
    batch_ns: List[int] = field(default_factory=list)
    #: The host's speed while the unit ran (untraced runs).
    speed: Optional[Speed] = None

    @property
    def throughput(self) -> float:
        return self.scored / (self.wall_ns / 1e9)

    @property
    def scale(self) -> float:
        """Host speed over the unit against the reference speed: the
        unit's wall time times this is its time at the reference speed."""
        return self.speed.scale

    @property
    def call_scale(self) -> float:
        """The same for a single call (see ``stats.Speed``)."""
        return self.speed.call_scale

    @property
    def adjusted_s(self) -> float:
        """The unit's wall time at the reference host speed."""
        return self.wall_ns / 1e9 * self.scale


class Workload:
    name = ""
    modality = "mhm"

    def __init__(self, seed: int, fault_plan: Optional[faults.FaultPlan] = None):
        self.seed = seed
        self.fault_plan = fault_plan
        self.ledger = Ledger()
        self.cache_dir: Optional[Path] = None

    # -- set-up --------------------------------------------------------
    def serve_config(self, **overrides) -> ServeConfig:
        return ServeConfig(
            seed=TRAIN_SEED,
            modality=self.modality,
            cache_dir=str(self.cache_dir) if self.cache_dir else None,
            **overrides,
        )

    def train(self, cache_dir: Path) -> Dict[str, dict]:
        """Cold training of every profile detector into ``cache_dir`` —
        the registry call a first ``repro serve`` makes."""
        config = self.serve_config()
        registry = DetectorRegistry(
            root_seed=config.seed, train=config.train, cache=ArtifactCache(cache_dir)
        )
        return registry.fleet_payload(config.profiles, modality=config.modality)

    def prepare(self, payload: Dict[str, dict]) -> None:
        """Untimed work between set-up and the timed phase."""

    def run_unit(self, index: int, recorder=None) -> UnitResult:
        raise NotImplementedError

    def check_sample(self, unit: UnitResult) -> None:
        raise NotImplementedError

    def describe(self) -> List[str]:
        """Lines about the inputs, printed with the results."""
        return []

    # -- output checks -------------------------------------------------
    def check_digest(self, unit: UnitResult) -> None:
        recorded = recorded_digests(self.name, self.seed)
        if 0 <= unit.index < len(recorded):
            self.ledger.check(
                f"digest[unit {unit.index}]",
                unit.digest == recorded[unit.index],
                f"{unit.digest[:16]} != recorded {recorded[unit.index][:16]}",
            )

    def _reference_scores(
        self,
        scorer: kernels.FleetScorer,
        records: Sequence[IntervalRecord],
        state,
        label: str,
    ) -> None:
        """A seeded sample of the scores a worker stored in ``state``
        (its ``DeviceState``) against the reference backend: the MHM
        log-densities and, under a second modality, the context scores."""
        by_index = {record.interval_index: record for record in records}
        stored = [
            (i, index) for i, index in enumerate(state.interval_indices)
            if np.isfinite(state.log_densities[i])
        ]
        if not stored:
            self.ledger.check(f"reference[{label}]", False, "no scored sample")
            return
        rng = np.random.default_rng(derive_seed(self.seed, _SAMPLE, 1))
        picks = sorted(
            rng.choice(len(stored), size=min(REFERENCE_SAMPLES, len(stored)),
                       replace=False)
        )
        positions = [stored[i][0] for i in picks]
        chosen = [by_index[stored[i][1]] for i in picks]
        matrix = np.stack([record.vector for record in chosen])
        kwargs = {}
        if scorer.has_context:
            kwargs = dict(
                syscalls=np.stack([record.syscalls for record in chosen]),
                interval_indices=[record.interval_index for record in chosen],
            )
        with kernels.use_backend("reference"):
            oracle = scorer.score(matrix, pad_to=32, **kwargs)
        run = np.array([state.log_densities[i] for i in positions])
        worst = float(np.max(np.abs(run - oracle.log_densities)))
        if scorer.has_context:
            run_context = np.array([state.context_scores[i] for i in positions])
            worst = max(
                worst, float(np.max(np.abs(run_context - oracle.context_scores)))
            )
        self.ledger.check(
            f"reference[{label}]",
            worst <= REFERENCE_TOLERANCE,
            f"max |run - reference| = {worst:.3e} > {REFERENCE_TOLERANCE}",
        )


@contextmanager
def captured_workers():
    """Collect every ``ShardWorker`` that writes a device report while
    the block runs, so its stored per-interval scores can be read."""
    workers: List[ShardWorker] = []
    original = ShardWorker.device_report

    def device_report(self, *args, **kwargs):
        workers.append(self)
        return original(self, *args, **kwargs)

    ShardWorker.device_report = device_report
    try:
        yield workers
    finally:
        ShardWorker.device_report = original


# ----------------------------------------------------------------------
# Fleet workloads
# ----------------------------------------------------------------------
class FixedFleetService(FleetService):
    """``FleetService`` over a given spec list.

    The detectors stay keyed on ``config.seed`` (warm cache); the
    device streams come from the benchmark's per-unit seed, so no two
    timed units replay the same inputs.
    """

    def __init__(self, config: ServeConfig, specs: Sequence[DeviceSpec], **kwargs):
        super().__init__(config, **kwargs)
        self._specs = list(specs)

    def build_specs(self):
        return list(self._specs)


class FleetWorkload(Workload):
    devices = 8
    intervals: int
    attacked = 0
    telemetry = False

    def config_overrides(self) -> dict:
        return {}

    def config(self, **overrides) -> ServeConfig:
        return self.serve_config(
            devices=self.devices,
            intervals=self.intervals,
            attacked_devices=self.attacked,
            **self.config_overrides(),
            **overrides,
        )

    def specs(self, index: int) -> List[DeviceSpec]:
        config = self.config()
        tag = _WARMUP if index == WARMUP_UNIT else _UNIT
        scenarios = sorted(SCENARIOS)
        # Rotate the scenario list so successive units cycle all seven.
        shift = (max(index, 0) * self.attacked) % len(scenarios)
        return build_fleet_specs(
            devices=config.devices,
            intervals=config.intervals,
            root_seed=derive_seed(self.seed, tag, max(index, 0)),
            profiles=config.profiles,
            attacked_devices=config.attacked_devices,
            attack_scenarios=scenarios[shift:] + scenarios[:shift],
            inject_fraction=config.inject_fraction,
        )

    def run_unit(self, index: int, recorder=None) -> UnitResult:
        config = self.config()
        service = FixedFleetService(
            config, self.specs(index), fault_plan=self.fault_plan
        )
        if self.telemetry:
            obs.enable(trace_categories=SERVE_TRACE_CATEGORIES)
        try:
            start = time.perf_counter_ns()
            report = service.run()
            wall_ns = time.perf_counter_ns() - start
            counts = {}
            if self.telemetry:
                counts["obs.log.records"] = obs.logger().seq
                counts["obs.trace.events"] = len(obs.tracer().events)
        finally:
            if self.telemetry:
                obs.disable()
        if recorder is not None:
            recorder.wall_ns += wall_ns
        bus = report.bus or {}
        if bus:
            counts["serve.bus.block_waits"] = report.block_stalls
            counts["serve.bus.dropped"] = bus.get("dropped", 0)
            counts["serve.bus.shed"] = bus.get("shed", 0)
            recalibration = bus.get("recalibration", {})
            counts["serve.recalibrate.commits"] = recalibration.get("committed", 0)
            counts["serve.recalibrate.rejects"] = recalibration.get("rejected", 0)
        unit = UnitResult(
            index=index,
            wall_ns=wall_ns,
            scored=report.scored,
            digest=report.fleet_digest,
            device_digests={r.device_id: r.digest for r in report.device_reports},
            counts=counts,
        )
        for entry in report.device_reports:
            if entry.scenario is not None:
                unit.attacked += 1
                unit.attacked_alarmed += entry.alarms > 0
                if entry.detection_latency is not None:
                    unit.detection_latencies.append(entry.detection_latency)
            else:
                unit.benign += 1
                unit.benign_alarmed += entry.alarms > 0
        if index != WARMUP_UNIT:
            self._check_report(unit, report)
        return unit

    def _check_report(self, unit: UnitResult, report) -> None:
        ledger = self.ledger
        before = ledger.failed
        for entry in report.device_reports:
            ledger.add_device(
                expected=self.intervals,
                emitted=entry.emitted,
                scored=entry.scored,
                skipped=entry.skipped,
                dropped=entry.dropped,
            )
        ledger.check(
            f"ledger[unit {unit.index}]",
            ledger.failed == before and len(report.device_reports) == self.devices,
            "device-intervals skipped, dropped or unaccounted",
        )
        if report.bus is not None:
            ledger.check(
                f"bus[unit {unit.index}]",
                not report.bus.get("failures")
                and report.bus.get("subscribers_poisoned", 0) == 0
                and report.bus.get("publish_lost", 0) == 0,
                "bus reported failures",
            )
        self.check_digest(unit)

    def check_sample(self, unit: UnitResult) -> None:
        """Re-run one seeded device alone and compare with ``unit``;
        compare a seeded sample of the scores that re-run stored with
        the reference backend.  The digests agreeing ties those scores
        to the timed run's."""
        specs = self.specs(unit.index)
        rng = np.random.default_rng(derive_seed(self.seed, _SAMPLE))
        spec = specs[int(rng.integers(len(specs)))]
        with captured_workers() as workers:
            alone = FixedFleetService(
                self.config(), [spec], fault_plan=self.fault_plan
            ).run()
        entry = alone.device_reports[0]
        self.ledger.check(
            f"device-alone[{spec.device_id}]",
            entry.digest == unit.device_digests.get(spec.device_id),
            "device re-run alone changed its digest",
        )
        stream = DeviceStream(spec)
        records = [stream.next_interval() for _ in range(self.intervals)]
        payload = self.train(self.cache_dir)  # warm: loads from the cache
        detectors, contexts = DetectorRegistry.from_fleet_payload(payload)
        scorer = kernels.FleetScorer.from_detectors(
            detectors[spec.profile],
            contexts[spec.profile] if contexts and self.modality != "mhm" else None,
        )
        state = workers[0].states[spec.device_id]
        self._reference_scores(scorer, records, state, spec.device_id)


class FleetSteady(FleetWorkload):
    name = "fleet-steady"
    modality = "mhm"
    intervals = ServeConfig().intervals  # what `repro serve` runs


class FleetAttack(FleetWorkload):
    name = "fleet-attack"
    modality = "ensemble"
    # Long enough for drift proposals to reach canary commits.
    intervals = 100
    attacked = 4
    telemetry = True

    def config_overrides(self) -> dict:
        return dict(
            executor="async", recalibration=RecalibrationPolicy(enabled=True)
        )


# ----------------------------------------------------------------------
# Score replay
# ----------------------------------------------------------------------
class ScoreReplay(Workload):
    name = "score-replay"
    modality = "ensemble"
    fleet = 256
    intervals = 32  # per virtual device per session
    pool_devices = 12
    pool_intervals = 40  # a multiple of the context hyperperiod

    def prepare(self, payload: Dict[str, dict]) -> None:
        self.detectors, self.contexts = DetectorRegistry.from_fleet_payload(payload)
        periods = {context.hyperperiod for context in self.contexts.values()}
        if len(periods) != 1:
            raise ValueError(f"profiles disagree on the hyperperiod: {periods}")
        self.hyperperiod = periods.pop()
        if self.pool_intervals % self.hyperperiod:
            raise ValueError("pool length must be a multiple of the hyperperiod")
        self.generation_s = 0.0
        start = time.perf_counter()
        specs = build_fleet_specs(
            self.pool_devices,
            self.pool_intervals,
            root_seed=derive_seed(self.seed, _POOL),
        )
        self.pool_specs = specs
        self.pool: List[List[IntervalRecord]] = [[] for _ in specs]
        for record in FleetSimulator(specs).run(self.pool_intervals):
            self.pool[record.device_index].append(record)
        self.pool_s = time.perf_counter() - start
        self.num_cells = len(self.pool[0][0].vector)
        self.vocabulary = len(self.pool[0][0].syscalls)
        for stream in self.pool:
            for record in stream:
                self._check_record(record, "pool")
        self.scored_total = 0

    def _check_record(self, record: IntervalRecord, where: str) -> None:
        vector = record.vector
        ok = (
            vector.shape == (self.num_cells,)
            and bool(np.all(np.isfinite(vector)))
            and float(vector.min()) >= 0
            and float(vector.max()) <= COUNTER_MAX
            and record.syscalls is not None
            and record.syscalls.shape == (self.vocabulary,)
        )
        self.ledger.check(
            f"well-formed[{where}]", ok,
            f"{record.device_id}@{record.interval_index} malformed",
        )

    def session(self, index: int):
        """One session's virtual fleet and its round-robin record stream.

        Virtual device *v* replays pool stream ``(v + index) % P`` from
        an offset that is a multiple of the hyperperiod, so a source
        record's syscall phase matches its new interval index.
        """
        pool_len = self.pool_intervals
        phases = pool_len // self.hyperperiod
        start = time.perf_counter()
        specs, sources = [], []
        for v in range(self.fleet):
            source = (v + index) % self.pool_devices
            offset = self.hyperperiod * ((v // self.pool_devices + index) % phases)
            pool_spec = self.pool_specs[source]
            specs.append(
                DeviceSpec(
                    device_id=f"vdev-{v:04d}",
                    index=v,
                    profile=pool_spec.profile,
                    seed=pool_spec.seed,
                )
            )
            sources.append((source, offset))
        records = []
        in_phase = True
        for k in range(self.intervals):
            phase = k % self.hyperperiod
            for spec, (source, offset) in zip(specs, sources):
                src = self.pool[source][(offset + k) % pool_len]
                in_phase &= src.interval_index % self.hyperperiod == phase
                records.append(
                    replace(
                        src,
                        device_index=spec.index,
                        device_id=spec.device_id,
                        interval_index=k,
                        time_ns=k * 10_000_000,
                        trace=None,
                    )
                )
        self.generation_s += time.perf_counter() - start
        self.ledger.check(
            "well-formed[phase]", in_phase,
            "a replayed record left its context-hyperperiod phase",
        )
        self._check_indices(specs, records)
        return specs, records

    def _check_indices(self, specs, records) -> None:
        """Each virtual device's interval indices: monotone, gap-free."""
        expected = {spec.device_id: 0 for spec in specs}
        ok = True
        for record in records:
            if record.interval_index != expected[record.device_id]:
                ok = False
                break
            expected[record.device_id] += 1
        self.ledger.check("well-formed[indices]", ok, "virtual stream malformed")

    def worker(self, specs) -> ShardWorker:
        config = self.serve_config()
        return ShardWorker(
            self.detectors,
            specs,
            p_percent=config.p_percent,
            consecutive_for_alarm=config.consecutive_for_alarm,
            batch_pad=config.batch_size,
            drift=DriftMonitor(config.drift),
            modality=config.modality,
            context_detectors=self.contexts,
            ensemble=config.ensemble,
        )

    def _score(self, specs, records):
        batch = self.serve_config().batch_size
        with faults.injected(self.fault_plan):
            worker = self.worker(specs)
            for start in range(0, len(records), batch):
                worker.score_batch(records[start:start + batch])
            reports = [worker.device_report(spec, 0) for spec in specs]
        return worker, reports

    def run_unit(self, index: int, recorder=None) -> UnitResult:
        specs, records = self.session(index)
        start = time.perf_counter_ns()
        _, reports = self._score(specs, records)
        wall_ns = time.perf_counter_ns() - start
        if recorder is not None:
            recorder.wall_ns += wall_ns
        unit = UnitResult(
            index=index,
            wall_ns=wall_ns,
            scored=sum(r.scored for r in reports),
            digest=fleet_digest([r.digest for r in reports]),
            device_digests={r.device_id: r.digest for r in reports},
        )
        if index != WARMUP_UNIT:
            self.scored_total += len(records)
            before = self.ledger.failed
            for entry in reports:
                self.ledger.add_device(
                    expected=self.intervals,
                    emitted=entry.emitted,
                    scored=entry.scored,
                    skipped=entry.skipped,
                    dropped=entry.dropped,
                )
            self.ledger.check(
                f"ledger[unit {index}]", self.ledger.failed == before,
                "device-intervals skipped, dropped or unaccounted",
            )
            self.check_digest(unit)
        return unit

    def check_sample(self, unit: UnitResult) -> None:
        specs, records = self.session(unit.index)
        rng = np.random.default_rng(derive_seed(self.seed, _SAMPLE))
        spec = specs[int(rng.integers(len(specs)))]
        own = [record for record in records if record.device_id == spec.device_id]
        worker, reports = self._score([spec], own)
        self.ledger.check(
            f"device-alone[{spec.device_id}]",
            reports[0].digest == unit.device_digests.get(spec.device_id),
            "device re-run alone changed its digest",
        )
        scorer = kernels.FleetScorer.from_detectors(
            self.detectors[spec.profile], self.contexts[spec.profile]
        )
        self._reference_scores(
            scorer, own, worker.states[spec.device_id], spec.device_id
        )

    def describe(self) -> List[str]:
        pool = self.pool_devices * self.pool_intervals
        return [
            f"replay pool: {pool} records ({self.pool_devices} devices x "
            f"{self.pool_intervals} intervals), simulated in {self.pool_s:.2f} s",
            f"replay generation: {self.generation_s:.2f} s "
            "(outside every end-to-end metric)",
            f"replay repeat factor: {self.scored_total / pool:.1f} "
            f"({self.scored_total} records replayed from {pool})",
        ]


WORKLOADS = {
    cls.name: cls for cls in (FleetSteady, FleetAttack, ScoreReplay)
}


def make_workload(name: str, seed: int, fault_plan=None) -> Workload:
    return WORKLOADS[name](seed, fault_plan=fault_plan)

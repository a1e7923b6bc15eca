"""Tests for the Kernel facade."""

import numpy as np
import pytest

from repro.sim.engine import Simulator
from repro.sim.kernel.kernel import Kernel
from repro.sim.kernel.layout import KernelLayout, default_layout
from repro.sim.trace import TraceRecorder


@pytest.fixture()
def kernel(layout):
    return Kernel(Simulator(), np.random.default_rng(0), layout=layout)


class TestDefaultLayout:
    def test_kernels_share_one_default_layout(self):
        first = Kernel(Simulator(), np.random.default_rng(0))
        second = Kernel(Simulator(), np.random.default_rng(1))
        assert first.layout is second.layout is default_layout()

    def test_shared_layout_equals_a_fresh_build(self):
        fresh = KernelLayout()
        assert default_layout().functions == fresh.functions


class TestEmission:
    def test_syscall_emits_one_burst(self, kernel):
        recorder = TraceRecorder()
        kernel.attach_probe(recorder)
        latency = kernel.invoke_syscall("read")
        assert latency > 0
        assert len(recorder.bursts) == 1
        assert recorder.bursts[0].kind == "syscall.read"

    def test_unknown_syscall_raises(self, kernel):
        with pytest.raises(KeyError):
            kernel.invoke_syscall("frobnicate")

    def test_run_service(self, kernel):
        recorder = TraceRecorder()
        kernel.attach_probe(recorder)
        kernel.run_service("kernel.tick")
        assert recorder.kinds() == {"kernel.tick"}

    def test_invocation_counts(self, kernel):
        kernel.invoke_syscall("read")
        kernel.invoke_syscall("read")
        kernel.invoke_syscall("write")
        assert kernel.invocation_count("syscall.read") == 2
        assert kernel.invocation_count("syscall.write") == 1
        assert kernel.invocation_count("syscall.open") == 0

    def test_detach_probe(self, kernel):
        recorder = TraceRecorder()
        kernel.attach_probe(recorder)
        kernel.detach_probe(recorder)
        kernel.invoke_syscall("read")
        assert not recorder.bursts

    def test_core_tag_propagates(self, kernel):
        recorder = TraceRecorder()
        kernel.attach_probe(recorder)
        kernel.invoke_syscall("read", core=1)
        kernel.run_service("kernel.tick", core=2)
        assert [b.core for b in recorder.bursts] == [1, 2]

    def test_user_burst(self, kernel):
        recorder = TraceRecorder()
        kernel.attach_probe(recorder)
        addresses = np.array([0x10000, 0x10010], dtype=np.int64)
        kernel.emit_user_burst(addresses, np.ones(2, dtype=np.int64))
        assert recorder.bursts[0].kind == "user"


class TestJitterScale:
    def test_zero_scale_is_deterministic(self, layout):
        bursts = []
        for _ in range(2):
            kernel = Kernel(
                Simulator(), np.random.default_rng(0), layout=layout, jitter_scale=0.0
            )
            recorder = TraceRecorder()
            kernel.attach_probe(recorder)
            kernel.invoke_syscall("read")
            bursts.append(recorder.bursts[0])
        np.testing.assert_array_equal(bursts[0].weights, bursts[1].weights)
        # With zero jitter every weight is the rounded mean.
        service = bursts[0]
        assert service.weights.min() >= 1

    def test_scale_reduces_weight_variance(self, layout):
        def weight_std(scale):
            kernel = Kernel(
                Simulator(),
                np.random.default_rng(0),
                layout=layout,
                jitter_scale=scale,
            )
            recorder = TraceRecorder()
            kernel.attach_probe(recorder)
            totals = []
            for _ in range(200):
                kernel.invoke_syscall("read")
            totals = [b.total_accesses for b in recorder.bursts]
            return np.std(totals)

        assert weight_std(0.1) < weight_std(1.0)

    def test_negative_scale_rejected(self, layout):
        with pytest.raises(ValueError):
            Kernel(
                Simulator(), np.random.default_rng(0), layout=layout, jitter_scale=-1.0
            )


class TestSysctl:
    def test_latency_is_sum_of_three_calls(self, kernel):
        recorder = TraceRecorder()
        kernel.attach_probe(recorder)
        kernel.sysctl_write("kernel/printk", 4)
        kinds = [b.kind for b in recorder.bursts]
        assert kinds == [
            "syscall.open_procsys",
            "syscall.write_procsys",
            "syscall.close",
        ]

    def test_hijacked_syscall_counts_both(self, kernel):
        from repro.sim.kernel.footprint import FootprintStep
        from repro.sim.kernel.syscalls import KernelService

        wrapper = KernelService(
            name="w",
            footprint=kernel.compiler.compile(
                [FootprintStep(function=None, address=0xBF000000, size=0x100)]
            ),
            latency_ns=1_000,
        )
        kernel.syscall_table.hijack("read", wrapper, extra_latency_ns=7_000)
        recorder = TraceRecorder()
        kernel.attach_probe(recorder)
        kernel.invoke_syscall("read")
        assert [b.kind for b in recorder.bursts] == ["hijack.read", "syscall.read"]
        assert kernel.invocation_count("hijack.read") == 1
        assert kernel.invocation_count("syscall.read") == 1

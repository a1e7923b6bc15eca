"""Tests for kernel services and the syscall table."""

import numpy as np
import pytest

from repro.sim.kernel.footprint import FootprintCompiler, FootprintStep
from repro.sim.kernel.syscalls import (
    DEFAULT_SYSCALLS,
    KernelService,
    ServiceRegistry,
    SyscallTable,
    build_default_services,
)


@pytest.fixture(scope="module")
def services(request):
    layout = request.getfixturevalue("layout")
    return build_default_services(layout)


@pytest.fixture(scope="module")
def registry(services):
    return services[0]


@pytest.fixture(scope="module")
def table(services):
    return services[1]


def _toy_service(layout, name="toy"):
    compiler = FootprintCompiler(layout)
    footprint = compiler.compile([FootprintStep(function="sys_getpid")])
    return KernelService(name=name, footprint=footprint, latency_ns=1_000)


class TestRegistry:
    def test_register_and_get(self, layout):
        registry = ServiceRegistry()
        service = registry.register(_toy_service(layout))
        assert registry.get("toy") is service
        assert "toy" in registry
        assert len(registry) == 1

    def test_duplicate_rejected(self, layout):
        registry = ServiceRegistry()
        registry.register(_toy_service(layout))
        with pytest.raises(ValueError, match="already registered"):
            registry.register(_toy_service(layout))

    def test_unknown_service(self):
        with pytest.raises(KeyError, match="unknown kernel service"):
            ServiceRegistry().get("nope")


class TestDefaultServices:
    def test_every_syscall_has_a_service(self, registry, table):
        for name in DEFAULT_SYSCALLS:
            assert name in table
            assert registry.get(f"syscall.{name}") is table.entry(name)

    @pytest.mark.parametrize(
        "name",
        [
            "kernel.tick",
            "kernel.context_switch",
            "kernel.job_release",
            "kernel.page_fault",
            "kernel.idle",
            "kernel.kworker",
        ],
    )
    def test_housekeeping_services_exist(self, registry, name):
        assert name in registry

    def test_syscall_services_share_entry_path(self, registry, layout):
        """Every syscall footprint fetches the SWI vector and entry stub."""
        vector = layout.symbol("vector_swi")
        for name in ("read", "write", "open", "fork", "exit_group"):
            service = registry.get(f"syscall.{name}")
            addresses = service.footprint.addresses
            in_vector = (addresses >= vector.address) & (
                addresses < vector.end_address
            )
            assert in_vector.any(), name

    def test_read_touches_vfs(self, registry, layout):
        vfs_read = layout.symbol("vfs_read")
        addresses = registry.get("syscall.read").footprint.addresses
        hit = (addresses >= vfs_read.address) & (addresses < vfs_read.end_address)
        assert hit.any()

    def test_init_module_is_heavy(self, registry):
        """The loader burst must dominate an ordinary syscall (Figure 9)."""
        load = registry.get("syscall.init_module").footprint.mean_total_accesses
        read = registry.get("syscall.read").footprint.mean_total_accesses
        assert load > 20 * read

    def test_latency_sampling_positive(self, registry, rng):
        for name in ("syscall.read", "kernel.tick"):
            service = registry.get(name)
            for _ in range(50):
                assert service.sample_latency(rng) > 0

    def test_kworker_reaches_drivers(self, registry, layout):
        addresses = registry.get("kernel.kworker").footprint.addresses
        subsystems = {layout.subsystem_of(int(a)) for a in addresses}
        assert "drivers" in subsystems


class TestSyscallTable:
    def test_unknown_syscall(self, table):
        with pytest.raises(KeyError, match="unknown syscall"):
            table.entry("frobnicate")

    def test_resolve_unhijacked(self, table):
        service, hijack = table.resolve("read")
        assert service.name == "syscall.read"
        assert hijack is None

    def test_hijack_and_restore(self, layout):
        registry, table = build_default_services(layout)
        wrapper = _toy_service(layout, name="evil")
        table.hijack("read", wrapper, extra_latency_ns=5_000)
        assert table.is_hijacked("read")
        service, hijack = table.resolve("read")
        assert service.name == "syscall.read"  # original still reachable
        assert hijack.wrapper is wrapper
        assert hijack.extra_latency_ns == 5_000
        table.restore("read")
        assert not table.is_hijacked("read")
        assert table.resolve("read")[1] is None

    def test_double_hijack_rejected(self, layout):
        _, table = build_default_services(layout)
        wrapper = _toy_service(layout, name="evil2")
        table.hijack("read", wrapper)
        with pytest.raises(ValueError, match="already hijacked"):
            table.hijack("read", wrapper)

    def test_restore_unhijacked_raises(self, layout):
        _, table = build_default_services(layout)
        with pytest.raises(KeyError):
            table.restore("read")

    def test_syscalls_listing(self, table):
        names = table.syscalls()
        assert "read" in names
        assert names == sorted(names)


class TestServiceSampling:
    def test_burst_addresses_within_footprint(self, registry, rng):
        service = registry.get("syscall.read")
        addresses, weights = service.footprint.sample(rng)
        np.testing.assert_array_equal(addresses, service.footprint.addresses)
        assert weights.min() >= 1

"""The synthetic embedded kernel: layout, services, scheduler, processes."""

from .aslr import RANDOMIZE_VA_SPACE, AslrState
from .kernel import Kernel
from .layout import (
    KERNEL_TEXT_BASE,
    KERNEL_TEXT_END,
    KERNEL_TEXT_SIZE,
    MODULE_SPACE_BASE,
    KernelFunction,
    KernelLayout,
    default_heatmap_spec,
    default_layout,
)
from .modules import LoadedModule, ModuleLoader
from .process import ProcessManager, ProcessRecord
from .scheduler import RMScheduler, TaskControl, TaskStats
from .syscalls import (
    DEFAULT_SYSCALLS,
    KernelService,
    ServiceRegistry,
    SyscallTable,
    build_default_services,
)

__all__ = [
    "Kernel",
    "KernelLayout",
    "KernelFunction",
    "KERNEL_TEXT_BASE",
    "KERNEL_TEXT_END",
    "KERNEL_TEXT_SIZE",
    "MODULE_SPACE_BASE",
    "default_heatmap_spec",
    "default_layout",
    "AslrState",
    "RANDOMIZE_VA_SPACE",
    "LoadedModule",
    "ModuleLoader",
    "ProcessManager",
    "ProcessRecord",
    "RMScheduler",
    "TaskControl",
    "TaskStats",
    "KernelService",
    "ServiceRegistry",
    "SyscallTable",
    "DEFAULT_SYSCALLS",
    "build_default_services",
]

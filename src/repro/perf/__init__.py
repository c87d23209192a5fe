"""``repro.perf`` — the performance trajectory subsystem.

:mod:`repro.perf.manifest` / :mod:`repro.perf.report` are the kernel
benchmark manifest behind ``repro bench manifest``: they time the substrate
kernels (current vs. pinned ``_*_loop`` references) and write the schema'd
``BENCH_<n>.json``.  The end-to-end benchmark lives in ``e2ebench/``.

The manifest pulls in the data generators and the algorithm modules, so it
is imported lazily — ``from repro.perf import run_manifest`` still
works, but ``import repro.perf`` alone stays cheap.
"""

from __future__ import annotations

__all__ = [
    # lazy (see __getattr__): manifest + report API
    "BENCH_SCHEMA",
    "KernelSpec",
    "all_kernel_names",
    "run_manifest",
    "compare_manifests",
    "format_comparison",
    "load_bench",
    "write_bench",
]

_LAZY = {
    "BENCH_SCHEMA": "repro.perf.report",
    "KernelSpec": "repro.perf.manifest",
    "all_kernel_names": "repro.perf.manifest",
    "run_manifest": "repro.perf.manifest",
    "compare_manifests": "repro.perf.report",
    "format_comparison": "repro.perf.report",
    "load_bench": "repro.perf.report",
    "write_bench": "repro.perf.report",
}


def __getattr__(name: str):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), name)

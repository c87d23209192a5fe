"""One benchmark pass in a fresh interpreter; ``run.py`` starts it.

Modes:

* ``pass``  — set up, run the timed phase, check the outputs, write a JSON
  result to ``--out``;
* ``setup`` — set up only (another ``setup_s`` sample);
* ``prime`` — run the cold catalog into ``--caches`` (the warm workload's
  primed roots).

``--spawned-at`` is the parent's ``time.monotonic()`` just before the
interpreter was started, so ``setup_s`` counts interpreter start, imports and
workload set-up.  Only ``--trace 1`` imports :mod:`layers`.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path


def _cpu_seconds() -> float:
    times = os.times()
    return times.user + times.system


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--root", required=True, type=Path)
    parser.add_argument("--caches", type=Path)
    parser.add_argument("--mode", choices=("pass", "setup", "prime"), default="pass")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--limit", type=int)
    parser.add_argument("--record", action="store_true", help="return the reference payload, skip checks")
    ns = parser.parse_args(argv)

    import workloads

    name = "catalog-cold" if ns.mode == "prime" else ns.workload
    workload = workloads.make_workload(name, limit=ns.limit)
    started = time.perf_counter()
    workload.imports()
    import_s = time.perf_counter() - started
    ctx = workload.setup(ns.root, ns.seed, caches=ns.caches)
    result = {"import_s": import_s}

    recorder = patches = None
    if ns.trace:
        import layers

        recorder = layers.Recorder()
        patches = layers.install(recorder)

    setup_end = time.monotonic()
    result["setup_s"] = setup_end - ns.spawned_at
    if ns.mode == "setup":
        ns.out.write_text(json.dumps(result))
        return 0

    cpu0 = _cpu_seconds()
    t0 = time.perf_counter()
    outputs = workload.run(ctx)
    result["wall_s"] = time.perf_counter() - t0
    result["cpu_s"] = _cpu_seconds() - cpu0
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if patches is not None:
        import layers
        from metrics import layer_metrics

        layers.uninstall(patches)
        result["leaked_wrappers"] = layers.wrapped_bindings()
        result["layers"] = layer_metrics(recorder, cell_count_metrics=isinstance(workload, workloads.CatalogWorkload))
    result["layers_loaded"] = "layers" in sys.modules
    result["counters"] = workload.counters(outputs)

    if ns.mode == "prime":
        result["attempted"], result["failures"] = len(outputs["records"]), list(outputs["failures"])
    elif ns.record:
        result["reference"] = workload.reference(outputs)
        if isinstance(workload, workloads.VolumeWorkload):
            import numpy as np

            np.savez(ns.out.with_suffix(".npz"), **workload.surfaces(outputs))
    else:
        result["attempted"], result["failures"] = workload.check(outputs, workloads.load_reference(workload))
    ns.out.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

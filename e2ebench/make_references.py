"""Regenerate the stored correctness references from the current code.

Run from the root of a checkout, after checking that the current outputs
are the ones to pin (``repro suite diff`` against a trusted store, the verify
matrix clean)::

    python3 e2ebench/make_references.py [--workload NAME ...]
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

import numpy as np

import run
import workloads


def _record(checkout: Path, workload: str, seed: int, work: Path) -> dict:
    ns = argparse.Namespace(workload=workload, seed=seed, limit=None)
    runner = run.Runner(checkout, work, ns)
    caches = None
    if workload == "catalog-warm":
        caches = work / "primed-caches"
        if runner.worker("prime", caches=caches) is None:
            raise SystemExit(f"priming failed: {runner.crashes}")
    result = runner.worker("pass", caches=caches, extra=["--record"])
    if result is None:
        raise SystemExit(f"{workload} failed: {runner.crashes}")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=workloads.WORKLOADS)
    ns = parser.parse_args(argv)
    checkout = Path.cwd()
    work = checkout / ".e2ebench_work" / "references"
    shutil.rmtree(work, ignore_errors=True)
    workloads.REFERENCE_DIR.mkdir(exist_ok=True)
    try:
        for name in ns.workload or workloads.WORKLOADS:
            workload = workloads.make_workload(name)
            if name == "volume-ops":
                variants, surfaces = {}, {}
                for variant in range(workloads.VOLUME_VARIANTS):
                    result = _record(checkout, name, variant, work / f"v{variant}")
                    variants[str(variant)] = result["reference"]
                    with np.load(Path(result["root"]) / "result.npz") as data:
                        surfaces.update({key: data[key] for key in data.files})
                payload = {"variants": variants}
                np.savez_compressed(workloads.REFERENCE_DIR / "volume-ops-surfaces.npz", **surfaces)
            else:
                payload = _record(checkout, name, 0, work / name)["reference"]
            path = workloads.REFERENCE_DIR / workload.reference_name()
            path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
            print(f"wrote {path.relative_to(checkout)}")
    finally:
        shutil.rmtree(checkout / ".e2ebench_work", ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Metamorphic & differential verification of the visualization substrate.

The evaluation harness judges LLM-generated scripts against the simulated
substrate (algorithms + rendering + engine).  This package verifies the
substrate itself:

* :mod:`~repro.verify.relations` — a registry of metamorphic relations
  (``@register_relation``): camera orbits, resolution rescaling, affine
  input transforms that must commute with contour/slice/clip/threshold,
  filter reorderings, and cache/determinism differential checks;
* :mod:`~repro.verify.runner` — the scenario × relation matrix, run by the
  shared :class:`~repro.scenarios.matrix.MatrixRunner` (resumable JSONL
  verdict store), reusing the shared tiered cache so variant pairs compute
  shared prefixes once;
* :mod:`~repro.verify.goldens` — a content-addressed golden-artifact store
  (NPZ screenshots + canonical scripts) with tolerance-aware comparators,
  catching the symmetric regressions pairwise relations cannot see;
* :mod:`~repro.verify.comparators` / :mod:`~repro.verify.pipelines` — the
  shared comparison and execution plumbing.

Front door: ``repro verify {run,report,update-goldens,relations}``.
"""

from repro.scenarios.report import VerifyReport, build_verify_report, load_verify_report
from repro.verify.comparators import (
    ComparatorResult,
    compare_images,
    dataset_stats_close,
    datasets_close,
    images_identical,
)
from repro.verify.goldens import GoldenEntry, GoldenStore
from repro.verify.relations import (
    MetamorphicRelation,
    RelationContext,
    RelationOutcome,
    all_relations,
    get_relation,
    inject_mutation,
    register_relation,
    relation_names,
    relations_for,
)
from repro.verify.runner import (
    DEFAULT_VERIFY_RESOLUTION,
    VerifyRunner,
    VerifyRunSummary,
    run_verify_cell,
    verify_cell_key,
)

__all__ = [
    "ComparatorResult",
    "DEFAULT_VERIFY_RESOLUTION",
    "GoldenEntry",
    "GoldenStore",
    "MetamorphicRelation",
    "RelationContext",
    "RelationOutcome",
    "VerifyReport",
    "VerifyRunSummary",
    "VerifyRunner",
    "all_relations",
    "build_verify_report",
    "compare_images",
    "dataset_stats_close",
    "datasets_close",
    "get_relation",
    "images_identical",
    "inject_mutation",
    "load_verify_report",
    "register_relation",
    "relation_names",
    "relations_for",
    "run_verify_cell",
    "verify_cell_key",
]

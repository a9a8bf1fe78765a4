"""Grid runner: drive the registry over a named parameter grid.

:func:`run_verification` is what both the ``repro-quasispecies verify``
CLI subcommand and the smoke-tier pytest entry point call.  It returns a
:class:`~repro.verify.report.VerificationReport`, whose ``passed``
aggregate determines the process exit code.

Spec lists are routed through the service layer's batch planner
(:func:`repro.service.scheduler.plan_batch`): duplicate specs are
verified once and share a single :class:`SpecReport`, and unique specs
run in the planner's cheap-first order (reduced ν+1 problems before full
2^ν ones) so failures in fast configurations surface early.  Each unique
spec gets its own probe-vector stream derived deterministically from
``(seed, spec content hash)``, which keeps reruns byte-identical *and*
makes the per-spec results independent of grid order or duplication.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.verify.registry import OracleRegistry, default_registry
from repro.verify.report import SpecReport, VerificationReport
from repro.verify.spec import ProblemSpec, build_grid

__all__ = ["run_verification", "spec_rng", "verify_specs"]


def spec_rng(spec: ProblemSpec, seed: int) -> np.random.Generator:
    """Deterministic per-spec probe-vector stream.

    The stream is seeded from ``seed`` plus the spec's content hash, so
    it does not depend on where the spec sits in the grid — verifying a
    spec alone, in a different order, or deduplicated from a grid with
    repeats all consume the identical stream.
    """
    # Deferred import: repro.verify.spec re-exports the canonical spec
    # machinery from repro.service.jobspec, so bind lazily to keep the
    # import graph acyclic if service ever grows a verify dependency.
    from repro.service.jobspec import SolveJob

    key = SolveJob.from_problem(spec).cache_key()
    return np.random.default_rng(
        [int(seed) & 0xFFFFFFFF, int(key[:16], 16)]
    )


def verify_specs(
    specs: list[ProblemSpec],
    *,
    registry: OracleRegistry | None = None,
    seed: int = 0,
    solvers: bool = True,
    progress: Callable[[int, int, SpecReport], None] | None = None,
) -> list[SpecReport]:
    """Run the registry over an explicit spec list.

    The list is planned by :func:`repro.service.scheduler.plan_batch`:
    duplicates collapse onto one verification run (sharing the report
    object) and unique specs execute in scheduler order.  Returned
    reports are aligned with the *original* ``specs`` list.  The
    ``progress`` callback fires once per unique spec with
    ``(done, n_unique, report)``.
    """
    from repro.service.jobspec import SolveJob
    from repro.service.scheduler import plan_batch

    registry = registry or default_registry()
    plan = plan_batch([SolveJob.from_problem(spec) for spec in specs])
    # plan.unique_jobs[k] came from the first spec whose job hashed to
    # slot k; recover that spec so landscape objects build identically.
    first_spec: dict[int, ProblemSpec] = {}
    for i, uidx in enumerate(plan.index_map):
        first_spec.setdefault(uidx, specs[i])

    unique_reports: dict[int, SpecReport] = {}
    for done, uidx in enumerate(plan.order, start=1):
        spec = first_spec[uidx]
        rep = registry.run_spec(spec, rng=spec_rng(spec, seed), solvers=solvers)
        unique_reports[uidx] = rep
        if progress is not None:
            progress(done, plan.n_unique, rep)
    return [unique_reports[uidx] for uidx in plan.index_map]


def run_verification(
    grid: str = "small",
    *,
    nu: int = 6,
    seed: int = 0,
    count: int = 25,
    registry: OracleRegistry | None = None,
    solvers: bool = True,
    progress: Callable[[int, int, SpecReport], None] | None = None,
) -> VerificationReport:
    """Run the full registry over a named grid.

    Parameters
    ----------
    grid:
        One of :data:`repro.verify.spec.GRID_NAMES`.
    nu:
        Pivot chain length for the ``small``/``full`` grids and the upper
        bound for ``random``.
    seed:
        Seed for the probe-vector streams and the ``random`` grid.
    count:
        Number of specs for the ``random`` grid.
    solvers:
        ``False`` skips the solver-oracle tier (product + invariant
        tiers only) — the smoke configuration.
    progress:
        Optional ``(done, total, spec_report)`` callback, called after
        each unique spec finishes (the CLI uses it for live output).
    """
    if registry is None:
        registry = default_registry()
    specs = build_grid(grid, nu=nu, count=count, seed=seed)
    reports = verify_specs(
        specs, registry=registry, seed=seed, solvers=solvers, progress=progress
    )
    return VerificationReport(grid=grid, nu=nu, seed=seed, spec_reports=reports)

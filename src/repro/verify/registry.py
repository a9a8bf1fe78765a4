"""The oracle registry: one object that knows every check for a spec.

The registry is the tentpole artifact of the verification subsystem.  It
combines the three check sources into one per-spec run:

1. the **metamorphic invariant catalogue**
   (:data:`repro.verify.invariants.INVARIANTS`) — paper identities as
   reusable checks,
2. the **product-oracle tier**
   (:func:`repro.verify.oracles.run_product_oracles`) — every ``W·v``
   backend cross-compared at machine precision,
3. the **solver-oracle tier**
   (:func:`repro.verify.oracles.run_solver_oracles`) — every eigenpair
   route cross-compared at its agreement class.

Both pytest (``tests/test_verify_*.py``) and the CLI
(``repro-quasispecies verify``) drive the *same* registry, so there is a
single source of truth for what "the backends agree" means.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.util.rng import as_generator
from repro.verify.invariants import INVARIANTS, Invariant
from repro.verify.oracles import (
    PRODUCT_TOL,
    run_product_oracles,
    run_solver_oracles,
)
from repro.verify.report import CheckResult, SpecReport
from repro.verify.spec import ProblemSpec

__all__ = ["OracleRegistry", "default_registry"]


@dataclass
class OracleRegistry:
    """Enumerates and runs every check applicable to a problem spec.

    Parameters
    ----------
    invariants:
        The metamorphic invariant catalogue (defaults to the full
        paper-identity catalogue).
    product_probes:
        Number of shared random probe vectors for the product tier.
    product_tol:
        Pairwise tolerance for the exact product tier.
    solver_tol:
        Iteration tolerance passed to every iterative route.
    solver_accept:
        Acceptance threshold for pairs involving an iterative route.
    direct_accept:
        Acceptance threshold for direct/direct route pairs.
    run_solvers:
        Set ``False`` to skip the (more expensive) solver tier — used by
        quick smoke sessions and the product-only property tests.
    """

    invariants: tuple[Invariant, ...] = INVARIANTS
    product_probes: int = 3
    product_tol: float = PRODUCT_TOL
    solver_tol: float = 1e-11
    solver_accept: float = 1e-7
    direct_accept: float = 1e-9
    extra_checks: list = field(default_factory=list)

    # --------------------------------------------------------- enumeration
    def invariants_for(self, spec: ProblemSpec) -> list[Invariant]:
        """The subset of the catalogue applicable to ``spec``."""
        return [inv for inv in self.invariants if inv.applies(spec)]

    def check_names_for(self, spec: ProblemSpec) -> list[str]:
        """Names of every invariant applicable to ``spec`` (invariant tier
        only — oracle-pair names depend on which backends construct)."""
        return [inv.name for inv in self.invariants_for(spec)]

    # --------------------------------------------------------------- runs
    def run_invariants(
        self, spec: ProblemSpec, rng: np.random.Generator
    ) -> list[CheckResult]:
        """Run every applicable catalogue invariant against ``spec``."""
        results: list[CheckResult] = []
        for inv in self.invariants_for(spec):
            try:
                error, details = inv.run(spec, rng)
                results.append(
                    CheckResult(
                        name=inv.name,
                        kind="invariant",
                        passed=error <= inv.tolerance,
                        error=error,
                        tolerance=inv.tolerance,
                        equation=inv.equation,
                        details=details,
                        exact=inv.exact,
                    )
                )
            except Exception as exc:  # noqa: BLE001 - a crash is a finding
                results.append(
                    CheckResult(
                        name=inv.name,
                        kind="invariant",
                        passed=False,
                        error=float("nan"),
                        tolerance=inv.tolerance,
                        equation=inv.equation,
                        details=f"check raised {type(exc).__name__}: {exc}",
                        exact=inv.exact,
                    )
                )
        return results

    def run_spec(
        self,
        spec: ProblemSpec,
        *,
        rng: np.random.Generator | int | None = None,
        solvers: bool = True,
    ) -> SpecReport:
        """Run all three check tiers against one spec."""
        rng = as_generator(spec.seed if rng is None else rng)
        checks = self.run_invariants(spec, rng)
        checks += run_product_oracles(
            spec,
            rng,
            tolerance=self.product_tol,
            probes=self.product_probes,
        )
        if solvers:
            checks += run_solver_oracles(
                spec,
                tol=self.solver_tol,
                accept=self.solver_accept,
                direct_accept=self.direct_accept,
            )
        return SpecReport(spec=spec, checks=checks)


def default_registry(**overrides) -> OracleRegistry:
    """The registry with the full catalogue and paper tolerances."""
    return OracleRegistry(**overrides)

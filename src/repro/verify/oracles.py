"""Oracle enumeration: every backend that must agree, and how tightly.

Two tiers of oracles, mirroring the paper's two layers of exactness
claims:

**Product oracles** — independent implementations of the *same* matrix
product ``W·v`` (right form).  These are mathematically identical, so
every pair must agree to machine precision on arbitrary probe vectors:

* ``fmmp-eq9`` / ``fmmp-eq10`` — the butterfly (one column of the fused
  plan), both stage orders,
* ``fmmp-batched`` — the stage-fused multi-vector kernel
  (:class:`~repro.operators.batched.BatchedFmmp`): the probe rides one
  column of a genuine multi-column block, so column isolation and the
  folded diagonal scalings are checked per probe,
* ``fmmp-parallel`` — the fused kernel with every sweep shared among 3
  participants on real engine threads (uneven shares of each chunk
  list): sharing's contract is *bitwise* identity with one
  participant, so the oracle must also sit inside the machine-precision
  tier,
* ``xmvp`` — the XOR-based product of [10] with ``dmax = ν``,
* ``smvp`` — the dense ``Θ(N²)`` baseline (small ν),
* ``spectral`` — ``Q·v = V Λ V v`` via the FWHT (uniform model),
* ``device`` — the model's radix-2 plan launched stage by stage on the
  simulated device (Algorithm-2 and radix-4 group kernels), whenever
  no stage of that plan is wider than radix 4,
* ``distributed`` — the hypercube butterfly over partitioned blocks.

Every ``fmmp-*`` oracle runs the one fused stage plan, so the ``device``
oracle (one launch per stage of the radix-2 plan) and the
``distributed`` oracle (explicit cross-rank stages) are the butterfly
references that do not run it end to end.

**Solver oracles** — full eigenpair routes.  Direct routes (dense,
reduced, Kronecker) agree to eigendecomposition accuracy; any pair
involving an iterative route agrees to iteration tolerance.

:func:`solver_routes` is also the single source of truth behind
``repro.validation.crosscheck`` (the user-facing ``crosscheck`` CLI), so
the cross-check command and the verification registry can never drift
apart.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.landscapes.kronecker import KroneckerLandscape
from repro.model.concentrations import class_concentrations
from repro.model.quasispecies import QuasispeciesModel
from repro.mutation.spectral import apply_uniform_q_spectral
from repro.mutation.uniform import UniformMutation
from repro.operators.fmmp import Fmmp
from repro.operators.smvp import Smvp
from repro.operators.xmvp import Xmvp
from repro.solvers.kron_solver import KroneckerSolveResult
from repro.transforms.batched import batched_butterfly_transform
from repro.verify.invariants import DENSE_NU, device_applies, relative_error
from repro.verify.report import CheckResult
from repro.verify.spec import ProblemSpec

__all__ = [
    "ProductOracle",
    "SolverRoute",
    "product_oracles",
    "solver_routes",
    "run_product_oracles",
    "run_solver_oracles",
]

#: pairwise tolerance for product oracles (exact identities)
PRODUCT_TOL = 1e-12


@dataclass(frozen=True)
class ProductOracle:
    """One implementation of the right-form product ``W·v``."""

    label: str
    matvec: Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class SolverRoute:
    """One full solver route for the dominant eigenpair.

    Attributes
    ----------
    label:
        Display name, e.g. ``"Pi(Fmmp)"`` (kept stable — the crosscheck
        CLI and its tests show these labels).
    kind:
        ``"direct"`` (eigendecomposition-exact) or ``"iterative"``
        (converges to a requested tolerance).
    kwargs:
        Arguments for :meth:`QuasispeciesModel.solve`.
    """

    label: str
    kind: str
    kwargs: dict


# ------------------------------------------------------------ product tier
def product_oracles(spec: ProblemSpec) -> list[ProductOracle]:
    """Every product backend applicable to ``spec`` (right form)."""
    mutation = spec.build_mutation()
    landscape = spec.build_landscape()
    f = landscape.values()
    oracles: list[ProductOracle] = [
        ProductOracle(
            "fmmp-eq9", Fmmp(mutation, landscape, variant="eq9").matvec
        ),
        ProductOracle(
            "fmmp-eq10", Fmmp(mutation, landscape, variant="eq10").matvec
        ),
        ProductOracle("fmmp-batched", _batched_matvec(mutation, landscape)),
        ProductOracle("fmmp-parallel", _parallel_matvec(mutation, landscape)),
    ]
    if isinstance(mutation, UniformMutation):
        oracles.append(
            ProductOracle("xmvp", Xmvp(mutation, landscape, dmax=spec.nu).matvec)
        )
        nu, p = spec.nu, spec.p

        def spectral(v: np.ndarray, _nu=nu, _p=p, _f=f) -> np.ndarray:
            return apply_uniform_q_spectral(_f * v, _nu, _p)

        oracles.append(ProductOracle("spectral", spectral))
    if spec.nu <= DENSE_NU:
        oracles.append(ProductOracle("smvp", Smvp(mutation, landscape).matvec))
    if spec.mutation in ("uniform", "persite"):
        oracles.append(ProductOracle("distributed", _distributed_matvec(mutation, f)))
    if device_applies(spec):
        oracles.append(ProductOracle("device", _device_matvec(mutation, f)))
    return oracles


def _batched_matvec(mutation, landscape) -> Callable[[np.ndarray], np.ndarray]:
    """Probe the multi-vector kernel through a genuine multi-column block.

    The probe rides column 0 of a 3-column block (the companions are
    scaled/shifted copies), so the check exercises column isolation and
    the folded diagonal scalings — a ``matmat`` that leaked state across
    columns would corrupt the extracted probe column.
    """
    from repro.operators.batched import BatchedFmmp

    op = BatchedFmmp(mutation, landscape, form="right")

    def matvec(v: np.ndarray) -> np.ndarray:
        v = np.asarray(v, dtype=np.float64)
        block = np.stack([v, -0.5 * v, v + 1.0], axis=1)
        return op.matmat(block)[:, 0].copy()

    return matvec


def _parallel_matvec(mutation, landscape) -> Callable[[np.ndarray], np.ndarray]:
    """Probe the fused kernel with every sweep shared among 3 participants.

    Three participants never divide a power-of-two chunk list evenly, so
    the shares are uneven, and two of the participants are real
    barrier-synchronized engine threads.  The result must match the
    serial kernels to machine precision (sharing's own contract is
    stronger: bitwise).
    """
    plan = mutation.plan()
    f = landscape.values()

    def matvec(v: np.ndarray) -> np.ndarray:
        block = np.asarray(v, dtype=np.float64).reshape(-1, 1)
        out = batched_butterfly_transform(block, plan, pre_scale=f, threads=3)
        return out.reshape(-1)

    return matvec


def _distributed_matvec(mutation, f: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    from repro.distributed.cluster import gpu_cluster
    from repro.distributed.fmmp import DistributedFmmp
    from repro.distributed.partition import PartitionedVector

    ranks = min(4, mutation.n // 2)
    op = DistributedFmmp(gpu_cluster(ranks), mutation.factors_per_bit())

    def matvec(v: np.ndarray) -> np.ndarray:
        pv = PartitionedVector.scatter(f * np.asarray(v, dtype=np.float64), ranks)
        return op.apply(pv).gather()

    return matvec


def _device_matvec(mutation, f: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    from repro.device.kernels.fmmp_kernel import plan_launcher
    from repro.device.profile import TESLA_C2050
    from repro.device.runtime import Device

    launch = plan_launcher(mutation.plan(max_radix=2))
    n = mutation.n

    def matvec(v: np.ndarray) -> np.ndarray:
        dev = Device(TESLA_C2050, record_launches=False)
        dev.alloc("v", n)
        try:
            dev.to_device("v", f * np.asarray(v, dtype=np.float64))
            launch(dev, "v")
            return dev.from_device("v")
        finally:
            dev.free("v")

    return matvec


def run_product_oracles(
    spec: ProblemSpec,
    rng: np.random.Generator,
    *,
    tolerance: float = PRODUCT_TOL,
    probes: int = 3,
) -> list[CheckResult]:
    """Compare every product backend against the ``fmmp-eq9`` reference.

    One :class:`CheckResult` per (reference, other) pair — the registry's
    *exact-equivalence* tier.
    """
    oracles = product_oracles(spec)
    reference = oracles[0]
    vs = rng.standard_normal((probes, spec.n))
    vs[0] = np.abs(vs[0]) + 1e-3
    ref_outs = [reference.matvec(v.copy()) for v in vs]
    results: list[CheckResult] = []
    for other in oracles[1:]:
        try:
            err = max(
                relative_error(other.matvec(v.copy()), ref)
                for v, ref in zip(vs, ref_outs)
            )
            results.append(
                CheckResult(
                    name=f"oracle-product:{reference.label}~{other.label}",
                    kind="product-oracle",
                    passed=err <= tolerance,
                    error=err,
                    tolerance=tolerance,
                    equation="Eqs. 9-10 (exact product equivalence)",
                    details=f"{probes} shared probe vectors",
                )
            )
        except Exception as exc:  # noqa: BLE001 - report, don't crash the harness
            results.append(
                CheckResult(
                    name=f"oracle-product:{reference.label}~{other.label}",
                    kind="product-oracle",
                    passed=False,
                    error=float("nan"),
                    tolerance=tolerance,
                    equation="Eqs. 9-10 (exact product equivalence)",
                    details=f"backend raised {type(exc).__name__}: {exc}",
                )
            )
    return results


# ------------------------------------------------------------- solver tier
def solver_routes(model: QuasispeciesModel) -> list[SolverRoute]:
    """Every eigenpair route applicable to ``model``'s structure."""
    routes: list[SolverRoute] = [
        SolverRoute("Pi(Fmmp)", "iterative", dict(method="power", operator="fmmp")),
        SolverRoute(
            "Pi(Fmmp, shifted)", "iterative", dict(method="power", operator="fmmp", shift=True)
        ),
        SolverRoute("Arnoldi", "iterative", dict(method="arnoldi")),
    ]
    if model.mutation.is_symmetric:
        # Lanczos needs the symmetric form F^1/2 Q F^1/2, which exists
        # only for symmetric mutation models.
        routes.insert(2, SolverRoute("Lanczos", "iterative", dict(method="lanczos")))
    if isinstance(model.mutation, UniformMutation):
        routes.insert(
            1, SolverRoute("Pi(Xmvp(nu))", "iterative", dict(method="power", operator="xmvp"))
        )
    else:
        # The conservative shift formula needs the uniform model.
        routes = [r for r in routes if "shifted" not in r.label]
    if model.nu <= DENSE_NU:
        routes.append(SolverRoute("Dense", "direct", dict(method="dense")))
    if model.landscape.is_error_class_landscape and isinstance(model.mutation, UniformMutation):
        routes.append(SolverRoute("Reduced(nu+1)", "direct", dict(method="reduced")))
    if isinstance(model.landscape, KroneckerLandscape):
        try:
            from repro.solvers.kron_solver import KroneckerSolver

            KroneckerSolver(model.mutation, model.landscape)
        except Exception:  # noqa: BLE001 - incompatible grouping
            pass
        else:
            routes.append(SolverRoute("Kronecker", "direct", dict(method="kronecker")))
    # Degenerate corner: p = 0 on a flat landscape makes W = c·I; the
    # conservative shift annihilates W exactly, so the shifted route is
    # structurally inapplicable (a typed error by design, not an oracle).
    p = model.uniform_p
    if p == 0.0 and model.landscape.fmin == model.landscape.fmax:
        routes = [r for r in routes if "shifted" not in r.label]
    return routes


def _identity_mutation(mutation) -> bool:
    """True when ``Q = I`` exactly (the error-free corner ``p = 0``): every
    stage of its plan is an identity."""
    return all(np.array_equal(s.matrix, np.eye(s.radix)) for s in mutation.plan())


def _perron_degenerate(model: QuasispeciesModel) -> bool:
    """True when the dominant eigenspace of ``W`` is degenerate.

    Happens only at ``p = 0`` on a flat landscape: ``W = c·I`` and every
    distribution is a fixed point.  The dominant *eigenvalue* is still
    well-defined (``c``); the eigenvector direction is not, so
    cross-route comparison must drop to eigenvalues only.
    """
    return (
        model.landscape.fmin == model.landscape.fmax
        and _identity_mutation(model.mutation)
    )


def _route_gamma(res, nu: int) -> np.ndarray:
    """Error-class concentrations from any route's result."""
    if isinstance(res, KroneckerSolveResult):
        return res.eigenvector.class_concentrations()
    conc = res.concentrations
    if conc.shape[0] == nu + 1:
        return conc
    return class_concentrations(conc, nu)


def run_solver_oracles(
    spec: ProblemSpec,
    *,
    tol: float = 1e-11,
    accept: float = 1e-7,
    direct_accept: float = 1e-9,
) -> list[CheckResult]:
    """Solve via every applicable route; compare all pairs.

    Direct/direct pairs must agree to ``direct_accept``; any pair with an
    iterative member to ``accept`` (the iteration-tolerance class).
    """
    model = QuasispeciesModel(spec.build_landscape(), spec.build_mutation())
    routes = solver_routes(model)
    eigenvalue_only = _perron_degenerate(model)
    outcomes: list[tuple[SolverRoute, float, np.ndarray] | tuple[SolverRoute, Exception]] = []
    for route in routes:
        try:
            res = model.solve(tol=tol, **route.kwargs)
            outcomes.append((route, float(res.eigenvalue), _route_gamma(res, spec.nu)))
        except Exception as exc:  # noqa: BLE001 - a failing route is a finding
            outcomes.append((route, exc))

    results: list[CheckResult] = []
    good = [o for o in outcomes if len(o) == 3]
    for o in outcomes:
        if len(o) == 2:
            route, exc = o
            results.append(
                CheckResult(
                    name=f"oracle-solver:{route.label}",
                    kind="solver-oracle",
                    passed=False,
                    error=float("nan"),
                    tolerance=accept,
                    equation="cross-route agreement",
                    details=f"route raised {type(exc).__name__}: {exc}",
                    exact=False,
                )
            )
    for i in range(len(good)):
        for j in range(i + 1, len(good)):
            ra, la, ga = good[i]
            rb, lb, gb = good[j]
            pair_tol = (
                direct_accept if ra.kind == "direct" and rb.kind == "direct" else accept
            )
            scale = max(abs(la), abs(lb), 1e-300)
            err = abs(la - lb) / scale
            details = f"{ra.kind}/{rb.kind} pair"
            if eigenvalue_only:
                details += " (eigenvalue only: degenerate Perron direction, W = c*I)"
            else:
                err = max(err, relative_error(ga, gb))
            results.append(
                CheckResult(
                    name=f"oracle-solver:{ra.label}~{rb.label}",
                    kind="solver-oracle",
                    passed=err <= pair_tol,
                    error=err,
                    tolerance=pair_tol,
                    equation="cross-route agreement",
                    details=details,
                    exact=ra.kind == "direct" and rb.kind == "direct",
                )
            )
    return results

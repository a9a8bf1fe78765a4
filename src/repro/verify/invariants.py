"""Metamorphic invariant catalogue — the paper's identities as checks.

Every invariant encodes one *exactness claim* of the paper (or of this
reproduction's extensions) as an executable, reusable check:

================================  =========================================
invariant                         paper identity
================================  =========================================
``q-column-stochastic``           columns of ``Q`` sum to 1 (Eq. 2 / 7);
                                  equivalently ``1ᵀ(Q·v) = 1ᵀv``
``fmmp-dense-equivalence``        ``Fmmp(v) ≡ (Q·F)·v`` densely, all three
                                  forms (Eqs. 3–5, 9–10, Algorithm 1)
``fmmp-variant-agreement``        Eq. 9 and Eq. 10 stage orders commute
``fmmp-spectral-equivalence``     ``Q·v = V Λ V v`` (Sec. 2 FWHT eigen-
                                  decomposition)
``xmvp-exactness``                ``Xmvp(ν) ≡ Smvp`` ([10] baseline)
``shift-safety``                  ``μ = (1−2p)^ν f_min ≤ λ_min(W) < λ₀``
                                  (Sec. 3)
``shifted-product-exactness``     ``(W − μI)v`` exact via one extra axpy
``shift-invert-exactness``        ``(Q − μI)^{-1}v`` via FWHT equals the
                                  dense solve (Sec. 3)
``lemma2-class-recovery``         ``[Γ_k] = C(ν,k)·vΓ_k / Σⱼ C(ν,j)·vΓ_j``
                                  matches the full-space Perron vector
                                  (Lemma 2, Eq. 14)
``reduced-class-basis``           reduced ``[Γ_k]`` = power iteration on
                                  ``QΓᵀ·diag(FΓ)`` (Eq. 14), at ν and 4ν
``kronecker-factorization``       Perron pair of ``W = ⊗(QᵢFᵢ)`` is the
                                  product/⊗ of the factors' pairs (Sec. 5.2)
``fwht-involution``               ``V·V = I`` and ``H·H = N·I`` round trips
``q-inverse-roundtrip``           ``Q⁻¹(Q·v) = v`` via Eq. 12 factors
``mean-fitness-identity``         ``λ₀ = Σᵢ fᵢ xᵢ`` at the fixed point
``device-kernel-equivalence``     Algorithm 2 stage kernels ≡ host butterfly
``distributed-equivalence``       hypercube butterfly ≡ serial butterfly
``power-batch-width-invariance``  a power solve alone is bitwise the same
                                  column of a block solve (Sec. 3)
================================  =========================================

Each invariant declares its *applicability* (which specs it can check)
and returns the measured discrepancy; the registry turns that into
pass/fail against the invariant's tolerance.

Tolerance discipline: pure product identities are *exact* — they must
hold to ~1e-12 relative error (a few ulps across ν ≤ 10 stages).
Identities that route through a dense eigendecomposition inherit LAPACK's
backward error and use 1e-10.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.mutation.base import check_column_stochastic
from repro.mutation.grouped import GroupedMutation
from repro.mutation.persite import PerSiteMutation
from repro.mutation.reduced import reduced_mutation_matrix_reference
from repro.mutation.spectral import apply_uniform_q_spectral, solve_shifted_uniform_q
from repro.mutation.uniform import UniformMutation
from repro.operators.dense_w import dense_w
from repro.operators.fmmp import Fmmp
from repro.operators.shifted import ShiftedOperator, conservative_shift
from repro.operators.smvp import Smvp
from repro.operators.xmvp import Xmvp
from repro.solvers.dense import dense_dominant_eigenpair, dense_solve
from repro.solvers.kron_solver import KroneckerSolver
from repro.solvers.reduced import ReducedSolver
from repro.transforms.fwht import fwht, fwht_matrix
from repro.util.binomial import binomial_row
from repro.util.validation import MAX_NU
from repro.verify.spec import ProblemSpec

__all__ = ["Invariant", "INVARIANTS", "invariant_names", "relative_error"]

#: largest chain length for which dense materializations are allowed
#: inside invariant checks (64–1024 doubles; instantaneous).
DENSE_NU = 10

#: machine-exact identities (product routes, no eigendecomposition)
EXACT_TOL = 1e-12
#: identities routed through a dense eigendecomposition
EIGEN_TOL = 1e-10


def relative_error(a: np.ndarray, b: np.ndarray) -> float:
    """``‖a − b‖_∞ / max(‖a‖_∞, ‖b‖_∞, 1e-300)`` — scale-free discrepancy."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    scale = max(float(np.abs(a).max(initial=0.0)), float(np.abs(b).max(initial=0.0)), 1e-300)
    return float(np.abs(a - b).max(initial=0.0)) / scale


@dataclass(frozen=True)
class Invariant:
    """One metamorphic check.

    Attributes
    ----------
    name:
        Stable identifier used in reports and tests.
    equation:
        The paper identity this check encodes.
    description:
        One-line human description.
    tolerance:
        Pass threshold on the measured (relative) error.
    applies:
        Predicate on :class:`ProblemSpec`.
    run:
        ``run(spec, rng) -> (error, details)``; the registry compares
        ``error`` against ``tolerance``.
    exact:
        Whether this is a mathematically exact identity (vs one bounded
        by an eigendecomposition's backward error).
    """

    name: str
    equation: str
    description: str
    tolerance: float
    applies: Callable[[ProblemSpec], bool]
    run: Callable[[ProblemSpec, np.random.Generator], tuple[float, str]]
    exact: bool = True


def _random_probe(spec: ProblemSpec, rng: np.random.Generator, count: int = 3) -> np.ndarray:
    """A few random probe vectors (rows), scaled to unit 1-norm-ish mass;
    includes one strictly positive concentration-like vector."""
    n = spec.n
    probes = rng.standard_normal((count, n))
    probes[0] = np.abs(probes[0]) + 1e-3  # a positive, concentration-like probe
    return probes


# ------------------------------------------------------------------ checks
def _chk_column_stochastic(spec: ProblemSpec, rng: np.random.Generator):
    mutation = spec.build_mutation()
    worst = 0.0
    details = []
    if spec.nu <= DENSE_NU:
        q = mutation.dense()
        check_column_stochastic(q, atol=1e-9, what="Q")
        worst = float(np.abs(q.sum(axis=0) - 1.0).max())
        details.append(f"dense column sums off by {worst:.2e}")
    # Mass conservation of the implicit product: 1ᵀ(Qv) = 1ᵀv.
    for v in _random_probe(spec, rng):
        qv = mutation.apply(v.copy())
        err = abs(float(qv.sum()) - float(v.sum())) / max(abs(float(v.sum())), 1.0)
        worst = max(worst, err)
    return worst, "; ".join(details) or "mass conservation on random probes"


def _chk_fmmp_dense(spec: ProblemSpec, rng: np.random.Generator):
    mutation = spec.build_mutation()
    landscape = spec.build_landscape()
    probes = _random_probe(spec, rng)
    worst = 0.0
    worst_at = ""
    for form in ("right", "symmetric", "left"):
        wd = dense_w(mutation, landscape, form)
        for variant in ("eq9", "eq10"):
            op = Fmmp(mutation, landscape, form=form, variant=variant)
            for v in probes:
                err = relative_error(op.matvec(v), wd @ v)
                if err > worst:
                    worst, worst_at = err, f"form={form} variant={variant}"
    return worst, worst_at


def _chk_fmmp_variants(spec: ProblemSpec, rng: np.random.Generator):
    mutation = spec.build_mutation()
    landscape = spec.build_landscape()
    a = Fmmp(mutation, landscape, variant="eq9")
    b = Fmmp(mutation, landscape, variant="eq10")
    worst = max(relative_error(a.matvec(v), b.matvec(v)) for v in _random_probe(spec, rng))
    return worst, "eq9 vs eq10 stage order"


def _chk_fmmp_spectral(spec: ProblemSpec, rng: np.random.Generator):
    mutation = spec.build_mutation()
    worst = 0.0
    for v in _random_probe(spec, rng):
        direct = mutation.apply(v.copy())
        spectral = apply_uniform_q_spectral(v, spec.nu, spec.p)
        worst = max(worst, relative_error(direct, spectral))
    return worst, "butterfly vs V·Λ·V route"


def _chk_xmvp_exact(spec: ProblemSpec, rng: np.random.Generator):
    mutation = spec.build_mutation()
    landscape = spec.build_landscape()
    xop = Xmvp(mutation, landscape, dmax=spec.nu)
    sop = Smvp(mutation, landscape)
    worst = max(relative_error(xop.matvec(v), sop.matvec(v)) for v in _random_probe(spec, rng))
    return worst, "Xmvp(nu) vs dense Smvp"


def _chk_shift_safety(spec: ProblemSpec, rng: np.random.Generator):
    mutation = spec.build_mutation()
    landscape = spec.build_landscape()
    mu = conservative_shift(mutation, landscape)
    wd = dense_w(mutation, landscape, "symmetric")
    eigs = np.linalg.eigvalsh(wd)
    lam_min, lam_max = float(eigs[0]), float(eigs[-1])
    # μ must lower-bound the spectrum (never crossing any eigenvalue) and
    # keep λ₀ − μ dominant.  Degenerate corner: p = 0 on a flat landscape
    # makes W = μI exactly; the shift remains *safe* (μ = λ_min).  Scale
    # the overshoot by the spectral extent, not |λ_min| — at p = 1/2 the
    # lower edge is numerically zero and would otherwise turn a few ulps
    # of rounding into an O(1) relative error.
    scale = max(abs(lam_min), abs(lam_max), 1e-300)
    overshoot = max(mu - lam_min, 0.0) / scale
    details = f"mu={mu:.6g} lam_min={lam_min:.6g} lam_max={lam_max:.6g}"
    return overshoot, details


def _chk_shifted_product(spec: ProblemSpec, rng: np.random.Generator):
    mutation = spec.build_mutation()
    landscape = spec.build_landscape()
    mu = conservative_shift(mutation, landscape)
    op = ShiftedOperator(Fmmp(mutation, landscape), mu)
    wd = dense_w(mutation, landscape, "right") - mu * np.eye(spec.n)
    worst = max(relative_error(op.matvec(v), wd @ v) for v in _random_probe(spec, rng))
    return worst, f"(W - {mu:.4g}·I)·v"


def _chk_shift_invert(spec: ProblemSpec, rng: np.random.Generator):
    mutation = spec.build_mutation()
    qd = mutation.dense()
    worst = 0.0
    worst_at = ""
    # Two shifts that can never hit the spectrum {(1−2p)^k} ⊂ [0, 1]:
    # one below, one above.
    for mu in (-0.3, 1.5):
        a = qd - mu * np.eye(spec.n)
        for v in _random_probe(spec, rng):
            fast = solve_shifted_uniform_q(v, spec.nu, spec.p, mu)
            ref = np.linalg.solve(a, v)
            err = relative_error(fast, ref)
            if err > worst:
                worst, worst_at = err, f"mu={mu}"
    return worst, worst_at


def _chk_lemma2(spec: ProblemSpec, rng: np.random.Generator):
    landscape = spec.build_landscape()
    mutation = spec.build_mutation()
    reduced = ReducedSolver(spec.nu, spec.p, landscape).solve()
    full = dense_solve(mutation, landscape, form="right")
    gamma_full = full.error_class_concentrations(spec.nu)
    # The recovery formula itself, applied by hand to the reduced vector:
    sizes = binomial_row(spec.nu)
    weighted = sizes * reduced.eigenvector
    gamma_formula = weighted / weighted.sum()
    err_vec = relative_error(reduced.concentrations, gamma_full)
    err_formula = relative_error(gamma_formula, reduced.concentrations)
    err_lam = abs(reduced.eigenvalue - full.eigenvalue) / max(abs(full.eigenvalue), 1e-300)
    return max(err_vec, err_formula, err_lam), (
        f"class-vector err {err_vec:.2e}, eigenvalue err {err_lam:.2e}"
    )


def _class_power_iteration(a: np.ndarray, max_iterations: int = 1_000_000) -> np.ndarray:
    """Perron vector (unit 1-norm) of the class matrix ``a`` by power
    iteration from the uniform vector, stopped once the step or the
    geometric tail it implies (``step·ρ/(1−ρ)``) is at rounding level."""
    x = np.full(a.shape[0], 1.0 / a.shape[0])
    last = None
    for _ in range(max_iterations):
        y = a @ x
        y /= y.sum()
        step = float(np.abs(y - x).max())
        x = y
        if step <= 1e-15 * x.max():
            return x
        if last is not None and step < last and step * step / (last - step) <= 1e-13:
            return x
        last = step
    raise RuntimeError(f"class power iteration did not settle in {max_iterations} steps")


def _chk_reduced_class_basis(spec: ProblemSpec, rng: np.random.Generator):
    worst, worst_at = 0.0, ""
    for nu in sorted({spec.nu, min(4 * spec.nu, MAX_NU)}):
        classes = spec.with_(nu=nu).build_landscape().class_values()
        reduced = ReducedSolver(nu, spec.p, classes).solve()
        q_gamma = reduced_mutation_matrix_reference(nu, spec.p)
        oracle = _class_power_iteration(q_gamma.T * classes[None, :])
        err = relative_error(reduced.concentrations, oracle)
        if err >= worst:
            worst, worst_at = err, f"nu={nu}"
    return worst, f"class concentrations vs power iteration, worst at {worst_at}"


def _chk_kronecker(spec: ProblemSpec, rng: np.random.Generator):
    landscape = spec.build_landscape()
    mutation = spec.build_mutation()
    res = KroneckerSolver(mutation, landscape).solve()
    full = dense_solve(mutation, landscape, form="right")
    err_lam = abs(res.eigenvalue - full.eigenvalue) / max(abs(full.eigenvalue), 1e-300)
    err_vec = relative_error(res.eigenvector.materialize(), full.concentrations)
    gamma = res.eigenvector.class_concentrations()
    err_gamma = relative_error(gamma, full.error_class_concentrations(spec.nu))
    return max(err_lam, err_vec, err_gamma), (
        f"eigenvalue err {err_lam:.2e}, Perron-vector err {err_vec:.2e}"
    )


def _chk_fwht(spec: ProblemSpec, rng: np.random.Generator):
    worst = 0.0
    for v in _random_probe(spec, rng):
        worst = max(worst, relative_error(fwht(fwht(v)), v))  # involution
        h = fwht(v, ortho=False)
        worst = max(worst, relative_error(fwht(h, ortho=False) / spec.n, v))  # H² = N·I
    if spec.nu <= DENSE_NU:
        vmat = fwht_matrix(spec.nu)
        worst = max(worst, relative_error(vmat @ vmat, np.eye(spec.n)))
    return worst, "round trips + V·V = I"


def _chk_q_inverse(spec: ProblemSpec, rng: np.random.Generator):
    mutation = spec.build_mutation()
    # Conditioning of Q⁻¹ is (1−2p)^{−ν}; only check while well-posed.
    cond = (1.0 - 2.0 * spec.p) ** (-spec.nu)
    worst = 0.0
    for v in _random_probe(spec, rng):
        qv = mutation.apply(v.copy())
        back = mutation.apply_inverse(qv)
        worst = max(worst, relative_error(back, v))
    return worst / cond, f"Q⁻¹(Q·v) round trip (cond ≈ {cond:.2g}, error scaled by it)"


def _chk_mean_fitness(spec: ProblemSpec, rng: np.random.Generator):
    from repro.model.quasispecies import QuasispeciesModel

    landscape = spec.build_landscape()
    mutation = spec.build_mutation()
    model = QuasispeciesModel(landscape, mutation)
    res = model.solve("power", tol=1e-12, shift=False)
    f = landscape.values()
    lam_from_identity = float(f @ res.concentrations)
    err = abs(lam_from_identity - res.eigenvalue) / max(abs(res.eigenvalue), 1e-300)
    return err, f"lambda0={res.eigenvalue:.10g} vs sum(f·x)={lam_from_identity:.10g}"


def _chk_device(spec: ProblemSpec, rng: np.random.Generator):
    from repro.device.kernels.fmmp_kernel import plan_launcher
    from repro.device.profile import TESLA_C2050
    from repro.device.runtime import Device

    mutation = spec.build_mutation()
    v = _random_probe(spec, rng, count=1)[0]
    dev = Device(TESLA_C2050)
    dev.alloc("v", spec.n)
    try:
        dev.to_device("v", v)
        plan_launcher(mutation.plan(max_radix=2))(dev, "v")
        device_out = dev.from_device("v")
    finally:
        dev.free("v")
    host_out = mutation.apply(v.copy())
    return relative_error(device_out, host_out), "Algorithm-2 stage kernels vs host butterfly"


def _chk_distributed(spec: ProblemSpec, rng: np.random.Generator):
    from repro.distributed.cluster import gpu_cluster
    from repro.distributed.fmmp import DistributedFmmp
    from repro.distributed.partition import PartitionedVector

    mutation = spec.build_mutation()
    ranks = min(4, spec.n // 2)
    op = DistributedFmmp(gpu_cluster(ranks), mutation.factors_per_bit())
    v = _random_probe(spec, rng, count=1)[0]
    pv = PartitionedVector.scatter(v, ranks)
    out = op.apply(pv).gather()
    serial = mutation.apply(v.copy())
    return relative_error(out, serial), f"hypercube butterfly over {ranks} ranks"


def _chk_power_batch_width(spec: ProblemSpec, rng: np.random.Generator):
    from repro.operators.batched import BatchedFmmp
    from repro.operators.shifted import resolve_shift
    from repro.solvers.power import BlockPowerIteration, PowerIteration

    mutation = spec.build_mutation()
    # the spec's landscape rides in the middle of a 3-column block
    lands = [spec.with_(landscape="random", seed=spec.seed + k).build_landscape() for k in (1, 2)]
    land = spec.build_landscape()
    lands.insert(1, land)
    shifts = [resolve_shift(mutation, f, False, auto=True) or 0.0 for f in lands]
    budget = dict(tol=1e-13, max_iterations=300)
    col = BlockPowerIteration(BatchedFmmp(mutation, lands), shifts=shifts, **budget)
    col = col.solve(raise_on_fail=False)[1]
    alone = PowerIteration(ShiftedOperator(Fmmp(mutation, land), shifts[1]), **budget)
    alone = alone.solve(land.start_vector(), landscape=land, raise_on_fail=False)
    fields = ("eigenvalue", "residual", "iterations", "eigenvector", "concentrations")
    error = max(relative_error(getattr(alone, f), getattr(col, f)) for f in fields)
    return error, f"alone vs column 1 of B=3: {alone.iterations} vs {col.iterations} iterations"


# ----------------------------------------------------------- applicability
def _is_2x2_factored(spec: ProblemSpec) -> bool:
    return spec.mutation in ("uniform", "persite")


def device_applies(spec: ProblemSpec) -> bool:
    """Small enough to densify, and no stage of the model's radix-2 plan
    is wider than the radix-4 device kernel (the ``device`` invariant's
    and product oracle's applicability)."""
    if spec.nu > DENSE_NU:
        return False
    return max(stage.radix for stage in spec.build_mutation().plan(max_radix=2)) <= 4


def _dense_ok(spec: ProblemSpec) -> bool:
    return spec.nu <= DENSE_NU


def _uniform(spec: ProblemSpec) -> bool:
    return spec.mutation == "uniform"


INVARIANTS: tuple[Invariant, ...] = (
    Invariant(
        name="q-column-stochastic",
        equation="Eq. 2 / Eq. 7",
        description="Q is column stochastic; the implicit product conserves mass",
        tolerance=EXACT_TOL,
        applies=lambda s: True,
        run=_chk_column_stochastic,
    ),
    Invariant(
        name="fmmp-dense-equivalence",
        equation="Eqs. 3-5, 9-10, Algorithm 1",
        description="Fmmp·v equals the dense (Q·F)·v in every form and variant",
        tolerance=EXACT_TOL,
        applies=_dense_ok,
        run=_chk_fmmp_dense,
    ),
    Invariant(
        name="fmmp-variant-agreement",
        equation="Eq. 9 vs Eq. 10",
        description="ascending and descending stage orders agree",
        tolerance=1e-13,
        applies=lambda s: True,
        run=_chk_fmmp_variants,
    ),
    Invariant(
        name="fmmp-spectral-equivalence",
        equation="Sec. 2 (Q = V·Λ·V)",
        description="butterfly Q·v equals the FWHT spectral route",
        tolerance=EXACT_TOL,
        applies=_uniform,
        run=_chk_fmmp_spectral,
    ),
    Invariant(
        name="xmvp-exactness",
        equation="[10] (Xmvp(nu) = Smvp)",
        description="untruncated XOR product equals the dense product",
        tolerance=EXACT_TOL,
        applies=lambda s: _uniform(s) and _dense_ok(s),
        run=_chk_xmvp_exact,
    ),
    Invariant(
        name="shift-safety",
        equation="Sec. 3 (mu = (1-2p)^nu * f_min)",
        description="the conservative shift never crosses the spectrum",
        tolerance=1e-10,
        applies=lambda s: _uniform(s) and _dense_ok(s),
        run=_chk_shift_safety,
        exact=False,
    ),
    Invariant(
        name="shifted-product-exactness",
        equation="Sec. 3",
        description="(W - mu·I)·v through ShiftedOperator equals the dense product",
        tolerance=EXACT_TOL,
        applies=lambda s: _uniform(s) and _dense_ok(s),
        run=_chk_shifted_product,
    ),
    Invariant(
        name="shift-invert-exactness",
        equation="Sec. 3 (FWHT shift-and-invert)",
        description="(Q - mu·I)^{-1}·v via FWHT equals the dense solve",
        tolerance=1e-10,
        applies=lambda s: _uniform(s) and _dense_ok(s),
        run=_chk_shift_invert,
        exact=False,
    ),
    Invariant(
        name="lemma2-class-recovery",
        equation="Lemma 2, Eq. 14",
        description="(nu+1) reduction + binomial recovery matches the full Perron vector",
        tolerance=EIGEN_TOL,
        applies=lambda s: _uniform(s)
        and _dense_ok(s)
        and s.landscape in ("single-peak", "linear", "flat"),
        run=_chk_lemma2,
        exact=False,
    ),
    Invariant(
        name="reduced-class-basis",
        equation="Sec. 5.1, Eq. 14",
        description="reduced [Gamma_k] equals a power iteration on Q_Gamma^T·diag(F_Gamma)",
        tolerance=EIGEN_TOL,
        applies=lambda s: _uniform(s)
        and s.landscape in ("single-peak", "linear", "flat")
        and not (s.p == 0.0 and s.landscape == "flat"),
        run=_chk_reduced_class_basis,
        exact=False,
    ),
    Invariant(
        name="kronecker-factorization",
        equation="Sec. 5.2 (Eq. 18)",
        description="decoupled Perron pair equals the full-space dense pair",
        tolerance=EIGEN_TOL,
        applies=lambda s: s.landscape == "kronecker" and _dense_ok(s),
        run=_chk_kronecker,
        exact=False,
    ),
    Invariant(
        name="fwht-involution",
        equation="Sec. 2 (V·V = I, H·H = N·I)",
        description="FWHT round trips and orthogonality",
        tolerance=EXACT_TOL,
        applies=lambda s: True,
        run=_chk_fwht,
    ),
    Invariant(
        name="q-inverse-roundtrip",
        equation="Eq. 12",
        description="Q^{-1}(Q·v) returns v (error scaled by cond(Q))",
        tolerance=EXACT_TOL,
        applies=lambda s: _uniform(s) and s.p < 0.5,
        run=_chk_q_inverse,
    ),
    Invariant(
        name="mean-fitness-identity",
        equation="Eq. 1 (stationarity)",
        description="lambda0 equals the mean fitness of the stationary population",
        tolerance=1e-8,
        applies=lambda s: not (s.p == 0.0 and s.landscape == "flat"),
        run=_chk_mean_fitness,
        exact=False,
    ),
    Invariant(
        name="device-kernel-equivalence",
        equation="Sec. 4, Algorithm 2",
        description="device stage kernels reproduce the host butterfly",
        tolerance=EXACT_TOL,
        applies=device_applies,
        run=_chk_device,
    ),
    Invariant(
        name="distributed-equivalence",
        equation="Sec. 4 (hypercube butterfly)",
        description="block-partitioned butterfly matches the serial one",
        tolerance=1e-13,
        applies=lambda s: _is_2x2_factored(s) and s.nu >= 3,
        run=_chk_distributed,
    ),
    Invariant(
        name="power-batch-width-invariance",
        equation="Sec. 3 (power iteration)",
        description="a power solve returns the same bits alone and inside a block",
        tolerance=0.0,
        applies=lambda s: True,
        run=_chk_power_batch_width,
    ),
)


def invariant_names() -> list[str]:
    """Names of every catalogued invariant."""
    return [inv.name for inv in INVARIANTS]

"""The :class:`QuasispeciesModel` facade — the library's main entry point.

Bundles a mutation model and a fitness landscape, picks the best solver
for the structure at hand (mirroring the paper's Sections 3 and 5), and
exposes the biological readouts.

Examples
--------
>>> from repro import QuasispeciesModel
>>> from repro.landscapes import SinglePeakLandscape
>>> model = QuasispeciesModel(SinglePeakLandscape(10), p=0.01)
>>> result = model.solve()
>>> round(result.eigenvalue, 3) > 1.0
True
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from repro.exceptions import ValidationError
from repro.landscapes.base import FitnessLandscape
from repro.landscapes.kronecker import KroneckerLandscape
from repro.model.concentrations import class_concentrations
from repro.model.threshold import ThresholdSweep, sweep_error_rates
from repro.mutation.base import MutationModel
from repro.mutation.uniform import UniformMutation
from repro.operators.base import FORMS
from repro.operators.dense_w import convert_eigenvector
from repro.operators.fmmp import Fmmp
from repro.operators.shifted import ShiftedOperator, resolve_shift
from repro.operators.smvp import Smvp
from repro.operators.xmvp import Xmvp
from repro.solvers.dense import dense_solve
from repro.solvers.kron_solver import KroneckerSolveResult, KroneckerSolver
from repro.solvers.lanczos import Lanczos
from repro.solvers.power import PowerIteration
from repro.solvers.reduced import ReducedSolver
from repro.solvers.result import SolveResult
from repro.solvers.shift_invert import cg_inverse_iteration

__all__ = ["METHODS", "OPERATORS", "QuasispeciesModel"]

#: solver routes :meth:`QuasispeciesModel.solve` takes (``auto`` picks
#: one from the problem's structure; ``shift-invert`` is the CG inverse
#: iteration of :func:`repro.solvers.shift_invert.cg_inverse_iteration`)
METHODS = (
    "auto",
    "power",
    "dense",
    "reduced",
    "kronecker",
    "lanczos",
    "arnoldi",
    "shift-invert",
)
#: implicit ``W`` operators :meth:`QuasispeciesModel.build_operator` builds
OPERATORS = ("fmmp", "xmvp", "smvp")


class QuasispeciesModel:
    """Eigen's quasispecies model for one landscape + mutation process.

    Parameters
    ----------
    landscape:
        The fitness landscape ``F``.
    mutation:
        An explicit mutation model, or ``None`` to build a
        :class:`UniformMutation` from ``p``.
    p:
        Uniform error rate shorthand (ignored when ``mutation`` given).
    """

    def __init__(
        self,
        landscape: FitnessLandscape,
        mutation: MutationModel | None = None,
        *,
        p: float | None = None,
    ):
        if mutation is None:
            if p is None:
                raise ValidationError("provide either a mutation model or an error rate p")
            mutation = UniformMutation(landscape.nu, p)
        elif p is not None and isinstance(mutation, UniformMutation) and mutation.p != p:
            raise ValidationError("conflicting error rates: mutation.p != p")
        if mutation.nu != landscape.nu:
            raise ValidationError(
                f"mutation (nu={mutation.nu}) and landscape (nu={landscape.nu}) disagree"
            )
        self.landscape = landscape
        self.mutation = mutation
        self.nu = landscape.nu
        self.n = landscape.n

    # ---------------------------------------------------------- structure
    @property
    def uniform_p(self) -> float | None:
        """The uniform error rate, if the mutation model is uniform."""
        return self.mutation.p if isinstance(self.mutation, UniformMutation) else None

    def _auto_method(self) -> str:
        if isinstance(self.landscape, KroneckerLandscape):
            try:
                KroneckerSolver(self.mutation, self.landscape)
                return "kronecker"
            except ValidationError:
                pass
        if (
            self.landscape.is_error_class_landscape
            and isinstance(self.mutation, UniformMutation)
        ):
            return "reduced"
        return "power"

    def build_operator(
        self,
        operator: str = "fmmp",
        *,
        form: str = "right",
        dmax: int | None = None,
        shift: bool | float = False,
        threads: int | None = None,
    ):
        """Construct the implicit ``W`` operator (optionally shifted).

        Parameters
        ----------
        operator:
            ``"fmmp"`` (paper, exact fast), ``"xmvp"`` (baseline [10];
            needs ``dmax``), ``"smvp"`` (dense baseline).
        form:
            Eigenproblem form (Eqs. 3–5).
        dmax:
            Cut-off distance for ``xmvp`` (defaults to ν, the exact case).
        shift:
            ``True`` → the paper's conservative ``μ = (1−2p)^ν f_min``
            (uniform mutation only); a float → that explicit shift;
            ``False`` → unshifted.
        threads:
            Threads sharing each sweep of the ``fmmp`` butterfly
            (``None`` → ``REPRO_NUM_THREADS`` or 1); the baselines
            (``xmvp``/``smvp``) are serial and ignore it.
        """
        if operator not in OPERATORS:
            raise ValidationError(f"operator must be one of {OPERATORS}, got {operator!r}")
        if form not in FORMS:
            raise ValidationError(f"form must be one of {FORMS}, got {form!r}")
        if operator == "fmmp":
            op = Fmmp(self.mutation, self.landscape, form=form, threads=threads)
        elif operator == "xmvp":
            if not isinstance(self.mutation, UniformMutation):
                raise ValidationError("xmvp requires the uniform mutation model")
            op = Xmvp(self.mutation, self.landscape, dmax or self.nu, form=form)
        else:
            op = Smvp(self.mutation, self.landscape, form=form)

        mu = resolve_shift(self.mutation, self.landscape, shift)
        return op if mu is None else ShiftedOperator(op, mu)

    # --------------------------------------------------------------- solve
    def solve(
        self,
        method: str = "auto",
        *,
        operator: str = "fmmp",
        form: str = "right",
        dmax: int | None = None,
        tol: float = 1e-12,
        shift: bool | float = False,
        max_iterations: int = 100_000,
        record_history: bool = False,
        threads: int | None = None,
    ) -> SolveResult | KroneckerSolveResult:
        """Compute the quasispecies (dominant eigenpair of ``W``).

        ``method="auto"`` picks the structurally best solver:
        Kronecker decoupling → exact (ν+1) reduction → shifted
        ``Pi(Fmmp)``, in that order of preference.

        ``threads`` shares the butterfly's sweeps among threads for the
        iterative ``fmmp`` routes; it changes wall time, never the bits
        of the result.  The structural routes (kronecker / reduced /
        dense) are unaffected.

        ``"shift-invert"`` runs CG inverse iteration on the symmetric
        ``fmmp`` form (symmetric mutation models only), whatever
        ``operator`` and ``form`` say.
        """
        if method not in METHODS:
            raise ValidationError(f"method must be one of {METHODS}, got {method!r}")
        auto = method == "auto"
        if auto:
            method = self._auto_method()

        if method == "kronecker":
            if not isinstance(self.landscape, KroneckerLandscape):
                raise ValidationError("kronecker method needs a KroneckerLandscape")
            return KroneckerSolver(self.mutation, self.landscape, tol=tol).solve()
        if method == "reduced":
            p = self.uniform_p
            if p is None:
                raise ValidationError("the reduced solver requires the uniform mutation model")
            return ReducedSolver(self.nu, p, self.landscape).solve()
        if method == "dense":
            return dense_solve(self.mutation, self.landscape, form=form)
        if method == "lanczos":
            op = self.build_operator(
                operator, form="symmetric", dmax=dmax, shift=False, threads=threads
            )
            start = np.sqrt(self.landscape.values())
            return Lanczos(op, tol=tol).solve(start, landscape=self.landscape, form="symmetric")
        if method == "arnoldi":
            from repro.solvers.arnoldi import Arnoldi

            op = self.build_operator(
                operator, form=form, dmax=dmax, shift=False, threads=threads
            )
            return Arnoldi(op, tol=tol).solve(
                self.landscape.start_vector(), landscape=self.landscape, form=form
            )
        if method == "shift-invert":
            if not self.mutation.is_symmetric:
                raise ValidationError(
                    "shift-invert (CG inverse iteration) needs the symmetric form, "
                    "which exists only for symmetric mutation models"
                )
            res = cg_inverse_iteration(
                Fmmp(self.mutation, self.landscape, form="symmetric"),
                start=np.sqrt(self.landscape.values()),
                mu=self.landscape.fmax * 1.05,
                tol=max(tol, 1e-13),
                max_outer=min(max_iterations, 200),
            )
            conc = convert_eigenvector(res.eigenvector, self.landscape, "symmetric")
            return replace(res, concentrations=conc)

        # Auto mode shifts by default (see resolve_shift).
        mu = resolve_shift(self.mutation, self.landscape, shift, auto=auto)
        op = self.build_operator(
            operator, form=form, dmax=dmax, shift=False if mu is None else mu, threads=threads
        )
        pi = PowerIteration(
            op, tol=tol, max_iterations=max_iterations, record_history=record_history
        )
        label = f"Pi({operator.capitalize()}"
        if operator == "xmvp":
            label += f"({dmax or self.nu})"
        label += ", shifted)" if mu else ")"
        return pi.solve(
            self.landscape.start_vector(),
            landscape=self.landscape,
            form=form,
            method_name=label,
        )

    # ------------------------------------------------------------ readouts
    def class_concentrations(self, result: SolveResult | KroneckerSolveResult) -> np.ndarray:
        """``[Γ_k]`` from any route's solve result."""
        if isinstance(result, KroneckerSolveResult):
            return result.eigenvector.class_concentrations()
        if result.concentrations.shape[0] == self.nu + 1:
            return result.concentrations  # reduced solver: already classes
        return class_concentrations(result.concentrations, self.nu)

    def sweep(self, error_rates: np.ndarray, *, parallel: bool = False) -> ThresholdSweep:
        """Error-rate sweep (exact reduced path; Hamming landscapes).

        ``parallel=True`` fans the grid points out over a process pool
        (identical results; see
        :func:`repro.model.parallel_sweep.parallel_sweep_error_rates`).
        """
        if parallel:
            from repro.model.parallel_sweep import parallel_sweep_error_rates

            return parallel_sweep_error_rates(self.landscape, error_rates)
        return sweep_error_rates(self.landscape, error_rates)

    def reproductive_values(self, *, tol: float = 1e-12) -> np.ndarray:
        """Fisher reproductive values of all genotypes (the left Perron
        vector; see :mod:`repro.solvers.left_eigen`)."""
        from repro.solvers.left_eigen import reproductive_values

        return reproductive_values(self.mutation, self.landscape, tol=tol)

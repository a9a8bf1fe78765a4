"""The benchmark's three workloads.

Each workload builds its inputs from the workload seed in ``setup``,
runs one timed operation in ``op`` and its warm repeat in ``warm``, and
checks both outside the timed region in ``check``, which returns the
list of failed checks (empty when the outputs are correct).

* ``pi-fmmp-nu20`` — one scalar shifted ``Pi(Fmmp)`` solve.
* ``block-nu18-b16`` — one 16-column ``BlockPowerIteration`` solve.
* ``service-sweep`` — a 198-request manifest submitted cold, then warm.

``SIZES["tiny"]`` shrinks every workload for the benchmark's own tests.
"""

from __future__ import annotations

import os
import shutil
import tempfile

import numpy as np

__all__ = ["SIZES", "TOL", "WORKLOADS", "PiFmmp", "BlockPower", "ServiceSweep"]

#: where ``service-sweep`` keeps its cache directories, relative to the
#: working directory; removed when the run ends
WORK_DIR = ".perfbench-work"

#: residual tolerance of every iterative solve
TOL = 1e-10

#: an oracle residual may exceed the solver's own by at most this factor
RESIDUAL_SLACK = 10.0

SIZES = {
    "full": {
        "pi_nu": 20,
        "block_nu": 18,
        "block_b": 16,
        "sweep_reduced_nu": 20,
        "sweep_reduced_jobs": 100,
        "sweep_power_nu": 14,
        "sweep_power_seeds": 16,
        "sweep_duplicates": 66,
    },
    "tiny": {
        "pi_nu": 8,
        "block_nu": 8,
        "block_b": 4,
        "sweep_reduced_nu": 8,
        "sweep_reduced_jobs": 10,
        "sweep_power_nu": 6,
        "sweep_power_seeds": 4,
        "sweep_duplicates": 7,
    },
}


def _landscape_seeds(seed: int, count: int) -> list[int]:
    rng = np.random.default_rng([seed, count])
    return [int(s) for s in rng.integers(0, 2**31 - 1, size=count)]


def _residual(op, v: np.ndarray, lam: float) -> float:
    return float(np.linalg.norm(op.matvec(v) - lam * v))


class PiFmmp:
    """W1: ``QuasispeciesModel.solve("power", shift=True)`` at ν=20."""

    name = "pi-fmmp-nu20"

    def __init__(self, seed: int, size: str = "full"):
        self.seed = seed
        self.nu = SIZES[size]["pi_nu"]

    def setup(self) -> None:
        from repro.model.quasispecies import QuasispeciesModel
        from repro.service.jobspec import SolveJob

        job = SolveJob(nu=self.nu, p=0.01, landscape="random", seed=self.seed)
        self.landscape = job.build_landscape()
        self.mutation = job.build_mutation()
        self.model = QuasispeciesModel(self.landscape, self.mutation)

    def prepare(self) -> None:
        """Untimed per-operation preparation (none needed)."""

    def op(self):
        return self.model.solve("power", shift=True, tol=TOL, threads=1)

    def warm(self, result):
        """Re-solve started from the converged answer."""
        from repro.solvers.power import PowerIteration

        op = self.model.build_operator("fmmp", shift=True, threads=1)
        return PowerIteration(op, tol=TOL).solve(
            result.eigenvector, landscape=self.landscape, form="right"
        )

    def check(self, result, warm) -> list[str]:
        from repro.operators.batched import BatchedFmmp

        failures = []
        if not (result.converged and warm.converged):
            failures.append("solve did not converge")
        # a different backend: one column of the fused batched kernel
        oracle = BatchedFmmp(self.mutation, self.landscape, threads=1)
        residual = _residual(oracle, result.eigenvector, result.eigenvalue)
        if not residual <= RESIDUAL_SLACK * TOL:
            failures.append(f"oracle residual {residual:.3e} above {RESIDUAL_SLACK * TOL:.1e}")
        conc = result.concentrations
        if not np.all(conc > 0.0):
            failures.append("concentrations not positive")
        if not abs(conc.sum() - 1.0) <= 1e-12:
            failures.append(f"concentrations sum to {conc.sum()!r}")
        if not abs(warm.eigenvalue - result.eigenvalue) <= RESIDUAL_SLACK * TOL:
            failures.append("warm re-solve moved the eigenvalue")
        return failures

    def cleanup(self) -> None:
        """Nothing to release."""


class BlockPower:
    """W2: ``BlockPowerIteration`` over 16 random landscapes at ν=18."""

    name = "block-nu18-b16"

    def __init__(self, seed: int, size: str = "full"):
        self.seed = seed
        self.nu = SIZES[size]["block_nu"]
        self.b = SIZES[size]["block_b"]

    def setup(self) -> None:
        from repro.operators.batched import BatchedFmmp
        from repro.operators.shifted import conservative_shift
        from repro.service.jobspec import SolveJob

        jobs = [
            SolveJob(nu=self.nu, p=0.01, landscape="random", seed=s)
            for s in _landscape_seeds(self.seed, self.b)
        ]
        self.mutation = jobs[0].build_mutation()
        self.landscapes = [job.build_landscape() for job in jobs]
        self.operator = BatchedFmmp(self.mutation, self.landscapes, threads=1)
        self.shifts = np.array(
            [conservative_shift(self.mutation, land) for land in self.landscapes]
        )

    def prepare(self) -> None:
        """Untimed per-operation preparation (none needed)."""

    def _solve(self, starts=None):
        from repro.solvers.power import BlockPowerIteration

        return BlockPowerIteration(self.operator, shifts=self.shifts, tol=TOL).solve(starts)

    def op(self):
        return self._solve()

    def warm(self, result):
        """Re-solve every column started from its converged answer."""
        return self._solve(np.stack([col.eigenvector for col in result], axis=1))

    def check(self, result, warm) -> list[str]:
        from repro.operators.fmmp import Fmmp

        failures = []
        if not (result.converged and warm.converged):
            failures.append("block solve did not converge")
        for j, (col, land) in enumerate(zip(result, self.landscapes)):
            oracle = Fmmp(self.mutation, land, threads=1)
            residual = _residual(oracle, col.eigenvector, col.eigenvalue)
            if not residual <= RESIDUAL_SLACK * TOL:
                failures.append(f"column {j}: scalar residual {residual:.3e}")
        drift = np.max(np.abs(warm.eigenvalues - result.eigenvalues))
        if not drift <= RESIDUAL_SLACK * TOL:
            failures.append(f"warm re-solve moved an eigenvalue by {drift:.3e}")
        return failures

    def cleanup(self) -> None:
        """Nothing to release."""


class ServiceSweep:
    """W3: a 198-request manifest through ``SolverService``, cold then warm.

    The manifest holds reduced single-peak jobs over a grid of error
    rates, shifted-power random-landscape jobs that the scheduler
    batches into two blocks, and exact duplicates, in a seeded order.
    Every cold submit goes to a fresh service over an empty disk cache;
    the warm re-submit goes to another fresh service on the same
    directory.
    """

    name = "service-sweep"

    def __init__(self, seed: int, size: str = "full"):
        self.seed = seed
        self.size = SIZES[size]
        self.root = None
        self.cache_dir = None

    def _manifest(self) -> list:
        from repro.service.jobspec import SolveJob

        s = self.size
        rng = np.random.default_rng(self.seed)
        nu = s["sweep_reduced_nu"]
        peak = 1.5 + 1.5 * float(rng.random())
        classes = (peak,) + (1.0,) * nu
        unique = [
            SolveJob(nu=nu, p=float(p), landscape="hamming", class_values=classes)
            for p in np.linspace(0.001, 0.05, s["sweep_reduced_jobs"])
        ]
        for p in (0.01, 0.02):
            unique += [
                SolveJob(
                    nu=s["sweep_power_nu"], p=p, landscape="random", seed=land_seed,
                    method="power", shift=True, tol=TOL,
                )
                for land_seed in _landscape_seeds(self.seed, s["sweep_power_seeds"])
            ]
        picks = rng.choice(len(unique), size=s["sweep_duplicates"], replace=False)
        jobs = unique + [unique[int(i)] for i in picks]
        return [jobs[int(i)] for i in rng.permutation(len(jobs))]

    def _service(self):
        from repro.service import SolverService

        return SolverService(kind="thread", workers=2, cache_dir=self.cache_dir, threads=1)

    def setup(self) -> None:
        self.cleanup()
        os.makedirs(WORK_DIR, exist_ok=True)
        self.root = tempfile.mkdtemp(prefix="sweep-", dir=WORK_DIR)
        self.jobs = self._manifest()
        self.n_unique = len({job.content_key() for job in self.jobs})
        self.cache_dir = os.path.join(self.root, "cache")
        self.service = self._service()

    def prepare(self) -> None:
        """A fresh service over an empty cache directory."""
        shutil.rmtree(self.cache_dir, ignore_errors=True)
        os.makedirs(self.cache_dir)
        self.service = self._service()

    def op(self):
        return self.service.submit(self.jobs)

    def warm(self, result):
        """Re-submit the manifest to a new service on the same directory."""
        return self._service().submit(self.jobs)

    def check(self, result, warm) -> list[str]:
        failures = []
        if not result.passed:
            failures.append(f"cold batch failed: {result.failures()[:3]}")
        if result.n_solved != self.n_unique:
            failures.append(f"cold batch solved {result.n_solved} of {self.n_unique} unique jobs")
        if warm.n_solved != 0:
            failures.append(f"warm batch solved {warm.n_solved} jobs")
        if warm.n_cached != self.n_unique:
            failures.append(f"warm batch cached {warm.n_cached} of {self.n_unique}")
        if not warm.passed:
            failures.append("warm batch failed")
        elif result.passed:
            cold_eig = [r.eigenvalue for r in result.results]
            warm_eig = [r.eigenvalue for r in warm.results]
            if cold_eig != warm_eig:
                failures.append("warm eigenvalues differ from cold")
        return failures

    def cleanup(self) -> None:
        """Remove this workload's cache directories."""
        if self.root is not None:
            shutil.rmtree(self.root, ignore_errors=True)
            self.root = None
        try:
            os.rmdir(WORK_DIR)
        except OSError:
            pass  # absent, or still used by another run


WORKLOADS = {cls.name: cls for cls in (PiFmmp, BlockPower, ServiceSweep)}

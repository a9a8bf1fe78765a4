"""Tests for the simulated distributed-memory solver (paper future work)."""

import numpy as np
import pytest

from repro.distributed import (
    ClusterProfile,
    CommLink,
    DistributedFmmp,
    DistributedPowerIteration,
    PartitionedVector,
)
from repro.distributed.cluster import INFINIBAND_QDR, gpu_cluster
from repro.exceptions import ValidationError
from repro.landscapes import RandomLandscape
from repro.mutation import PerSiteMutation, UniformMutation
from repro.solvers import dense_solve


class TestCommLink:
    def test_alpha_beta_model(self):
        link = CommLink(latency_s=1e-6, bandwidth_gbs=1.0)
        assert link.time(0) == pytest.approx(1e-6)
        assert link.time(1e9) == pytest.approx(1e-6 + 1.0)

    def test_validation(self):
        with pytest.raises(ValidationError):
            CommLink(latency_s=-1.0, bandwidth_gbs=1.0)
        with pytest.raises(ValidationError):
            CommLink(latency_s=0.0, bandwidth_gbs=0.0)


class TestClusterProfile:
    def test_hypercube_dimension(self):
        assert gpu_cluster(8).dimensions == 3
        assert gpu_cluster(1).dimensions == 0

    def test_rank_validation(self):
        from repro.device.profile import TESLA_C2050

        with pytest.raises(ValidationError):
            ClusterProfile(node=TESLA_C2050, link=INFINIBAND_QDR, ranks=3)

    def test_allreduce_scales_logarithmically(self):
        t2 = gpu_cluster(2).allreduce_time()
        t16 = gpu_cluster(16).allreduce_time()
        assert t16 == pytest.approx(4 * t2)
        assert gpu_cluster(1).allreduce_time() == 0.0


class TestPartitionedVector:
    def test_scatter_gather_roundtrip(self):
        v = np.arange(32, dtype=float)
        pv = PartitionedVector.scatter(v, 4)
        assert pv.ranks == 4 and pv.block_size == 8
        np.testing.assert_array_equal(pv.gather(), v)

    def test_scatter_validation(self):
        with pytest.raises(ValidationError):
            PartitionedVector.scatter(np.arange(10, dtype=float), 4)
        with pytest.raises(ValidationError):
            PartitionedVector.scatter(np.arange(16, dtype=float), 3)

    def test_unequal_blocks_rejected(self):
        with pytest.raises(ValidationError):
            PartitionedVector([np.zeros(4), np.zeros(8)])

    def test_local_sum(self):
        pv = PartitionedVector.scatter(np.ones(16), 4)
        assert pv.local_sum() == [4.0, 4.0, 4.0, 4.0]


class TestDistributedFmmp:
    @pytest.mark.parametrize("ranks", [1, 2, 4, 8, 16])
    def test_matches_serial_exactly(self, ranks):
        nu, p = 8, 0.02
        mut = UniformMutation(nu, p)
        v = np.random.default_rng(ranks).random(1 << nu)
        serial = mut.apply(v.copy())
        op = DistributedFmmp(gpu_cluster(ranks), mut.factors_per_bit())
        out = op.apply(PartitionedVector.scatter(v, ranks)).gather()
        np.testing.assert_allclose(out, serial, atol=1e-13)

    def test_per_site_factors(self):
        nu = 6
        mut = PerSiteMutation.from_error_rates([0.01, 0.05, 0.02, 0.08, 0.03, 0.04])
        v = np.random.default_rng(1).random(1 << nu)
        serial = mut.apply(v.copy())
        op = DistributedFmmp(gpu_cluster(4), mut.factors_per_bit())
        out = op.apply(PartitionedVector.scatter(v, 4)).gather()
        np.testing.assert_allclose(out, serial, atol=1e-13)

    def test_stage_split(self):
        op = DistributedFmmp(gpu_cluster(8), UniformMutation(10, 0.01).factors_per_bit())
        assert op.local_stages == 7 and op.cross_stages == 3
        assert op.local_stages + op.cross_stages == 10

    def test_comm_volume_formula(self):
        nu, ranks = 12, 8
        op = DistributedFmmp(gpu_cluster(ranks), UniformMutation(nu, 0.01).factors_per_bit())
        expected = 8.0 * (1 << nu) / ranks * 3  # log2(8) exchanges of the block
        assert op.comm_bytes_per_matvec() == expected

    def test_single_rank_no_comm(self):
        op = DistributedFmmp(gpu_cluster(1), UniformMutation(6, 0.01).factors_per_bit())
        assert op.comm_time_per_matvec() == 0.0

    def test_too_many_ranks_rejected(self):
        with pytest.raises(ValidationError):
            DistributedFmmp(gpu_cluster(16), UniformMutation(4, 0.01).factors_per_bit())

    def test_mismatched_vector_rejected(self):
        op = DistributedFmmp(gpu_cluster(4), UniformMutation(6, 0.01).factors_per_bit())
        with pytest.raises(ValidationError):
            op.apply(PartitionedVector.scatter(np.ones(64), 2))


class TestDistributedPowerIteration:
    @pytest.fixture
    def problem(self):
        nu, p = 7, 0.02
        mut = UniformMutation(nu, p)
        ls = RandomLandscape(nu, c=5.0, sigma=1.0, seed=31)
        return mut, ls, dense_solve(mut, ls)

    @pytest.mark.parametrize("ranks", [1, 4, 16])
    def test_matches_dense(self, problem, ranks):
        mut, ls, ref = problem
        rep = DistributedPowerIteration(gpu_cluster(ranks), mut, ls, tol=1e-13).run()
        assert rep.result.eigenvalue == pytest.approx(ref.eigenvalue, abs=1e-10)
        np.testing.assert_allclose(rep.result.concentrations, ref.concentrations, atol=1e-9)

    def test_identical_iterations_across_ranks(self, problem):
        """Partitioning must not change the numerics at all."""
        mut, ls, _ = problem
        reps = [
            DistributedPowerIteration(gpu_cluster(r), mut, ls, tol=1e-12).run()
            for r in (1, 2, 8)
        ]
        iters = {rep.result.iterations for rep in reps}
        assert len(iters) == 1
        np.testing.assert_allclose(
            reps[0].result.concentrations, reps[-1].result.concentrations, atol=1e-14
        )

    def test_memory_per_rank_shrinks(self, problem):
        mut, ls, _ = problem
        r1 = DistributedPowerIteration(gpu_cluster(1), mut, ls, tol=1e-10).run()
        r8 = DistributedPowerIteration(gpu_cluster(8), mut, ls, tol=1e-10).run()
        assert r8.memory_per_rank_bytes == r1.memory_per_rank_bytes / 8

    def test_comm_fraction_grows_with_ranks(self, problem):
        mut, ls, _ = problem
        fracs = [
            DistributedPowerIteration(gpu_cluster(r), mut, ls, tol=1e-10).run().comm_fraction
            for r in (1, 4, 16)
        ]
        assert fracs[0] == 0.0
        assert fracs[0] < fracs[1] < fracs[2]

    def test_nan_start_raises_before_the_first_sweep(self, problem, monkeypatch):
        mut, ls, _ = problem
        solver = DistributedPowerIteration(gpu_cluster(4), mut, ls, max_iterations=50)
        sweeps = []
        real = solver.op.apply
        monkeypatch.setattr(solver.op, "apply", lambda v: sweeps.append(1) or real(v))
        start = ls.start_vector()
        start[5] = np.nan
        with pytest.raises(ValidationError, match="finite nonzero mass"):
            solver.run(start)
        assert sweeps == []

    def test_mismatched_nu_rejected(self):
        with pytest.raises(ValidationError):
            DistributedPowerIteration(
                gpu_cluster(2), UniformMutation(5, 0.01), RandomLandscape(6, seed=0)
            )

"""Tests for the batch planner: dedup in first-seen order."""

from repro.service import SolveJob, plan_batch


def _reduced(p: float, **kw) -> SolveJob:
    return SolveJob(nu=8, p=p, **kw)  # single-peak + uniform → reduced


def _full(p: float, **kw) -> SolveJob:
    kw.setdefault("landscape", "random")
    return SolveJob(nu=8, p=p, method="power", **kw)


class TestDedup:
    def test_duplicates_collapse(self):
        jobs = [_reduced(0.01), _reduced(0.02), _reduced(0.01)]
        plan = plan_batch(jobs)
        assert plan.n_unique == 2 and plan.n_duplicates == 1
        assert plan.index_map == [0, 1, 0]

    def test_tol_differences_are_distinct_jobs(self):
        # dedup keys on the full content hash: different tol = different job
        jobs = [_reduced(0.01, tol=1e-12), _reduced(0.01, tol=1e-6)]
        assert plan_batch(jobs).n_unique == 2

    def test_empty_batch(self):
        plan = plan_batch([])
        assert plan.n_jobs == 0 and plan.unique_jobs == [] and plan.index_map == []


class TestOrdering:
    def test_unique_jobs_in_first_seen_order(self):
        big = SolveJob(nu=10, p=0.01, landscape="random", method="power")
        jobs = [_full(0.01), big, _reduced(0.02), _full(0.01), _reduced(0.02)]
        plan = plan_batch(jobs)
        assert plan.unique_jobs == jobs[:3]
        assert plan.index_map == [0, 1, 2, 0, 2]

    def test_deterministic(self):
        jobs = [_full(0.01), _reduced(0.02), _full(0.03), _reduced(0.02)]
        a, b = plan_batch(jobs), plan_batch(jobs)
        assert a.unique_jobs == b.unique_jobs and a.index_map == b.index_map


class TestSummary:
    def test_to_dict_summary(self):
        plan = plan_batch([_reduced(0.01), _reduced(0.01), _full(0.02)])
        assert plan.to_dict() == {"jobs": 3, "unique_jobs": 2, "duplicates": 1}

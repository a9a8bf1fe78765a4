"""Tests for the canonical job specs and content hashing."""

import copy
import dataclasses
import hashlib
import json
import pickle

import numpy as np
import pytest

import repro.service.jobspec as jobspec
from repro.exceptions import ValidationError
from repro.service import (
    JOB_METHODS,
    JobResult,
    ProblemSpec,
    SolveJob,
    canonical_payload,
    content_hash,
)
from repro.verify import spec as verify_spec


class TestCanonicalPayload:
    def test_floats_hash_exactly(self):
        # 0.1 + 0.2 != 0.3 — float.hex canonicalization must keep them apart
        assert content_hash(0.1 + 0.2) != content_hash(0.3)
        assert canonical_payload(0.5) == (0.5).hex()

    def test_numpy_scalars_and_arrays(self):
        assert canonical_payload(np.float64(0.5)) == (0.5).hex()
        assert canonical_payload(np.int64(3)) == 3
        assert canonical_payload(np.array([1.0, 2.0])) == [(1.0).hex(), (2.0).hex()]

    def test_tuples_and_lists_agree(self):
        assert content_hash((1, 2.0, "x")) == content_hash([1, 2.0, "x"])

    def test_dict_key_order_irrelevant(self):
        assert content_hash({"a": 1, "b": 2}) == content_hash({"b": 2, "a": 1})

    def test_unhashable_type_raises(self):
        with pytest.raises(ValidationError):
            canonical_payload(object())

    def test_digest_is_stable(self):
        # the exact digest is part of the on-disk cache contract
        a = content_hash({"nu": 4, "p": 0.01})
        b = content_hash({"nu": 4, "p": 0.01})
        assert a == b and len(a) == 64


def _reference_payload(obj):
    """The recursive canonicalization every digest was first pinned with:
    one call per element, no fast paths."""
    if isinstance(obj, float):
        return float(obj).hex()
    if isinstance(obj, (int, str)) or obj is None:
        return obj
    if isinstance(obj, (list, tuple)):
        return [_reference_payload(x) for x in obj]
    if isinstance(obj, dict):
        return {str(k): _reference_payload(v) for k, v in obj.items()}
    if isinstance(obj, np.floating):
        return float(obj).hex()
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return [_reference_payload(x) for x in obj.tolist()]
    raise ValidationError(f"cannot canonicalize {type(obj).__name__} for hashing")


def _reference_json(obj) -> str:
    return json.dumps(_reference_payload(obj), sort_keys=True, separators=(",", ":"))


_INF, _NAN = float("inf"), float("nan")

CANONICAL_CASES = [
    True, False, None, 0, -7, 2**80, -(2**100), "x", "",
    1.5, 0.1 + 0.2, 0.0, -0.0, _INF, -_INF, _NAN, 5e-324, 1.7976931348623157e308,
    np.float64(0.5), np.float32(0.1), np.float16(-0.0), np.int64(7), np.uint8(255),
    np.array([1.0, -0.0, _NAN]), np.arange(4), np.ones((2, 3)), np.array([]),
    [], (), (1.0,) * 5, (1.7,) + (1.0,) * 20, [2.0, 1, 1, 1, 1],
    (0.0, -0.0), (-0.0, 0.0, 1.0), (1.0, -0.0, 1.0), [0.0] * 3, (_NAN, _NAN, 1.0),
    (_INF, -_INF, _INF), (1.0, True), (True, 1.0), (1.0, None), (np.float64(1.0), 1.0),
    [1.0, [2.0, (3, "x")], {"a": -0.0, 1: None}], {"b": (1.0, 1.0), "a": [0.5, -0.0]},
    {"nested": {"deep": [np.float64(-0.0), np.int32(3), (2.5, 2.5)]}},
]


class TestCanonicalPayloadMatchesReference:
    """The fast paths emit the same JSON bytes, hence the same digests."""

    @pytest.mark.parametrize("obj", CANONICAL_CASES, ids=repr)
    def test_same_json_and_digest(self, obj):
        ours = json.dumps(canonical_payload(obj), sort_keys=True, separators=(",", ":"))
        assert ours == _reference_json(obj)
        expected = hashlib.sha256(_reference_json(obj).encode("utf-8")).hexdigest()
        assert content_hash(obj) == expected

    @pytest.mark.parametrize(
        "obj",
        [object(), {1, 2}, b"x", 1j, np.bool_(True), [1.0, object()], (1.0, {2.0})],
        ids=["object", "set", "bytes", "complex", "np.bool_", "list-of-object", "tuple-of-set"],
    )
    def test_rejected_types(self, obj):
        with pytest.raises(ValidationError):
            _reference_payload(obj)
        with pytest.raises(ValidationError):
            canonical_payload(obj)


class TestSharedProblemSpec:
    def test_verify_spec_is_the_service_spec(self):
        # satellite 1: one shared source of truth, no parallel definitions
        assert verify_spec.ProblemSpec is ProblemSpec
        assert verify_spec.LANDSCAPE_KINDS == ("single-peak", "linear", "flat", "random", "kronecker")

    def test_content_key_deterministic(self):
        a = ProblemSpec(nu=5, p=0.03, landscape="random", seed=7)
        b = ProblemSpec(nu=5, p=0.03, landscape="random", seed=7)
        assert a.content_key() == b.content_key()
        assert a.content_key() != a.with_(seed=8).content_key()


class TestSolveJobValidation:
    def test_defaults_valid(self):
        job = SolveJob(nu=6, p=0.01)
        assert job.n == 64 and job.method == "auto"

    def test_hamming_requires_class_values(self):
        with pytest.raises(ValidationError):
            SolveJob(nu=4, p=0.01, landscape="hamming")

    def test_hamming_class_values_length_checked(self):
        with pytest.raises(ValidationError):
            SolveJob(nu=4, p=0.01, landscape="hamming", class_values=(1.0, 2.0))

    def test_class_values_coerced_to_float_tuple(self):
        job = SolveJob(nu=2, p=0.01, landscape="hamming", class_values=[2, 1, 1])
        assert job.class_values == (2.0, 1.0, 1.0)

    def test_class_values_rejected_for_named_landscapes(self):
        with pytest.raises(ValidationError):
            SolveJob(nu=2, p=0.01, landscape="single-peak", class_values=(2.0, 1.0, 1.0))

    def test_bad_method_rejected(self):
        with pytest.raises(ValidationError):
            SolveJob(nu=4, p=0.01, method="magic")

    def test_bad_tol_rejected(self):
        with pytest.raises(ValidationError):
            SolveJob(nu=4, p=0.01, tol=0.0)

    def test_dmax_range_checked(self):
        with pytest.raises(ValidationError):
            SolveJob(nu=4, p=0.01, dmax=9)


class TestContentKeys:
    def test_cache_key_ignores_accuracy_knobs(self):
        a = SolveJob(nu=6, p=0.02, tol=1e-12, max_iterations=1000, tag="x")
        b = SolveJob(nu=6, p=0.02, tol=1e-6, max_iterations=50, tag="y")
        assert a.cache_key() == b.cache_key()
        assert a.content_key() != b.content_key()

    def test_cache_key_sees_route(self):
        a = SolveJob(nu=6, p=0.02, method="power")
        b = SolveJob(nu=6, p=0.02, method="lanczos")
        assert a.cache_key() != b.cache_key()

    def test_operator_key_groups_shared_mutation(self):
        a = SolveJob(nu=6, p=0.02, landscape="random", mutation="persite", seed=3, method="power")
        b = SolveJob(nu=6, p=0.02, landscape="kronecker", mutation="persite", seed=3, method="lanczos")
        c = SolveJob(nu=6, p=0.03, landscape="random", mutation="persite", seed=3, method="power")
        assert a.operator_key() == b.operator_key()  # same operator, different problems
        assert a.operator_key() != c.operator_key()  # different p → different operator


#: (job, content_key, cache_key, operator_key): digests of the hashing
#: scheme, which cached results on disk are filed under
PINNED_DIGESTS = [
    (
        SolveJob(nu=6, p=0.02),
        "f37df6344d620ccc98d4c7fad33c83b54914b8b1271d9e179044b2c5f1582919",
        "ba92270bb5d4b061c28a4d9db2b015e5ed9b5cec9aef68304c2928e4c1c1d57e",
        "df4b8c4f97d808398432a1861ba306c6a140a674187d80c6442d6d20330b4c9b",
    ),
    (
        SolveJob(nu=4, p=0.03, landscape="hamming", class_values=(2.0, 1, 1, 1, 1),
                 method="reduced", tol=1e-10),
        "0b4c262dedcecc46f5c1f70bc6fcabd10ca7d8055fbe7b8706a7d4372b2491b2",
        "3a2a7a145c698247486716b1a032b7baf0d1f05844c2bcc8d277e8009b5efa16",
        "7ffec7662ea28789ce97cefaa1a4f23ae1090d236235e3c24cc08b316f929b60",
    ),
    (
        SolveJob(nu=14, p=0.01, landscape="random", seed=5, method="power", shift=True,
                 tol=1e-10),
        "8bbded62d7f4c193c730c28da0a5ae792264cd80522ccfb2de66be822479946c",
        "f5a9bdd28ee9964d5423b97cda2a9bc926d58aaff033b2f7f12a5848a2a3821a",
        "0a850edd199537185039d484655aecde9be75d4f64256318632b232121037c71",
    ),
]


@pytest.fixture
def hash_calls(monkeypatch):
    """Every payload :func:`content_hash` digests, in call order."""
    calls = []
    real = jobspec.content_hash

    def counting(obj):
        calls.append(obj)
        return real(obj)

    monkeypatch.setattr(jobspec, "content_hash", counting)
    return calls


class TestKeyMemo:
    """``cache_key`` and ``operator_key`` are hashed once per instance;
    the memo is invisible to equality, hashing, copies and pickles."""

    @pytest.mark.parametrize("job,content,cache,operator", PINNED_DIGESTS)
    def test_digests_are_pinned(self, job, content, cache, operator):
        fresh = SolveJob.from_dict(job.to_dict())
        for _ in range(2):  # the memoized second call too
            assert (fresh.content_key(), fresh.cache_key(), fresh.operator_key()) == (
                content, cache, operator,
            )

    def test_each_key_hashed_once_content_key_every_call(self, hash_calls):
        job = SolveJob(nu=6, p=0.02, landscape="random", method="power")
        keys = [job.cache_key(), job.operator_key()] * 3
        assert len(hash_calls) == 2 and len(set(keys)) == 2
        job.content_key()
        job.content_key()
        assert len(hash_calls) == 4

    def test_replace_copy_computes_its_own_keys(self, hash_calls):
        job = SolveJob(nu=6, p=0.02, landscape="random", method="power")
        job.cache_key(), job.operator_key()
        for copy_ in (dataclasses.replace(job, p=0.03), job.with_(p=0.03)):
            fresh = SolveJob(nu=6, p=0.03, landscape="random", method="power")
            assert copy_.cache_key() == fresh.cache_key() != job.cache_key()
            assert copy_.operator_key() == fresh.operator_key() != job.operator_key()
        looser = dataclasses.replace(job, tol=1e-6)  # same keys, its own digests
        before = len(hash_calls)
        assert (looser.cache_key(), looser.operator_key()) == (job.cache_key(), job.operator_key())
        assert len(hash_calls) == before + 2

    def test_equality_hashing_and_pickles_ignore_the_memo(self):
        job = SolveJob(nu=6, p=0.02, landscape="random", method="power")
        twin = SolveJob(nu=6, p=0.02, landscape="random", method="power")
        keys = (job.cache_key(), job.operator_key())
        assert job == twin and hash(job) == hash(twin) and len({job, twin}) == 1
        assert job.to_dict() == twin.to_dict()
        assert pickle.dumps(job) == pickle.dumps(twin)
        for clone in (pickle.loads(pickle.dumps(job)), copy.copy(job), copy.deepcopy(job)):
            assert clone == job
            assert not set(vars(clone)) & set(jobspec._KEY_MEMOS)
            assert (clone.cache_key(), clone.operator_key()) == keys


class TestRouteResolution:
    def test_auto_dispatch(self):
        assert SolveJob(nu=6, p=0.02).resolved_method() == "reduced"
        assert SolveJob(nu=6, p=0.02, landscape="random").resolved_method() == "power"
        assert (
            SolveJob(nu=6, p=0.02, landscape="kronecker", mutation="grouped").resolved_method()
            == "kronecker"
        )

    def test_explicit_method_wins(self):
        assert SolveJob(nu=6, p=0.02, method="dense").resolved_method() == "dense"

    def test_all_job_methods_constructible(self):
        for method in JOB_METHODS:
            SolveJob(nu=4, p=0.02, landscape="random", method=method)


class TestSerialization:
    def test_round_trip(self):
        job = SolveJob(
            nu=4, p=0.03, landscape="hamming", class_values=(2.0, 1.0, 1.0, 1.0, 1.0),
            method="reduced", tol=1e-10, tag="sweep",
        )
        again = SolveJob.from_dict(job.to_dict())
        assert again == job
        assert again.content_key() == job.content_key()

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValidationError):
            SolveJob.from_dict({"nu": 4, "p": 0.01, "speed": "ludicrous"})

    def test_from_problem(self):
        spec = ProblemSpec(nu=5, p=0.04, landscape="random", mutation="persite", seed=2)
        job = SolveJob.from_problem(spec, method="power", tol=1e-9)
        assert (job.nu, job.p, job.seed, job.method, job.tol) == (5, 0.04, 2, "power", 1e-9)
        assert job.problem() == spec

    def test_job_result_round_trip(self):
        result = JobResult(
            eigenvalue=1.9,
            concentrations=np.array([0.7, 0.2, 0.1]),
            method="reduced",
            iterations=1,
            residual=1e-15,
            converged=True,
            tol=1e-12,
        )
        again = JobResult.from_dict(result.to_dict())
        assert again.eigenvalue == result.eigenvalue
        np.testing.assert_array_equal(again.concentrations, result.concentrations)
        assert again.converged and again.tol == result.tol


class TestBuilders:
    def test_hamming_landscape_build(self):
        job = SolveJob(nu=3, p=0.01, landscape="hamming", class_values=(3.0, 1.0, 1.0, 1.0))
        ls = job.build_landscape()
        np.testing.assert_array_equal(ls.class_values(), [3.0, 1.0, 1.0, 1.0])

    def test_named_builds_match_problem_spec(self):
        job = SolveJob(nu=4, p=0.05, landscape="random", mutation="persite", seed=6)
        spec = job.problem()
        np.testing.assert_array_equal(
            job.build_landscape().values(), spec.build_landscape().values()
        )

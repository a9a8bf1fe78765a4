"""API-surface quality gates: exports, docstrings, misc small paths."""

import ast
import collections
import importlib
import inspect
import os
import pkgutil
import tokenize

import numpy as np
import pytest

import repro

PACKAGES = [
    "repro",
    "repro.analysis",
    "repro.bitops",
    "repro.device",
    "repro.device.kernels",
    "repro.distributed",
    "repro.io",
    "repro.landscapes",
    "repro.model",
    "repro.mutation",
    "repro.operators",
    "repro.perf",
    "repro.population",
    "repro.reporting",
    "repro.service",
    "repro.solvers",
    "repro.transforms",
    "repro.util",
]


def _walk_modules():
    mods = []
    for name in PACKAGES:
        pkg = importlib.import_module(name)
        mods.append(pkg)
        if hasattr(pkg, "__path__"):
            for info in pkgutil.iter_modules(pkg.__path__, prefix=name + "."):
                mods.append(importlib.import_module(info.name))
    return {m.__name__: m for m in mods}.values()


class TestDocumentation:
    def test_every_module_has_a_docstring(self):
        undocumented = [m.__name__ for m in _walk_modules() if not (m.__doc__ or "").strip()]
        assert not undocumented, f"modules without docstrings: {undocumented}"

    def test_all_exports_resolve(self):
        for mod in _walk_modules():
            for name in getattr(mod, "__all__", []):
                assert hasattr(mod, name), f"{mod.__name__}.__all__ lists missing {name!r}"

    def test_public_callables_documented(self):
        missing = []
        for mod in _walk_modules():
            for name in getattr(mod, "__all__", []):
                obj = getattr(mod, name)
                if callable(obj) and not (getattr(obj, "__doc__", None) or "").strip():
                    missing.append(f"{mod.__name__}.{name}")
        assert not missing, f"undocumented public callables: {missing}"

    def test_version_exposed(self):
        assert repro.__version__.count(".") == 2


REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO, "src")
#: where a reference keeps a public name alive
REFERENCE_DIRS = ("src", "benchmarks", "examples", "perfbench", "tests")


def _identifiers(path: str) -> tuple[collections.Counter, set[str]]:
    """Identifier tokens of a Python file, and its string literals that
    are a bare identifier (``getattr``-style references); docstrings and
    comments are not references."""
    names, strings = collections.Counter(), set()
    with open(path, "rb") as fh:
        for tok in tokenize.tokenize(fh.readline):
            if tok.type == tokenize.NAME:
                names[tok.string] += 1
            elif tok.type == tokenize.STRING:
                try:
                    value = ast.literal_eval(tok.string)
                except (ValueError, SyntaxError):
                    continue
                if isinstance(value, str) and value.isidentifier():
                    strings.add(value)
    return names, strings


def _reference_files() -> dict[str, tuple[collections.Counter, set[str]]]:
    """Identifiers per file; package ``__init__`` re-exports do not
    count as references."""
    files = {}
    for top in REFERENCE_DIRS:
        for dirpath, _, names in os.walk(os.path.join(REPO, top)):
            for name in names:
                path = os.path.join(dirpath, name)
                if not name.endswith(".py"):
                    continue
                if name == "__init__.py" and path.startswith(SRC + os.sep):
                    continue
                files[path] = _identifiers(path)
    return files


def _public_names(mod):
    """``mod.__all__`` plus the public methods and properties of the
    classes it defines there."""
    for name in getattr(mod, "__all__", []):
        yield name, name
        obj = getattr(mod, name)
        if inspect.isclass(obj) and obj.__module__ == mod.__name__:
            for attr, value in vars(obj).items():
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(value) or isinstance(
                    value, (property, staticmethod, classmethod)
                ):
                    yield f"{name}.{attr}", attr


class TestNoDeadNames:
    def test_every_public_name_is_referenced(self):
        """Every exported name, and every public method or property of an
        exported class, is used somewhere besides its own definition: in
        another file of ``src``, ``benchmarks``, ``examples``,
        ``perfbench`` or ``tests``, or elsewhere in its own module (where
        its ``__all__`` entry does not count)."""
        files = _reference_files()
        dead = []
        for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
            if info.ispkg:
                continue
            mod = importlib.import_module(info.name)
            path = os.path.abspath(mod.__file__)
            own_names, _ = files[path]
            for label, name in _public_names(mod):
                if own_names[name] > 1:  # the definition itself is one
                    continue
                if not any(
                    names[name] or name in strings
                    for other, (names, strings) in files.items()
                    if other != path
                ):
                    dead.append(f"{info.name}.{label}")
        assert not dead, f"public names nothing references: {dead}"


class TestTopLevelApi:
    def test_quick_solve_via_top_level_import(self):
        from repro import QuasispeciesModel
        from repro.landscapes import SinglePeakLandscape

        res = QuasispeciesModel(SinglePeakLandscape(8), p=0.01).solve()
        assert res.converged

    def test_exception_hierarchy(self):
        from repro import (
            ConvergenceError,
            DeviceError,
            IncompatibleStructureError,
            ReproError,
            ValidationError,
        )

        for exc in (ValidationError, ConvergenceError, IncompatibleStructureError, DeviceError):
            assert issubclass(exc, ReproError)
        assert issubclass(ValidationError, ValueError)
        assert issubclass(ConvergenceError, RuntimeError)

    def test_convergence_error_payload(self):
        from repro import ConvergenceError

        exc = ConvergenceError("x", iterations=7, residual=1e-3)
        assert exc.iterations == 7 and exc.residual == 1e-3


class TestSmallPaths:
    def test_solve_result_error_class_helper(self):
        from repro.landscapes import RandomLandscape
        from repro.model.concentrations import class_concentrations
        from repro.mutation import UniformMutation
        from repro.solvers import dense_solve

        nu = 6
        res = dense_solve(UniformMutation(nu, 0.02), RandomLandscape(nu, seed=0))
        np.testing.assert_allclose(
            res.error_class_concentrations(nu),
            class_concentrations(res.concentrations, nu),
        )

    def test_operator_matmul_and_shape(self):
        from repro.landscapes import RandomLandscape
        from repro.mutation import UniformMutation
        from repro.operators import Fmmp

        op = Fmmp(UniformMutation(5, 0.02), RandomLandscape(5, seed=0))
        assert op.shape == (32, 32)
        v = np.random.default_rng(0).random(32)
        np.testing.assert_array_equal(op @ v, op.matvec(v))

    def test_build_operator_shift_rejected_for_per_site(self):
        from repro.exceptions import ValidationError
        from repro.landscapes import RandomLandscape
        from repro.model import QuasispeciesModel
        from repro.mutation import PerSiteMutation

        mut = PerSiteMutation.from_error_rates([0.01, 0.02, 0.01])
        model = QuasispeciesModel(RandomLandscape(3, seed=0), mut)
        with pytest.raises(ValidationError):
            model.build_operator("fmmp", shift=True)
        # Explicit float shifts remain allowed.
        op = model.build_operator("fmmp", shift=0.001)
        assert op.mu == 0.001

    def test_measured_series_as_arrays(self):
        from repro.perf.measure import MeasuredSeries

        s = MeasuredSeries("x")
        s.add(10, 0.5)
        s.add(11, 1.0)
        nus, secs = s.as_arrays()
        np.testing.assert_array_equal(nus, [10, 11])
        np.testing.assert_array_equal(secs, [0.5, 1.0])

    def test_device_validation_sampling_large_launch(self):
        """Validation with sampled (not exhaustive) work items still
        catches a divergent kernel on a large launch."""
        from repro.device import Device, TESLA_C2050
        from repro.device.kernel import Kernel, KernelCosts
        from repro.exceptions import DeviceError

        def scalar(i, state, params):
            return {("v", i): state["v"][i] * 2.0}

        def bad_batch(ids, buffers, params):
            buffers["v"][ids] *= 3.0

        bad = Kernel("bad2", scalar, bad_batch, KernelCosts(16.0, 1.0), ("v",))
        dev = Device(TESLA_C2050, validate=True, validate_samples=8, seed=1)
        dev.alloc("v", 4096)
        dev.to_device("v", np.ones(4096))
        with pytest.raises(DeviceError, match="divergence"):
            dev.launch(bad, 4096)

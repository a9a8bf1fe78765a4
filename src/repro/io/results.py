"""Save/load :class:`SolveResult` and :class:`ThresholdSweep` objects.

Format: a single ``.npz`` archive per object.  Arrays are stored
natively; scalar metadata goes through a JSON side-channel entry so the
archive stays self-describing and future-proof (unknown keys are
ignored on load).
"""

from __future__ import annotations

import json

import numpy as np

from repro.exceptions import ValidationError
from repro.model.threshold import ThresholdSweep
from repro.solvers.result import IterationRecord, SolveResult

__all__ = [
    "save_result",
    "load_result",
    "save_sweep",
    "load_sweep",
    "save_verification_report",
    "load_verification_report",
    "save_job_result",
    "load_job_result",
    "save_batch_report",
    "load_batch_report",
]

_RESULT_KIND = "repro.SolveResult.v1"
_SWEEP_KIND = "repro.ThresholdSweep.v1"
_JOB_RESULT_KIND = "repro.JobResult.v1"


def save_result(path: str, result: SolveResult) -> None:
    """Persist a solve result to ``path`` (``.npz``)."""
    meta = {
        "kind": _RESULT_KIND,
        "eigenvalue": result.eigenvalue,
        "iterations": result.iterations,
        "residual": result.residual,
        "converged": bool(result.converged),
        "method": result.method,
    }
    history = np.array(
        [(h.iteration, h.eigenvalue, h.residual) for h in result.history],
        dtype=np.float64,
    ).reshape(-1, 3)
    np.savez(
        path,
        meta=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8),
        eigenvector=result.eigenvector,
        concentrations=result.concentrations,
        history=history,
    )


def _read_meta(archive, expected_kind: str) -> dict:
    try:
        raw = bytes(archive["meta"].tobytes()).decode()
        meta = json.loads(raw)
    except (KeyError, ValueError) as exc:
        raise ValidationError(f"not a repro archive: {exc}") from exc
    if meta.get("kind") != expected_kind:
        raise ValidationError(
            f"archive kind {meta.get('kind')!r} does not match expected {expected_kind!r}"
        )
    return meta


def load_result(path: str) -> SolveResult:
    """Load a solve result saved by :func:`save_result`."""
    with np.load(path) as archive:
        meta = _read_meta(archive, _RESULT_KIND)
        history = [
            IterationRecord(int(row[0]), float(row[1]), float(row[2]))
            for row in archive["history"]
        ]
        return SolveResult(
            eigenvalue=float(meta["eigenvalue"]),
            eigenvector=archive["eigenvector"].copy(),
            concentrations=archive["concentrations"].copy(),
            iterations=int(meta["iterations"]),
            residual=float(meta["residual"]),
            converged=bool(meta["converged"]),
            method=str(meta["method"]),
            history=history,
        )


def save_verification_report(path: str, report) -> None:
    """Persist a :class:`~repro.verify.report.VerificationReport` as JSON.

    Verification reports are pure scalars/strings, so — unlike solver
    results — they go to plain, diff-able, CI-greppable JSON rather than
    an ``.npz`` archive.
    """
    data = report.to_dict()
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2, sort_keys=False)
        fh.write("\n")


def load_verification_report(path: str):
    """Load a report saved by :func:`save_verification_report`."""
    from repro.verify.report import VerificationReport

    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except ValueError as exc:
        raise ValidationError(f"not a verification report: {exc}") from exc
    return VerificationReport.from_dict(data)


def save_job_result(path: str, result) -> None:
    """Persist a :class:`~repro.service.jobspec.JobResult` (``.npz``).

    One result per archive: the ν+1 class concentrations natively,
    scalars (including the solve tolerance) through the JSON side
    channel.  The service result cache does not use it; its disk tier
    writes many results per pack (:mod:`repro.service.cache`).
    """
    meta = {
        "kind": _JOB_RESULT_KIND,
        "eigenvalue": result.eigenvalue,
        "iterations": result.iterations,
        "residual": result.residual,
        "converged": bool(result.converged),
        "method": result.method,
        "tol": result.tol,
    }
    np.savez(
        path,
        meta=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8),
        concentrations=np.asarray(result.concentrations, dtype=np.float64),
    )


def load_job_result(path: str):
    """Load a job result saved by :func:`save_job_result`."""
    from repro.service.jobspec import JobResult

    with np.load(path) as archive:
        meta = _read_meta(archive, _JOB_RESULT_KIND)
        return JobResult(
            eigenvalue=float(meta["eigenvalue"]),
            concentrations=archive["concentrations"].copy(),
            method=str(meta["method"]),
            iterations=int(meta["iterations"]),
            residual=float(meta["residual"]),
            converged=bool(meta["converged"]),
            tol=float(meta["tol"]),
        )


def save_batch_report(path: str, report) -> None:
    """Persist a :class:`~repro.service.service.BatchReport` as JSON.

    Batch reports — like verification reports — are scalars and strings
    all the way down, so they go to diff-able JSON rather than ``.npz``.
    """
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report.to_dict(), fh, indent=2, sort_keys=False)
        fh.write("\n")


def load_batch_report(path: str):
    """Load a report saved by :func:`save_batch_report`."""
    from repro.service.service import BatchReport

    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except ValueError as exc:
        raise ValidationError(f"not a batch report: {exc}") from exc
    return BatchReport.from_dict(data)


def save_sweep(path: str, sweep: ThresholdSweep) -> None:
    """Persist an error-rate sweep to ``path`` (``.npz``)."""
    meta = {
        "kind": _SWEEP_KIND,
        "nu": sweep.nu,
        "p_max": sweep.p_max,
        "landscape_name": sweep.landscape_name,
    }
    np.savez(
        path,
        meta=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8),
        error_rates=sweep.error_rates,
        class_concentrations=sweep.class_concentrations,
    )


def load_sweep(path: str) -> ThresholdSweep:
    """Load a sweep saved by :func:`save_sweep`."""
    with np.load(path) as archive:
        meta = _read_meta(archive, _SWEEP_KIND)
        return ThresholdSweep(
            nu=int(meta["nu"]),
            error_rates=archive["error_rates"].copy(),
            class_concentrations=archive["class_concentrations"].copy(),
            p_max=None if meta["p_max"] is None else float(meta["p_max"]),
            landscape_name=str(meta.get("landscape_name", "")),
        )

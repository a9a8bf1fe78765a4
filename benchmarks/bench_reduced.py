"""Section 5.1 — the exact (ν+1) reduction vs the full solvers.

Claims reproduced:

* the reduced solve is *exact* (matches the full solver to machine
  precision), so "approximative methods are not really needed";
* it is orders of magnitude faster than even the fast full solver and
  handles chain lengths no full solver can touch.
"""

import time

import numpy as np
import pytest

from conftest import report
from repro.landscapes import SinglePeakLandscape
from repro.model.concentrations import class_concentrations
from repro.mutation import UniformMutation
from repro.operators import Fmmp
from repro.reporting import format_seconds, render_table
from repro.solvers import PowerIteration, ReducedSolver

P = 0.01
FULL_NUS = (10, 12, 14, 16)
REDUCED_ONLY_NUS = (50, 100, 500, 1000)


@pytest.fixture(scope="module")
def comparison():
    rows = []
    for nu in FULL_NUS:
        ls = SinglePeakLandscape(nu, 2.0, 1.0)
        t0 = time.perf_counter()
        red = ReducedSolver(nu, P, ls).solve()
        t_red = time.perf_counter() - t0
        mut = UniformMutation(nu, P)
        t0 = time.perf_counter()
        full = PowerIteration(Fmmp(mut, ls), tol=1e-13).solve(
            ls.start_vector(), landscape=ls
        )
        t_full = time.perf_counter() - t0
        err = float(
            np.abs(red.concentrations - class_concentrations(full.concentrations, nu)).max()
        )
        rows.append((nu, t_red, t_full, err))
    return rows


def test_reduced_exactness_and_speed(comparison, benchmark):
    benchmark(lambda: ReducedSolver(20, P, SinglePeakLandscape(20, 2.0, 1.0)).solve())

    rows = comparison
    table_rows = [
        [nu, format_seconds(t_red), format_seconds(t_full), f"{t_full / t_red:.0f}x", f"{err:.1e}"]
        for nu, t_red, t_full, err in rows
    ]
    txt = render_table(
        ["nu", "reduced", "full Pi(Fmmp)", "speedup", "max error"],
        table_rows,
        title="Sec. 5.1 — exact (nu+1) reduction vs full solver (single peak, p=0.01)",
    )

    for nu, t_red, t_full, err in rows:
        assert err < 1e-10, f"reduction must be exact (nu={nu}: {err:.1e})"
    # The speed gap widens with ν (reduced is ~O(ν³) dense vs O(N log N)).
    speedups = [t_full / t_red for _, t_red, t_full, _ in rows]
    assert speedups[-1] > speedups[0]
    assert speedups[-1] > 50

    # Chain lengths no full solver can touch (2^1000 unknowns).
    long_rows = []
    for nu in REDUCED_ONLY_NUS:
        t0 = time.perf_counter()
        res = ReducedSolver(nu, P, SinglePeakLandscape(nu, 5.0, 1.0)).solve()
        dt = time.perf_counter() - t0
        long_rows.append([nu, format_seconds(dt), f"{res.concentrations[0]:.3e}"])
        assert res.converged
    txt += "\n\n" + render_table(
        ["nu", "time", "[Gamma_0]"],
        long_rows,
        title="Reduced solver far beyond full-solver reach (2^nu unknowns implicit)",
    )
    txt += (
        "\n[Gamma_0] is accurate to rounding in absolute terms: a value below"
        "\n~1e-15 (past the threshold, nu >= 500 here) is rounding noise of the"
        "\nunit-1-norm class vector, not a resolved concentration."
    )
    report("reduced_solver", txt)

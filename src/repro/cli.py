"""Command-line interface: ``python -m repro.cli <subcommand>``.

Subcommands
-----------
``solve``
    Solve one quasispecies model and print the biological summary.
``sweep``
    Error-rate sweep on a Hamming landscape (the Fig. 1 computation),
    optionally exported as CSV.
``verify``
    Run the differential verification registry (cross-backend oracles +
    metamorphic invariants) over a parameter grid; exits nonzero on any
    violation and writes a machine-readable JSON report.
``batch``
    Execute a JSON/YAML job manifest through the solver service layer
    (deduplication, content-addressed result cache, fault-tolerant
    worker pool) and write a machine-readable batch report.
``info``
    Version and a map of the available solvers/landscapes.

Examples
--------
::

    python -m repro.cli solve --landscape single-peak --nu 20 --p 0.01
    python -m repro.cli sweep --landscape single-peak --nu 20 \\
        --p-min 0.005 --p-max 0.09 --steps 35 --csv fig1.csv
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from repro._version import __version__
from repro.exceptions import ReproError
from repro.landscapes import (
    LinearLandscape,
    RandomLandscape,
    SinglePeakLandscape,
)
from repro.model import QuasispeciesModel
from repro.model.threshold import sweep_error_rates
from repro.reporting import render_table

__all__ = ["main", "build_parser"]

_LANDSCAPES = ("single-peak", "linear", "random")


def _make_landscape(name: str, nu: int, *, peak: float, floor: float, seed: int):
    if name == "single-peak":
        return SinglePeakLandscape(nu, peak, floor)
    if name == "linear":
        return LinearLandscape(nu, peak, floor)
    if name == "random":
        return RandomLandscape(nu, c=peak, sigma=min(1.0, peak / 2.5), seed=seed)
    raise ReproError(f"unknown landscape {name!r}")


def build_parser() -> argparse.ArgumentParser:
    """The argparse tree (exposed for testing and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Fast quasispecies solver (SC'11 reproduction).",
    )
    parser.add_argument("--version", action="version", version=f"repro {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="solve one quasispecies model")
    solve.add_argument("--landscape", choices=_LANDSCAPES, default="single-peak")
    solve.add_argument("--nu", type=int, default=12, help="chain length")
    solve.add_argument("--p", type=float, default=0.01, help="error rate")
    solve.add_argument("--peak", type=float, default=2.0, help="master fitness (or c)")
    solve.add_argument("--floor", type=float, default=1.0, help="background fitness")
    solve.add_argument("--seed", type=int, default=0, help="seed for random landscapes")
    solve.add_argument(
        "--method",
        choices=("auto", "power", "dense", "reduced", "lanczos"),
        default="auto",
    )
    solve.add_argument("--tol", type=float, default=1e-12)
    solve.add_argument("--threads", type=int, default=None,
                       help="panel-engine threads for the fmmp butterfly "
                       "(default: REPRO_NUM_THREADS or 1)")
    solve.add_argument("--classes", type=int, default=6, help="error classes to print")
    solve.add_argument("--save", metavar="PATH", help="save the result as .npz")

    sweep = sub.add_parser("sweep", help="error-rate sweep (Fig. 1 computation)")
    sweep.add_argument("--landscape", choices=("single-peak", "linear"), default="single-peak")
    sweep.add_argument("--nu", type=int, default=20)
    sweep.add_argument("--peak", type=float, default=2.0)
    sweep.add_argument("--floor", type=float, default=1.0)
    sweep.add_argument("--p-min", type=float, default=0.0025)
    sweep.add_argument("--p-max", type=float, default=0.09)
    sweep.add_argument("--steps", type=int, default=36)
    sweep.add_argument("--classes", type=int, default=4, help="error classes to print")
    sweep.add_argument("--csv", metavar="PATH", help="write the full sweep as CSV")
    sweep.add_argument("--save", metavar="PATH", help="save the sweep as .npz")

    thr = sub.add_parser(
        "threshold", help="locate the error threshold and mutagenic margin"
    )
    thr.add_argument("--landscape", choices=("single-peak", "linear"), default="single-peak")
    thr.add_argument("--nu", type=int, default=16)
    thr.add_argument("--p", type=float, default=0.01,
                     help="the virus's natural error rate")
    thr.add_argument("--peak", type=float, default=2.0)
    thr.add_argument("--floor", type=float, default=1.0)

    sim = sub.add_parser(
        "simulate", help="finite-population Wright-Fisher dynamics"
    )
    sim.add_argument("--landscape", choices=_LANDSCAPES, default="single-peak")
    sim.add_argument("--nu", type=int, default=12)
    sim.add_argument("--p", type=float, default=0.02)
    sim.add_argument("--peak", type=float, default=2.0)
    sim.add_argument("--floor", type=float, default=1.0)
    sim.add_argument("--population", type=int, default=5_000)
    sim.add_argument("--generations", type=int, default=300)
    sim.add_argument("--burn-in", type=int, default=50)
    sim.add_argument("--seed", type=int, default=0)

    check = sub.add_parser(
        "crosscheck", help="solve via every applicable route and compare"
    )
    check.add_argument("--landscape", choices=_LANDSCAPES, default="random")
    check.add_argument("--nu", type=int, default=9)
    check.add_argument("--p", type=float, default=0.01)
    check.add_argument("--peak", type=float, default=5.0)
    check.add_argument("--floor", type=float, default=1.0)
    check.add_argument("--seed", type=int, default=0)
    check.add_argument("--accept", type=float, default=1e-7,
                       help="max allowed cross-route disagreement")

    verify = sub.add_parser(
        "verify",
        help="run the differential verification registry over a parameter grid",
    )
    verify.add_argument(
        "--grid",
        choices=("smoke", "small", "full", "random"),
        default="small",
        help="named spec grid (see repro.verify.spec)",
    )
    verify.add_argument("--nu", type=int, default=6, help="pivot chain length")
    verify.add_argument("--seed", type=int, default=0, help="probe/grid seed")
    verify.add_argument("--count", type=int, default=25,
                        help="spec count for --grid random")
    verify.add_argument("--no-solvers", action="store_true",
                        help="skip the solver-oracle tier (products + invariants only)")
    verify.add_argument("--threads", type=int, default=None,
                        help="panel-engine threads for the fmmp-parallel oracle "
                        "(default: REPRO_NUM_THREADS or 1)")
    verify.add_argument("--json", metavar="PATH", default="verify-report.json",
                        help="where to write the JSON report ('-' for stdout)")
    verify.add_argument("--quiet", action="store_true",
                        help="suppress per-spec progress lines")

    batch = sub.add_parser(
        "batch",
        help="execute a JSON/YAML job manifest through the solver service",
    )
    batch.add_argument("manifest", help="path to the job manifest (.json/.yaml)")
    batch.add_argument("--cache-dir", metavar="DIR",
                       help="persistent result-cache directory (warm restarts)")
    batch.add_argument("--workers", type=int, help="worker count")
    batch.add_argument("--pool", choices=("thread", "process", "serial"),
                       dest="pool_kind", help="worker pool kind")
    batch.add_argument("--timeout", type=float, help="per-attempt timeout [s]")
    batch.add_argument("--retries", type=int, help="retries per route")
    batch.add_argument("--threads", type=int, default=None,
                       help="panel-engine threads per worker (workers are "
                       "capped at cpu_count//threads to avoid oversubscription)")
    batch.add_argument("--json", metavar="PATH", default="batch-report.json",
                       help="where to write the JSON report ('-' for stdout)")
    batch.add_argument("--quiet", action="store_true",
                       help="suppress the per-job table")

    sub.add_parser("info", help="version and capability overview")
    return parser


def _cmd_solve(args) -> int:
    ls = _make_landscape(args.landscape, args.nu, peak=args.peak, floor=args.floor, seed=args.seed)
    model = QuasispeciesModel(ls, p=args.p)
    result = model.solve(args.method, tol=args.tol, threads=args.threads)
    print(f"landscape   : {args.landscape} (nu={args.nu})")
    print(f"error rate  : p = {args.p}")
    print(f"solver      : {result.method}")
    print(f"lambda_0    : {result.eigenvalue:.10f}")
    if getattr(result, "iterations", 0):
        print(f"iterations  : {result.iterations}")
    gamma = model.class_concentrations(result)
    shown = min(args.classes, len(gamma))
    rows = [[k, f"{gamma[k]:.6e}"] for k in range(shown)]
    print(render_table(["k", "[Gamma_k]"], rows, title="\nerror-class concentrations"))
    if args.save:
        from repro.io import save_result

        save_result(args.save, result)
        print(f"\nsaved result to {args.save}")
    return 0


def _cmd_sweep(args) -> int:
    if args.steps < 2:
        raise ReproError("--steps must be >= 2")
    ls = _make_landscape(args.landscape, args.nu, peak=args.peak, floor=args.floor, seed=0)
    rates = np.linspace(args.p_min, args.p_max, args.steps)
    sweep = sweep_error_rates(ls, rates)
    shown = list(range(min(args.classes, args.nu + 1)))
    rows = []
    for i, p in enumerate(sweep.error_rates):
        rows.append([f"{p:.4f}"] + [f"{sweep.class_concentrations[i, k]:.4e}" for k in shown])
    print(
        render_table(
            ["p"] + [f"[G{k}]" for k in shown],
            rows,
            title=f"error-rate sweep: {args.landscape}, nu={args.nu}",
        )
    )
    if sweep.p_max is not None:
        print(f"\nerror threshold detected at p_max = {sweep.p_max:.4f}")
    else:
        print("\nno error threshold inside the swept range")
    if args.csv:
        from repro.reporting import SeriesBundle

        bundle = SeriesBundle("sweep", x_label="p")
        for k in range(args.nu + 1):
            bundle.add_mapping(f"G{k}", dict(zip(sweep.error_rates, sweep.series(k))))
        bundle.save_csv(args.csv)
        print(f"wrote {args.csv}")
    if args.save:
        from repro.io import save_sweep

        save_sweep(args.save, sweep)
        print(f"saved sweep to {args.save}")
    return 0


def _cmd_threshold(args) -> int:
    from repro.model.antiviral import mutagenesis_margin

    ls = _make_landscape(args.landscape, args.nu, peak=args.peak, floor=args.floor, seed=0)
    a = mutagenesis_margin(ls, args.p)
    print(f"landscape            : {args.landscape} (nu={args.nu})")
    print(f"natural error rate   : p = {a.p_current}")
    print(f"master concentration : {a.master_concentration:.4f}")
    if not a.treatable:
        print("no sharp error threshold on this landscape (smooth transition)")
        return 0
    print(f"error threshold      : p_max = {a.p_max:.4f}")
    if a.margin > 0:
        print(f"mutagenic margin     : +{a.margin:.4f} ({a.fold_increase:.2f}x fold increase)")
    else:
        print("already past the threshold (population delocalized)")
    return 0


def _cmd_simulate(args) -> int:
    from repro.model.concentrations import class_concentrations
    from repro.mutation import UniformMutation
    from repro.population import WrightFisher

    if args.population < 1 or args.generations < 1:
        raise ReproError("--population and --generations must be >= 1")
    ls = _make_landscape(args.landscape, args.nu, peak=args.peak, floor=args.floor, seed=args.seed)
    mut = UniformMutation(args.nu, args.p)
    wf = WrightFisher(mut, ls, args.population, seed=args.seed)
    stats = wf.run(args.generations, burn_in=args.burn_in)
    model = QuasispeciesModel(ls, mut)
    try:
        det = model.solve(tol=1e-11)
        det_gamma = (
            det.concentrations
            if det.concentrations.shape[0] == args.nu + 1
            else class_concentrations(det.concentrations, args.nu)
        )
    except ReproError:
        det_gamma = None
    print(f"Wright-Fisher: {args.landscape}, nu={args.nu}, p={args.p}, "
          f"M={args.population}, {args.generations} generations "
          f"(+{args.burn_in} burn-in)")
    print(f"mean fitness          : {stats.mean_fitness:.6f}")
    if stats.master_extinction_generation is not None:
        print(f"master extinct at gen : {stats.master_extinction_generation}")
    else:
        print("master persisted")
    rows = []
    for k in range(min(6, args.nu + 1)):
        row = [k, f"{stats.mean_class_concentrations[k]:.5f}"]
        if det_gamma is not None:
            row.append(f"{det_gamma[k]:.5f}")
        rows.append(row)
    headers = ["k", "mean [Gamma_k]"] + (["deterministic"] if det_gamma is not None else [])
    print(render_table(headers, rows, title="\ntime-averaged class concentrations"))
    return 0


def _cmd_crosscheck(args) -> int:
    from repro.validation import crosscheck

    ls = _make_landscape(args.landscape, args.nu, peak=args.peak, floor=args.floor, seed=args.seed)
    report = crosscheck(ls, p=args.p, accept=args.accept)
    print(
        render_table(
            ["route", "lambda_0", "iterations", "status"],
            report.summary_rows(),
            title=f"cross-check: {args.landscape}, nu={args.nu}, p={args.p}",
        )
    )
    print(f"\nmax eigenvalue spread     : {report.max_eigenvalue_spread:.3e}")
    print(f"max concentration spread  : {report.max_concentration_spread:.3e}")
    print(f"consistent (<= {report.tolerance:g})  : {report.consistent}")
    return 0 if report.consistent else 1


def _cmd_verify(args) -> int:
    import json as _json

    from repro.verify import run_verification

    def progress(done: int, total: int, rep) -> None:
        if args.quiet:
            return
        status = "ok" if rep.passed else f"{len(rep.failures)} FAILED"
        print(f"[{done:>3}/{total}] {rep.spec.label():<60} {status}")

    report = run_verification(
        args.grid,
        nu=args.nu,
        seed=args.seed,
        count=args.count,
        solvers=not args.no_solvers,
        threads=args.threads,
        progress=progress,
    )
    if args.json == "-":
        print(_json.dumps(report.to_dict(), indent=2))
    elif args.json:
        from repro.io import save_verification_report

        save_verification_report(args.json, report)
        if not args.quiet:
            print(f"wrote {args.json}")

    print(f"\ngrid={report.grid} nu={report.nu} seed={report.seed}: "
          f"{report.total_checks} checks over {len(report.spec_reports)} specs")
    if report.passed:
        print("all invariants and oracle pairs held")
        return 0
    print(f"{report.total_failures} check(s) FAILED; violated:")
    for name in report.violated_names():
        print(f"  - {name}")
    for v in report.violations()[:20]:
        print(f"    {v.describe()}")
    return 1


def _cmd_batch(args) -> int:
    import json as _json

    from repro.service import run_manifest

    report = run_manifest(
        args.manifest,
        cache_dir=args.cache_dir,
        workers=args.workers,
        kind=args.pool_kind,
        timeout=args.timeout,
        retries=args.retries,
        threads=args.threads,
    )
    if not args.quiet:
        rows = []
        for i in range(report.n_jobs):
            job, result, tele = report.entry(i)
            rows.append([
                i,
                job.label(),
                tele.cache if tele.status == "cached" else tele.status,
                tele.route,
                f"{result.eigenvalue:.8f}" if result is not None else "-",
                f"{tele.solve_seconds * 1e3:.1f}" if tele.status == "solved" else "-",
            ])
        print(
            render_table(
                ["#", "job", "status", "route", "lambda_0", "ms"],
                rows,
                title=f"batch: {args.manifest}",
            )
        )
    if args.json == "-":
        print(_json.dumps(report.to_dict(), indent=2))
    elif args.json:
        from repro.io import save_batch_report

        save_batch_report(args.json, report)
        if not args.quiet:
            print(f"wrote {args.json}")

    if not args.quiet:
        plan = report.plan_stats
        print(
            f"\n{plan['jobs']} job(s): {plan['unique_jobs']} unique "
            f"({plan['duplicates']} duplicate(s)), {report.n_cached} cache hit(s), "
            f"{report.n_solved} solved, {report.n_fallbacks} via fallback, "
            f"{report.n_failed} failed [{report.wall_seconds:.2f}s]"
        )
        failures = report.failures()
        if failures:
            print("failures encountered (recovered unless the job is marked failed):")
            for msg in failures[:20]:
                print(f"  - {msg}")
    return 0 if report.passed else 1


def _cmd_info() -> int:
    print(f"repro {__version__} — fast quasispecies solver (SC'11 reproduction)")
    print("\nsolvers  : power (Fmmp/Xmvp/Smvp, optional shift), dense, reduced (nu+1),")
    print("           kronecker (decoupled), lanczos, arnoldi, shift-invert/RQI (Q),")
    print("           CG inverse iteration (W), Wright-Fisher finite populations")
    print("landscapes: single-peak, linear, Hamming phi, random (Eq. 13), Kronecker")
    print("mutation  : uniform, per-site, grouped (Eq. 11), 4-letter RNA (Kimura)")
    print("device    : simulated OpenCL-style runtime (Tesla C2050 / i5-750 profiles)")
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "solve":
            return _cmd_solve(args)
        if args.command == "sweep":
            return _cmd_sweep(args)
        if args.command == "crosscheck":
            return _cmd_crosscheck(args)
        if args.command == "simulate":
            return _cmd_simulate(args)
        if args.command == "threshold":
            return _cmd_threshold(args)
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "batch":
            return _cmd_batch(args)
        return _cmd_info()
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

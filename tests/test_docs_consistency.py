"""Documentation consistency gates.

The README, DESIGN.md and EXPERIMENTS.md promise specific artifacts;
these tests keep the promises honest as the repository evolves.
"""

import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _read(name: str) -> str:
    return (ROOT / name).read_text(encoding="utf-8")


class TestBenchDocCoverage:
    def test_every_bench_is_documented_in_readme(self):
        readme = _read("README.md")
        benches = sorted(p.name for p in (ROOT / "benchmarks").glob("bench_*.py"))
        missing = [b for b in benches if b not in readme]
        assert not missing, f"benches absent from README: {missing}"

    def test_every_figure_bench_in_design_index(self):
        design = _read("DESIGN.md")
        for required in (
            "bench_fig1_threshold.py",
            "bench_fig2_matvec.py",
            "bench_fig3_power_iteration.py",
            "bench_fig4_speedups.py",
        ):
            assert required in design, f"{required} missing from DESIGN.md"

    def test_experiments_covers_all_figures(self):
        experiments = _read("EXPERIMENTS.md")
        for heading in ("Figure 1", "Figure 2", "Figure 3", "Figure 4"):
            assert heading in experiments


class TestExampleDocCoverage:
    def test_every_example_mentioned_in_readme(self):
        readme = _read("README.md")
        examples = sorted(p.name for p in (ROOT / "examples").glob("*.py"))
        missing = [e for e in examples if e not in readme]
        assert not missing, f"examples absent from README: {missing}"


class TestPaperMapping:
    def test_mapping_references_resolve(self):
        """Every `repro.xxx.Yyy` module or attribute path named in the
        docs (docs/*.md, README.md, DESIGN.md) must resolve."""
        import importlib

        def resolves(name: str) -> bool:
            parts = name.split(".")
            # Trailing attribute names are allowed; try progressively.
            for cut in range(len(parts), 1, -1):
                try:
                    obj = importlib.import_module(".".join(parts[:cut]))
                except ImportError:
                    continue
                for attr in parts[cut:]:
                    if not hasattr(obj, attr):
                        break
                    obj = getattr(obj, attr)
                else:
                    return True
            return False

        docs = sorted((ROOT / "docs").glob("*.md")) + [ROOT / "README.md", ROOT / "DESIGN.md"]
        failures = []
        for path in docs:
            text = path.read_text(encoding="utf-8")
            for name in sorted(set(re.findall(r"`(repro(?:\.[A-Za-z_0-9]+)+)`", text))):
                if not resolves(name):
                    failures.append(f"{path.relative_to(ROOT)}: {name}")
        assert not failures, f"docs name unresolvable paths: {failures}"

    def test_mapping_covers_every_paper_section(self):
        mapping = _read("docs/paper_mapping.md")
        for section in ("Section 1", "Section 2", "Section 3", "Section 4",
                        "Section 5", "Section 6"):
            assert section in mapping

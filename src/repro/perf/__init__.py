"""Performance models, measurement, and extrapolation.

Reproduces the paper's Sec. 4 methodology:

* :mod:`~repro.perf.costs` — per-matvec operation counts for
  ``Smvp``/``Xmvp(dmax)``/``Fmmp`` (the complexity expressions of
  Secs. 1.2 and 2.1, made concrete).  Every Fmmp byte and flop count —
  the paper's radix-2 model here, the operators' own fused plans, the
  distributed model — comes from one function,
  :func:`~repro.operators.batched.plan_costs`, applied to the
  :class:`~repro.transforms.batched.FusedStage` plan being costed
  (re-exported here);
* :mod:`~repro.perf.model` — roofline time predictions on a
  :class:`~repro.device.profile.HardwareProfile`, including the full
  power-iteration pipeline with transfers (Fig. 3's quantity);
* :mod:`~repro.perf.measure` — wall-clock measurement of the real NumPy
  operators (Fig. 2's quantity).  Batch-width and thread scaling of the
  fused kernel are measured only, by ``benchmarks/bench_batched.py`` and
  ``benchmarks/bench_parallel.py``, which hold their own harnesses — no
  model stands in for them;
* :mod:`~repro.perf.extrapolate` — complexity-law fits used exactly the
  way the paper extrapolated ``Pi(Xmvp(ν))`` beyond ν = 22;
* :mod:`~repro.perf.speedup` — assembling Fig. 4's speedup series.
"""

from repro.perf.costs import (
    fmmp_costs,
    xmvp_costs,
    smvp_costs,
    xmvp_mask_count,
)
from repro.operators.batched import plan_costs
from repro.perf.model import (
    predict_matvec_time,
    predict_power_iteration_time,
    PipelineCostModel,
)
from repro.perf.measure import measure_operator_matvec, measure_series
from repro.perf.extrapolate import ComplexityLaw, fit_scale, predict, fit_and_extend
from repro.perf.speedup import speedup_series, SpeedupTable

__all__ = [
    "fmmp_costs",
    "plan_costs",
    "xmvp_costs",
    "smvp_costs",
    "xmvp_mask_count",
    "predict_matvec_time",
    "predict_power_iteration_time",
    "PipelineCostModel",
    "measure_operator_matvec",
    "measure_series",
    "ComplexityLaw",
    "fit_scale",
    "predict",
    "fit_and_extend",
    "speedup_series",
    "SpeedupTable",
]

"""Small shared utilities: validation, binomials, timing, RNG plumbing."""

from repro.util.validation import (
    check_chain_length,
    check_error_rate,
    check_positive,
    check_power_of_two,
    check_probability_vector,
    check_vector,
)
from repro.util.binomial import binomial, binomial_row, log_binomial
from repro.util.timing import Timer, median_time
from repro.util.rng import as_generator
from repro.util.blas import (
    blas_limit,
    blas_thread_info,
    pin_blas_env,
)

__all__ = [
    "check_chain_length",
    "check_error_rate",
    "check_positive",
    "check_power_of_two",
    "check_probability_vector",
    "check_vector",
    "binomial",
    "binomial_row",
    "log_binomial",
    "Timer",
    "median_time",
    "as_generator",
    "blas_limit",
    "blas_thread_info",
    "pin_blas_env",
]

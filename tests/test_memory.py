"""Memory ceilings on the dense path, measured with tracemalloc.

numpy reports its array buffers to tracemalloc, so the peak traced memory
during a call, less what is still held after it, is what the call allocated
beyond its result. At n = 1500 one n x n float64 array is 18 MB: a ceiling
of an eighth of it catches an observation or a sum built through a dense
intermediate.
"""

import tracemalloc

import numpy as np
import pytest

from graphbayes import PosteriorSummary, SamplingOperator, partial_observation
from graphbayes.belief import _add_precisions
from graphbayes.sampling_eval import _screen

N = 1500
DENSE = 8 * N * N  # bytes of one n x n float64 array


def _allocated_beyond_result(call):
    """Run ``call`` and return (its result, the bytes its peak allocation
    exceeded the memory still held once it returned)."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        result = call()
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak - current


@pytest.fixture(scope="module")
def dense_precision():
    raw = np.random.default_rng(10).standard_normal((N, N))
    return raw + raw.T


SAMPLING = SamplingOperator(n=N, nodes=tuple(range(0, N, 2)))


@pytest.mark.parametrize("sigma2", [1.0, 0.0])
def test_partial_observation_allocates_no_dense_precision(sigma2):
    observed = np.ones(SAMPLING.n_s)
    obs, extra = _allocated_beyond_result(
        lambda: partial_observation(SAMPLING, observed, sigma2))
    assert obs.precision.shape == (N,)
    assert extra < DENSE / 8


@pytest.mark.parametrize("sigma2", [1.0, 0.0])
def test_dense_plus_diagonal_precision_allocates_only_its_sum(dense_precision, sigma2):
    # the sum that ``combine`` forms; the belief it builds then checks the
    # sum's symmetry with whole-matrix temporaries
    obs = partial_observation(SAMPLING, np.ones(SAMPLING.n_s), sigma2)
    total, extra = _allocated_beyond_result(
        lambda: _add_precisions(dense_precision, obs.precision))
    assert total.shape == (N, N)
    assert extra < DENSE / 8


@pytest.mark.parametrize("metric", ["trace", "logdet"])
def test_greedy_screen_forms_no_dense_covariance(metric):
    # with every direction finite, the covariance the screen scores is
    # n x n; its diagonal and column norms come from cov_basis squared,
    # one n x n array, not from the covariance and its square
    n = 1000
    basis = np.linalg.qr(np.random.default_rng(11).standard_normal((n, n)))[0]
    summary = PosteriorSummary(mean=np.zeros(n), cov_basis=basis,
                               cov_values=np.linspace(0.5, 2.0, n),
                               null_basis=np.zeros((n, 0)), zero_basis=np.zeros((n, 0)))
    (scores, _), extra = _allocated_beyond_result(lambda: _screen(summary, 1.0, metric))
    assert scores.shape == (n,)
    assert extra < 1.5 * 8 * n * n

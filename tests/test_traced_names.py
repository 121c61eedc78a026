"""Every name that perfbench's tracer rebinds inside graphbayes (``NESTED``
in ``perfbench/tracing.py``) is still looked up through its module when a
design job runs, so a traced run puts a span around each of them."""

import collections
import importlib
import os

from graphbayes import (
    ExperimentConfig,
    exhaustive_select,
    greedy_select,
    grid_graph,
    laplacian,
    run_calibration,
    smoothness_prior,
)

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")


def test_every_nested_name_is_called_through_its_module(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    nested = importlib.import_module("tracing").NESTED
    calls = collections.Counter()

    def counted(key, original):
        def call(*args, **kwargs):
            calls[key] += 1
            return original(*args, **kwargs)
        return call

    keys = [(module, attr) for module, attr, _, _ in nested]
    for module, attr in keys:
        mod = importlib.import_module(module)
        monkeypatch.setattr(mod, attr, counted((module, attr), getattr(mod, attr)))

    graph = grid_graph(3, 3)
    prior = smoothness_prior(laplacian(graph), 0.0)
    greedy_select(prior, 2, 0.0, "trace")
    greedy_select(prior, 2, 1.0, "logdet")
    exhaustive_select(prior, 1, 1.0, "trace")
    run_calibration(ExperimentConfig(graph=graph, eps=1e-6, sigma2=0.0, trials=300,
                                     seed=0, sampling=(0, 4, 8)))
    assert [key for key in keys if calls[key] == 0] == []

"""The summary of ``benchmarks/record.py`` on synthetic entries."""

import importlib.util
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location(
    "record", os.path.join(ROOT, "benchmarks", "record.py"))
record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(record)


def _entry(checkout, seed, metrics):
    result = {"metrics": {name: {"value": value} for name, value in metrics.items()}}
    return {"workload": "calibrate", "checkout": checkout, "seed": seed,
            "result": result if metrics else None}


def test_directions_are_read_from_the_benchmark():
    assert record.BETTER["job_s"] == "lower"
    assert record.BETTER["trials_per_s"] == "higher"


def test_second_checkout_better_counts_follow_each_metrics_direction(capsys):
    parent = [(1, 1.0, 10.0), (2, 1.0, 10.0), (3, 1.0, 10.0), (4, 1.0, 10.0)]
    change = [(1, 0.9, 11.0), (2, 1.0, 10.0), (3, 1.1, 9.0), (4, 0.8, 12.0)]
    entries = [_entry("a", seed, {"job_s": job, "trials_per_s": rate})
               for seed, job, rate in parent]
    entries += [_entry("b", seed, {"job_s": job, "trials_per_s": rate})
                for seed, job, rate in change]
    entries.append(_entry("b", 5, {}))  # a run without a result is left out
    record._summary(entries, ["a", "b"])
    lines = capsys.readouterr().out.splitlines()
    # seeds 1 and 4 lower job_s and higher trials_per_s; seed 2 ties; seed 3 loses
    assert [line.split(None, 2)[2] for line in lines if "second" in line] == [
        "better (lower) in the second checkout on 2 of 4 seeds, tied on 1",
        "better (higher) in the second checkout on 2 of 4 seeds, tied on 1",
    ]
    assert any(line.split()[1] == "trials_per_s" and "b: median 10.5" in line
               for line in lines)

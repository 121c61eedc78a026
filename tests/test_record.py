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


def _verdicts(capsys, parent, change, name="job_s"):
    """{metric: verdict} that the summary prints for two checkouts whose
    runs of ``name`` read ``parent`` and ``change``, seed by seed."""
    entries = [_entry(side, seed, {name: value, "trials_per_s": 1.0})
               for side, values in (("a", parent), ("b", change))
               for seed, value in enumerate(values, start=1)]
    return _verdicts_of(capsys, entries)


def _verdicts_of(capsys, entries):
    record._summary(entries, ["a", "b"])
    return {line.split()[1]: line.split()[-1]
            for line in capsys.readouterr().out.splitlines() if "verdict:" in line}


PARENT = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.02, 0.98]


def test_gain_needs_nine_wins_in_ten_and_a_median_past_the_spread(capsys):
    # one tie counts for neither side: 9 wins of 10 pairs
    assert _verdicts(capsys, PARENT, [0.9] * 9 + [0.98]) == {"job_s": "gain"}
    # 8 wins of 10 are too few, however far the median moves
    assert _verdicts(capsys, PARENT, [0.9] * 8 + [1.03, 1.03]) == {"job_s": "level"}
    # 10 wins by less than the parent's interquartile range are level
    assert _verdicts(capsys, PARENT, [v - 0.01 for v in PARENT]) == {"job_s": "level"}


def test_gain_follows_the_metrics_direction(capsys):
    rss = [100.0 + v for v in PARENT]
    assert _verdicts(capsys, rss, [90.0] * 10, "peak_rss_mb") == {"peak_rss_mb": "gain"}
    assert _verdicts(capsys, rss, [112.0] * 10, "peak_rss_mb") == {"peak_rss_mb": "worse"}


def test_worse_is_a_median_past_the_relative_bound(capsys):
    # job_s has bound 0.25: a median of 1.3 against 1.0 is worse, 1.2 is not
    assert _verdicts(capsys, PARENT, [1.3] * 10) == {"job_s": "worse"}
    assert _verdicts(capsys, PARENT, [1.2] * 10) == {"job_s": "level"}


def test_unresolved_is_a_parent_spread_past_the_bound(capsys):
    wide = [0.5, 1.5] * 5  # interquartile range 1.0, median 1.0
    assert _verdicts(capsys, wide, [1.1, 0.6] * 5) == {"job_s": "unresolved"}
    # unless every run of the change beats every run of the parent
    assert _verdicts(capsys, wide, [0.45] * 9 + [1.6]) == {"job_s": "unresolved"}
    assert _verdicts(capsys, wide, [0.45] * 10) == {"job_s": "level"}


def test_no_verdict_for_a_per_layer_metric_or_a_single_checkout(capsys):
    assert "trials_per_s" not in _verdicts(capsys, PARENT, PARENT)
    record._summary([_entry("a", 1, {"job_s": 1.0})], ["a"])
    assert "verdict" not in capsys.readouterr().out


def test_a_larger_share_of_failed_jobs_is_worse(capsys):
    def verdicts(parent, change):
        """{metric: verdict} for runs that fail ``parent`` and ``change`` jobs
        (failed, attempted), one pair of runs per element."""
        entries = [_entry(side, seed, {"job_s": 1.0})
                   for side, runs in (("a", parent), ("b", change))
                   for seed, _ in enumerate(runs, start=1)]
        for entry, (failed, attempted) in zip(entries, parent + change):
            entry["result"].update(failed=failed, attempted=attempted)
        return _verdicts_of(capsys, entries)

    assert verdicts([(0, 30)] * 2, [(0, 30)] * 2)["failed_share"] == "level"
    assert verdicts([(0, 30)] * 2, [(0, 30), (1, 30)])["failed_share"] == "worse"
    # a share, not a count: 2 of 80 jobs fail less often than 1 of 30
    assert verdicts([(1, 30), (0, 0)], [(1, 40), (1, 40)])["failed_share"] == "level"
    assert verdicts([(1, 40), (1, 40)], [(1, 30), (0, 0)])["failed_share"] == "worse"

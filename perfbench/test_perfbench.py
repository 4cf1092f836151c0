"""Tests for the benchmark runner's helpers.

Run with ``python -m pytest perfbench/test_perfbench.py -q`` from the
repository root.
"""

from __future__ import annotations

import os
import random
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import common  # noqa: E402
import fleet_churn  # noqa: E402
import renew_durable  # noqa: E402
import tracing  # noqa: E402


# ----------------------------------------------------------------------
# Inputs come from the seed alone
# ----------------------------------------------------------------------
def _picks(seed, label, n=2000):
    picker = common.ZipfPicker(
        random.Random(common.stream_seed(seed, label)), 300, 1.1)
    return [picker.pick() for _ in range(n)]


def test_zipf_picks_repeat_per_seed_and_differ_across_seeds():
    assert _picks(7, "check-local:picks") == _picks(7, "check-local:picks")
    assert _picks(7, "check-local:picks") != _picks(8, "check-local:picks")
    assert _picks(7, "a") != _picks(7, "b")


def test_zipf_rank_zero_is_the_most_popular():
    picks = _picks(3, "popularity", n=20_000)
    counts = [picks.count(rank) for rank in range(5)]
    assert counts == sorted(counts, reverse=True)
    assert all(0 <= pick < 300 for pick in picks)


def test_poisson_arrivals_repeat_and_hold_their_rate():
    first = common.poisson_arrivals(random.Random(5), 100.0, 20.0)
    again = common.poisson_arrivals(random.Random(5), 100.0, 20.0)
    assert first == again
    assert first == sorted(first) and first[-1] < 20.0
    assert 1800 < len(first) < 2200


def test_open_loop_schedules_are_a_function_of_the_seed():
    assert (renew_durable.open_loop_streams(11, 5.0)
            == renew_durable.open_loop_streams(11, 5.0))
    assert (renew_durable.open_loop_streams(11, 5.0)
            != renew_durable.open_loop_streams(12, 5.0))
    plan = fleet_churn.lifecycle_plan(11, "open-plan:0", 50)
    assert plan == fleet_churn.lifecycle_plan(11, "open-plan:0", 50)
    assert plan != fleet_churn.lifecycle_plan(12, "open-plan:0", 50)
    for licenses, renews, graceful, root_key in plan:
        assert len(set(licenses)) == fleet_churn.PREFETCH
        assert set(renews) <= set(licenses)
        assert isinstance(graceful, bool) and root_key >= 0
    assert {op[2] for op in plan} == {True, False}


# ----------------------------------------------------------------------
# The percentile rule
# ----------------------------------------------------------------------
def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert common.percentile(values, 50) == 50
    assert common.percentile(values, 99) == 99
    assert common.percentile(values, 100) == 100
    assert common.percentile([4.0], 99) == 4.0
    with pytest.raises(ValueError):
        common.percentile([], 50)


@pytest.mark.parametrize("samples,p,ok", [
    (1000, 99, True),     # exactly ten beyond
    (999, 99, False),
    (500, 98, True),
    (100, 90, True),
    (99, 90, False),
])
def test_a_percentile_needs_ten_samples_beyond_it(samples, p, ok):
    assert common.tail_ok(samples, p) is ok


def test_tail_percentile_picks_the_highest_supported():
    assert common.tail_percentile(5000) == 99.0
    assert common.tail_percentile(600) == 98.0
    assert common.tail_percentile(250) == 95.0
    assert common.tail_percentile(100) == 90.0
    assert common.tail_percentile(50) is None


# ----------------------------------------------------------------------
# Span self-time arithmetic
# ----------------------------------------------------------------------
def test_self_time_subtracts_the_children_it_contains():
    spans = [
        ("root", 0, 100, None),
        ("child", 10, 30, 0),
        ("grandchild", 12, 20, 1),
        ("child", 50, 60, 0),
    ]
    assert tracing.self_times(spans) == {0: 70, 1: 12, 2: 8, 3: 10}


def test_self_time_counts_overlapping_children_once():
    spans = [("root", 0, 100, None), ("a", 10, 40, 0), ("b", 30, 50, 0),
             ("c", 90, 120, 0)]
    # Children cover [10, 50) and [90, 100) of the root: 50 units.
    assert tracing.self_times(spans)[0] == 50


def test_online_aggregation_matches_the_reference(monkeypatch):
    now = [0]

    def fake_clock():
        return now[0]

    monkeypatch.setattr(tracing.time, "perf_counter_ns", fake_clock)
    tracer = tracing.Tracer()

    def leaf():
        now[0] += 7

    def middle():
        now[0] += 3
        traced_leaf()
        now[0] += 2
        traced_leaf()

    def outer():
        now[0] += 5
        traced_middle()
        now[0] += 1

    traced_leaf = tracer.wrap("leaf", leaf)
    traced_middle = tracer.wrap("middle", middle)
    traced_outer = tracer.wrap("outer", outer)
    traced_outer()
    # The same calls as explicit spans: outer [0, 25), middle [5, 24),
    # leaves [8, 15) and [17, 24).
    log = [("outer", 0, 25, None), ("middle", 5, 24, 0),
           ("leaf", 8, 15, 1), ("leaf", 17, 24, 1)]
    reference = tracing.self_times(log)
    assert tracer.spans["outer"] == [1, 25, reference[0]]
    assert tracer.spans["middle"] == [1, 19, reference[1]]
    assert tracer.spans["leaf"] == [2, 14, reference[2] + reference[3]]


def test_classify_files_a_span_under_a_suffix():
    tracer = tracing.Tracer()
    traced = tracer.wrap("dispatch", lambda method: method,
                         classify=lambda args, result: (
                             ".other" if args[0] == "replicate" else ""))
    traced("renew")
    traced("replicate")
    traced("renew")
    assert tracer.spans["dispatch"][0] == 2
    assert tracer.spans["dispatch.other"][0] == 1


def test_install_reaches_by_name_imports_and_uninstall_restores():
    import repro.crypto.aes as aes
    import repro.storage.wal as wal
    from repro.core.tokens import ExecutionToken

    original = aes.aes128_ctr_encrypt
    assert wal.aes128_ctr_encrypt is original
    tracer = tracing.Tracer()
    tracer.install([("crypto.aes_encrypt",
                     "repro.crypto.aes:aes128_ctr_encrypt"),
                    ("tokens.issue", "repro.core.tokens:ExecutionToken.issue")])
    try:
        assert wal.aes128_ctr_encrypt is not original
        wal.aes128_ctr_encrypt(b"x" * 20, b"k" * 16, b"n" * 8)
        ExecutionToken.issue("lic", 1, 1, 3, signing_secret=9)
        assert tracer.spans["crypto.aes_encrypt"][0] == 1
        assert tracer.spans["tokens.issue"][0] == 1
    finally:
        tracer.uninstall()
    assert aes.aes128_ctr_encrypt is original
    assert wal.aes128_ctr_encrypt is original
    assert isinstance(ExecutionToken.__dict__["issue"], staticmethod)


def test_delta_and_merge():
    before = {"spans": {"a": [1, 10, 5]}, "results": {"n": 2}}
    after = {"spans": {"a": [3, 40, 20], "b": [1, 4, 4]},
             "results": {"n": 5}}
    assert tracing.delta(after, before) == {
        "spans": {"a": [2, 30, 15], "b": [1, 4, 4]}, "results": {"n": 3}}
    assert tracing.merge(before, after) == {
        "spans": {"a": [4, 50, 25], "b": [1, 4, 4]}, "results": {"n": 7}}


# ----------------------------------------------------------------------
# BENCHMARK.json and the runner agree
# ----------------------------------------------------------------------
def _benchmark():
    import json

    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        return json.load(f)


def test_benchmark_json_names_what_the_runner_reports():
    import layers
    import run

    bench = _benchmark()
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} \
        == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} \
        == layers.PER_LAYER
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


def test_without_the_program_the_runner_fails_without_a_verdict(tmp_path):
    import shutil
    import subprocess

    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"),
                tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "check-local",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""

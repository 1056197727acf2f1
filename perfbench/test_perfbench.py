"""Fast tests of the benchmark itself (no workload is run).

Run from the repository root: ``python -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import math
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

import benchlib
from layers import Tracer
from serving import fault_plan, pace

SPEC = json.loads(benchlib.BENCHMARK_FILE.read_text())


# -- the paced generator ---------------------------------------------------
def test_pace_keeps_schedule_and_reports_lag():
    offsets = [0.005 * i for i in range(40)]
    sent = []
    start = time.perf_counter()
    lags = pace(
        offsets,
        send=lambda i: sent.append((i, time.perf_counter())),
        wait=lambda timeout: time.sleep(max(0.0, timeout)),
        done=lambda elapsed: True,
        start=start,
    )
    assert [i for i, _ in sent] == list(range(40))
    assert len(lags) == 40
    for (i, at), lag in zip(sent, lags):
        assert at >= start + offsets[i]
        assert lag >= 0.0
    assert benchlib.median(lags) < 0.02


def test_pace_does_not_shift_the_schedule_after_a_stall():
    offsets = [0.0, 0.01, 0.02, 0.03]
    start = time.perf_counter()

    def send(i):
        if i == 0:
            time.sleep(0.05)  # a stall: the next three sends are all overdue

    lags = pace(offsets, send, lambda t: time.sleep(max(0.0, t)), lambda e: True, start)
    # Overdue sends go out at once and report their lateness from their due time.
    assert lags[1] >= 0.035 and lags[2] >= 0.025 and lags[3] >= 0.015
    assert time.perf_counter() - start < 0.2


def test_pace_waits_until_done_after_the_last_send():
    calls = []
    lags = pace(
        [0.0], send=lambda i: None, wait=calls.append,
        done=lambda elapsed: len(calls) >= 3, start=time.perf_counter(),
    )
    assert lags and len(calls) == 3


def test_fault_plan_withholds_and_swaps_one_in_twenty():
    import random

    drops, swaps = fault_plan(random.Random(3), 164)
    # Two segments of 80 frames, each with a burst of 4 drops and 4 swaps.
    assert len(drops) == len(swaps) == 8
    held = set()
    for first in drops[::4]:
        assert drops[drops.index(first):][:4] == list(range(first, first + 4))
        held.update(range(first, first + 12))
    touched = [q for p in swaps for q in (p, p + 1)]
    # Swaps never touch the frames a burst holds back, nor each other.
    assert not held & set(touched) and len(set(touched)) == len(touched)
    assert max(touched) < 164


def test_server_frame_order_follows_from_the_schedule():
    benchlib.use_source_tree()
    from repro.core.ingest import IngestConfig, ReorderWindow

    from serving import WARMUP_FRAMES, Stream

    stream = Stream(index=2, seed=3, timed=164)
    window = ReorderWindow(IngestConfig().reorder_window)
    released = []
    for seq in list(range(WARMUP_FRAMES)) + [s for s in stream.slots if s is not None]:
        released.extend(rseq for rseq, _item, _gap in window.push(seq, None))
    released.extend(rseq for rseq, _item, _gap in window.flush())
    # The server's i-th frame is the i-th seq its reorder window releases.
    assert released == stream.accepted
    assert window.late_drops == 0 and window.gaps == 2


# -- statistics --------------------------------------------------------------
def test_percentile_refuses_fewer_than_ten_samples_beyond():
    with pytest.raises(ValueError):
        benchlib.percentile(list(range(100)), 95)  # 5 beyond
    with pytest.raises(ValueError):
        benchlib.percentile(list(range(19)), 50)  # 9 beyond
    assert benchlib.percentile(list(range(200)), 95) == 189  # exactly 10 beyond
    assert benchlib.percentile(list(range(20)), 50) == 9


def test_windowed_percentile_is_the_median_of_slice_percentiles():
    calm = [1.0] * 200
    burst = [1.0] * 160 + [9.0] * 40  # contention during one slice only
    assert benchlib.percentile(calm + burst + calm, 95) == 9.0
    assert benchlib.windowed_percentile(calm + burst + calm, 95, 3) == 1.0
    assert benchlib.windowed_percentile(calm + burst + burst, 95, 3) == 9.0
    with pytest.raises(ValueError):
        benchlib.windowed_percentile([1.0] * 300, 95, 3)  # 100 a slice: too few


def test_percentile_ranks_unfinished_samples_last():
    values = [1.0] * 189 + [math.inf] * 11
    assert benchlib.percentile(values, 95) == math.inf
    assert benchlib.percentile(values, 50) == 1.0


# -- processes -----------------------------------------------------------------
def test_reap_children_stops_an_orphaned_grandchild():
    # The shell exits at once and leaves its own child running.
    script = (
        "import subprocess, benchlib\n"
        "benchlib.adopt_orphans()\n"
        "out = subprocess.run(['sh', '-c', 'sleep 60 >/dev/null 2>&1 & echo $!'],\n"
        "                     stdout=subprocess.PIPE, text=True, check=True).stdout\n"
        "benchlib.reap_children(timeout_s=0.2)\n"
        "print(out.strip())\n"
    )
    done = subprocess.run([sys.executable, "-c", script], cwd=Path(benchlib.__file__).parent,
                          stdout=subprocess.PIPE, text=True, timeout=30, check=True)
    grandchild = int(done.stdout)
    with pytest.raises(ProcessLookupError):  # neither running nor an unreaped zombie
        os.kill(grandchild, 0)


# -- the metric set ------------------------------------------------------------
def test_traced_run_computes_only_the_recorded_per_layer_metrics():
    assert set(Tracer().layer_metrics({})) == {m["name"] for m in SPEC["per_layer"]}


def test_result_line_prints_every_metric_with_its_recorded_unit():
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        names = [m["name"] for m in SPEC[key]]
        line = json.loads(benchlib.result_line(
            correct=True, attempted=3, failed=0,
            values={name: 1.5 for name in names}, trace=trace,
        ))
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert {n: m["unit"] for n, m in line["metrics"].items()} == {
            m["name"]: m["unit"] for m in SPEC[key]
        }


def test_result_line_refuses_a_metric_set_that_differs():
    names = [m["name"] for m in SPEC["end_to_end"]]
    with pytest.raises(ValueError):
        benchlib.result_line(
            correct=True, attempted=1, failed=0,
            values={name: 1.0 for name in names[1:]}, trace=False,
        )
    with pytest.raises(ValueError):
        benchlib.result_line(
            correct=True, attempted=1, failed=0,
            values={**{name: 1.0 for name in names}, "extra": 1.0}, trace=False,
        )


def test_benchmark_json_shape():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    unit = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
    assert 2 <= len(SPEC["workloads"]) <= 8
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"} and name.match(workload["name"])
        assert len(workload["why"]) <= 200
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert name.match(metric["name"]) and unit.match(metric["unit"])
        assert 0 < metric["bound"] <= 0.25
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
        assert name.match(metric["name"]) and unit.match(metric["unit"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in SPEC[key]]
    assert len(names) == len(set(names))


def test_output_check_leaves_out_streams_whose_output_depends_on_timing(monkeypatch):
    recorded = {"digest": "all", "streams": {"cam0": "a", "cam1": "b"},
                "accuracy": 1.0, "inference_share": 0.5, "energy_mj_per_frame": 10.0}
    monkeypatch.setattr(benchlib, "load_expected", lambda: {"w": {"0": recorded}})
    observed = dict(recorded, digest="other", streams={"cam0": "a", "cam1": "x"}, accuracy=0.9)

    def check(unchecked=()):
        return benchlib.check_outputs("w", 0, 20, observed, energy_rel_tol=0.0,
                                      unchecked=unchecked)

    assert len(check()) == 2  # digest and accuracy
    assert check(unchecked=["cam1"]) == []
    assert len(check(unchecked=["cam0"])) == 1


def test_frame_digest_names_kinds_and_boxes():
    one = benchlib.frame_digest([("cam0", 0, "I", [(1.0, 2.0, 3.0, 4.0)])])
    assert one == benchlib.frame_digest([("cam0", 0, "I", [(1.0, 2.0, 3.0, 4.0)])])
    assert one != benchlib.frame_digest([("cam0", 0, "E", [(1.0, 2.0, 3.0, 4.0)])])
    assert one != benchlib.frame_digest([("cam0", 0, "I", [(1.0, 2.0, 3.0, 4.5)])])

import json
import math
import shutil
import subprocess
import sys

import numpy as np
import pytest

import run
import workloads
from conftest import BENCH, ROOT
from layertrace import PER_LAYER_METRICS
from workloads import (SCAN_POLE_GAP, RepOutcome, headroom, pole_gap,
                       redraw_failed_pairs, scan_points, scan_rep, unitarity_residual)


def test_scan_points_are_deterministic_per_seed():
    first, again, other = scan_points(7), scan_points(7), scan_points(8)
    assert [(p.ell1, p.ell2, p.u, p.mode) for p in first] == \
        [(p.ell1, p.ell2, p.u, p.mode) for p in again]
    assert [p.q.value for p in first if p.q] == [p.q.value for p in again if p.q]
    assert [p.u for p in first] != [p.u for p in other]


def test_scan_points_avoid_poles_and_come_in_plus_minus_pairs():
    points = scan_points(3)
    assert {(p.ell1, p.ell2) for p in points} == set(workloads.SCAN_PAIRS)
    for plus, minus in zip(points[::2], points[1::2]):
        assert minus.u == -plus.u and minus.q is plus.q and minus.mode == plus.mode
        assert pole_gap(plus.ell1, plus.ell2, plus.u, plus.q) > SCAN_POLE_GAP


def test_headroom_never_counts_a_non_finite_residual():
    assert headroom(math.nan, 1e-9) is None
    assert headroom(math.inf, 1e-9) is None
    assert headroom(1e-12, 1e-9) == pytest.approx(3.0)
    assert headroom(0.0, 1e-10) == pytest.approx(math.log10(1e-10 / np.finfo(float).eps))
    prod = np.eye(3, dtype=complex)
    prod[1, 2] = np.nan
    assert math.isnan(unitarity_residual(prod))


def test_scan_rep_exports_round_trip_and_tallies():
    points = [p for p in scan_points(11) if (p.ell1, p.ell2) == (0.5, 1.0)]
    out = scan_rep(points)
    assert out.attempted == len(points) and out.failed == 0 and not out.problems
    assert len(out.unit_s) == len(points) and out.unit_ops == [1] * len(points)
    assert len(out.headrooms) == len(points) // 2 and min(out.headrooms) > 0
    assert scan_rep(points).digest == out.digest


def test_verify_rep_times_each_call_and_checks_its_report(tmp_path):
    argv = ("verify", "cyclic", "--N", "3", "--samples", "2")
    out = workloads.verify_rep(argv, 4, tmp_path)
    assert len(out.unit_s) == len(out.unit_ops) == workloads.VERIFY_CALLS
    assert sum(out.unit_ops) == out.attempted > 0 and out.failed == 0 and not out.problems
    assert out.wall_s == pytest.approx(sum(out.unit_s))
    assert workloads.verify_rep(argv, 4, tmp_path).digest == out.digest
    assert workloads.verify_rep(argv, 5, tmp_path).digest != out.digest


def test_failed_pairs_are_drawn_again_until_they_succeed():
    points = [p for p in scan_points(5) if p.ell1 + p.ell2 <= 2.0][:8]
    first = RepOutcome(wall_s=0.0, failed_groups={1, 3})
    timed = redraw_failed_pairs(5, points, first)
    assert timed[0:2] + timed[4:6] == points[0:2] + points[4:6]
    for k in (2, 6):
        plus, minus = timed[k:k + 2]
        assert (plus.ell1, plus.ell2, plus.mode) == (points[k].ell1, points[k].ell2, points[k].mode)
        assert minus.u == -plus.u and minus.q is plus.q and plus.u != points[k].u
    assert scan_rep(timed).failed == 0
    assert redraw_failed_pairs(5, points, first) == timed
    assert redraw_failed_pairs(5, points, RepOutcome(wall_s=0.0)) == points


def test_unit_times_are_medians_in_reference_seconds():
    reps = [workloads.RepOutcome(wall_s=1.0, unit_s=[1.0 + k, 10.0 - k, 5.0]) for k in range(5)]
    assert run.unit_times(reps, [1.0] * 5) == pytest.approx([3.0, 8.0, 5.0])
    assert run.unit_times(reps, [0.5] * 5) == pytest.approx([1.5, 4.0, 2.5])


def test_timing_metrics_are_medians_of_calibrated_times():
    # repetition k ran with the host 1 + k/10 times slower; the scales undo it
    scales = [1.0 / (1 + k / 10) for k in range(5)]
    reps = [workloads.RepOutcome(wall_s=2.0 / scale, attempted=20, unit_ops=[10, 10],
                                 unit_s=[0.5 / scale, 1.5 / scale]) for scale in scales]
    first = workloads.RepOutcome(wall_s=1.0, attempted=4, failed=1, headrooms=[2.0, 4.0])
    metrics = run.end_to_end(first, reps, scales, [0.3, 0.9, 0.6])
    assert metrics["wall_s"] == pytest.approx(2.0)
    assert metrics["setup_s"] == pytest.approx(0.6)
    assert metrics["ops_per_s"] == pytest.approx(10.0)
    assert metrics["op_p50_ms"] == pytest.approx(100.0)
    assert metrics["op_p99_ms"] == pytest.approx(150.0)
    assert metrics["ops_ok_frac"] == pytest.approx(0.75)
    assert metrics["residual_headroom_dec"] == pytest.approx(3.0)


def test_calibration_loop_takes_a_few_milliseconds():
    assert 0 < run.calibrate() < 100 * run.CALIB_REF_S


def test_tail_latency_keeps_ten_samples_beyond_it():
    assert run.tail_latency([3.0, 1.0, 2.0]) == 3.0
    values = list(range(1000))
    assert run.tail_latency(values) == 989
    assert sum(v > run.tail_latency(values) for v in values) == 10
    assert run.tail_latency(range(176)) == 165
    assert run.tail_latency(range(5000)) == 4949


def test_benchmark_json_declares_what_run_emits():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END_METRICS)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(PER_LAYER_METRICS)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_run_refuses_a_directory_without_the_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "verify-all",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""

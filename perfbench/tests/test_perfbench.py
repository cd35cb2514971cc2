"""The benchmark's own tests: its arithmetic, its output check, its refusals.

Run from the root of a checkout with ``python3 -m pytest perfbench/tests``.
The end-to-end cases copy the benchmark and the program's sources into a
temporary checkout, as the benchmark is run in practice.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from stats import (  # noqa: E402
    TooFewSamples,
    block_median_rate,
    normalise,
    percentile,
    quartile_spread,
    speed_factors,
)


# -- percentiles ---------------------------------------------------------------


@pytest.mark.parametrize("count, pct", [(20, 50), (1000, 99), (40, 75)])
def test_percentile_accepts_ten_samples_beyond(count, pct):
    values = [float(i) for i in range(1, count + 1)]
    assert percentile(values, pct) == math.ceil(pct / 100 * count)


@pytest.mark.parametrize("count, pct", [(19, 50), (999, 99), (39, 75), (0, 50)])
def test_percentile_refuses_fewer_than_ten_samples_beyond(count, pct):
    with pytest.raises(TooFewSamples):
        percentile([1.0] * count, pct)


def test_failed_operation_enters_the_percentiles_as_infinite():
    values = [1.0] * 980 + [math.inf] * 20
    assert percentile(values, 50) == 1.0
    assert percentile(values, 99) == math.inf


# -- normalisation -------------------------------------------------------------


def test_speed_factors_rescale_each_segment_by_its_surrounding_probes():
    # Probes of 20, 40 and 30 ms around two segments, reference 30 ms:
    # the first segment ran at a mean probe of 30 ms (factor 1), the
    # second at 35 ms, slower than the reference, so it shrinks by 30/35.
    factors = speed_factors([20_000.0, 40_000.0, 30_000.0], 30_000.0, 2)
    assert factors == pytest.approx([1.0, 30.0 / 35.0])
    assert normalise([2.0, 3.5], factors) == pytest.approx([2.0, 3.0])


def test_a_uniformly_slower_host_normalises_to_the_same_times():
    fast = normalise([1.0, 1.0], speed_factors([10.0, 10.0, 10.0], 10.0, 2))
    slow = normalise([1.5, 1.5], speed_factors([15.0, 15.0, 15.0], 10.0, 2))
    assert fast == pytest.approx([1.0, 1.0])
    assert slow == pytest.approx([1.0, 1.0])


def test_block_median_rate_ignores_one_stalled_block():
    ops = [10] * 6
    seconds = [1.0, 1.0, 1.0, 1.0, 9.0, 9.0]  # the last block stalled
    assert block_median_rate(ops, seconds, 3) == pytest.approx(10.0)
    assert block_median_rate(ops, seconds, 1) == pytest.approx(60 / 22)
    assert block_median_rate([1] * 7, [1.0] * 7, 3) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        block_median_rate([1], [1.0], 2)


def test_speed_factors_need_one_probe_per_segment_boundary():
    with pytest.raises(ValueError):
        speed_factors([1.0, 1.0], 1.0, 2)
    with pytest.raises(ValueError):
        speed_factors([1.0, 0.0], 1.0, 1)


def test_quartile_spread_is_a_share_of_the_median():
    assert quartile_spread([10.0] * 10) == 0.0
    assert quartile_spread([9.0, 10.0, 10.0, 11.0]) == pytest.approx(
        (10.75 - 9.25) / 10.0
    )


# -- the probe -------------------------------------------------------------------


def test_a_probe_sample_sums_the_parts_it_runs():
    from probe import HostProbe

    with HostProbe(1, ["compute", "messages"]) as probe:
        value = probe.sample()
    assert value == pytest.approx(probe.part_us["compute"][0] + probe.part_us["messages"][0])
    assert all(series[0] > 0 for series in probe.part_us.values())
    with pytest.raises(ValueError):
        HostProbe(1, ["disk"])


# -- the metric declarations ---------------------------------------------------


def test_every_per_layer_metric_maps_to_workloads_and_end_to_end_metrics():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    mapping = json.loads((BENCH / "layers.json").read_text())
    per_layer = {m["name"] for m in bench["per_layer"]}
    workloads = {w["name"] for w in bench["workloads"]}
    measured = {m["name"] for m in bench["end_to_end"]} | per_layer
    assert set(mapping) == per_layer
    for entry in mapping.values():
        assert set(entry["workloads"]) <= workloads
        for move in entry["moves"]:
            metric, workload = move.split("@")
            assert metric in measured and workload in workloads


# -- whole runs ------------------------------------------------------------------


def _checkout(tmp_path: Path, with_program: bool = True) -> Path:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    if with_program:
        shutil.copytree(ROOT / "src", tmp_path / "src",
                        ignore=shutil.ignore_patterns("__pycache__"))
    return tmp_path


def _run(checkout: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=checkout, capture_output=True, text=True, timeout=600,
    )


def test_a_corrupted_reference_digest_fails_the_run(tmp_path):
    checkout = _checkout(tmp_path)
    args = ("--workload", "serve_zipf_writes", "--seed", "3", "--seconds", "1")
    first = _run(checkout, *args)
    assert first.returncode == 0, first.stderr[-2000:]
    assert json.loads(first.stdout.splitlines()[-1])["correct"] is True

    [reference] = (checkout / ".perfbench").glob("reference-*.json")
    digests = json.loads(reference.read_text())
    corrupted = sorted(digests)[0]
    digests[corrupted] = "0" * 64
    reference.write_text(json.dumps(digests))

    second = _run(checkout, *args)
    assert second.returncode == 1
    assert json.loads(second.stdout.splitlines()[-1])["correct"] is False
    assert "differ from the offline reference" in second.stderr


def _session_members(session: int) -> list[int]:
    """Pids of the live processes whose session id is ``session``."""
    members = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        fields = stat.rsplit(")", 1)[1].split()
        if int(fields[3]) == session and fields[0] != "Z":
            members.append(int(entry.name))
    return members


def test_a_run_leaves_no_process_behind(tmp_path):
    # gateway_http starts the most processes: probe helpers, shard workers,
    # the load generator, and with them multiprocessing's resource tracker.
    checkout = _checkout(tmp_path)
    child = subprocess.Popen(
        [sys.executable, "perfbench/run.py", "--workload", "gateway_http",
         "--seed", "4", "--seconds", "1"],
        cwd=checkout, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        start_new_session=True,
    )
    status = child.wait(timeout=600)
    left = _session_members(child.pid)
    child.stderr.close()
    assert status == 0
    assert left == []


def test_without_the_program_the_run_fails_and_prints_no_result(tmp_path):
    checkout = _checkout(tmp_path, with_program=False)
    done = _run(checkout, "--workload", "eval_zoo", "--seed", "1", "--seconds", "1")
    assert done.returncode not in (0, None)
    assert '"correct"' not in done.stdout

"""Self-tests of the benchmark (quick mode; about a minute in all).

    python3 -m pytest perfbench -q

They live beside the benchmark, outside the tier-1 test paths, and run
``run.py`` as a subprocess, reading its last line as any caller would.
"""

import asyncio
import functools
import json
import os
import shutil
import subprocess
import sys
import time

import numpy as np
import pytest

import harness
import hermetic
from workloads import WORKLOADS, Tally, make_cases

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, hermetic.SRC)


@functools.lru_cache(maxsize=None)
def quick_output(workload: str, trace: int, seed: int = 1) -> str:
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", "1", "--quick",
         "--trace", str(trace)],
        cwd=hermetic.ROOT, capture_output=True, text=True, timeout=170)
    assert out.returncode == 0, out.stderr
    return out.stdout


def quick_run(workload: str, trace: int, seed: int = 1) -> dict:
    return json.loads(quick_output(workload, trace, seed).strip()
                      .splitlines()[-1])


def printed_units(workload: str, trace: int) -> dict:
    """``{name: unit}`` of the readable lines above the JSON line."""
    lines = quick_output(workload, trace).strip().splitlines()[2:-1]
    return {fields[0]: fields[2] for fields in map(str.split, lines)}


def declared():
    with open(os.path.join(hermetic.ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_benchmark_json_matches_the_harness():
    spec = declared()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        list(harness.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        list(harness.PER_LAYER)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_quick_mode_emits_every_metric_with_its_unit(workload, trace):
    result = quick_run(workload, trace)
    expected = harness.PER_LAYER if trace else harness.END_TO_END
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        dict(expected)
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    printed = printed_units(workload, trace)
    assert printed["error_rate"] == "ratio"
    if workload.startswith("serve_") and not trace:
        assert printed["rps"] == "req/s"


def test_corrupted_result_raises_error_rate():
    import repro

    op, a, _, ref, _ = make_cases(WORKLOADS["serve_lone"], 5, True)[1]
    tally = Tally()
    result = repro.matmul_ata(a)
    assert tally.check(op, result, ref)
    assert tally.error_rate == 0
    result[-1, 0] *= 1 + 1e-6  # one entry of the lower triangle
    assert not tally.check(op, result, ref)
    assert tally.error_rate == 0.5


def test_seed_changes_inputs_but_not_the_metric_set():
    one = make_cases(WORKLOADS["gram_dense"], 1, True)
    two = make_cases(WORKLOADS["gram_dense"], 2, True)
    assert not any(np.array_equal(x[1], y[1]) for x, y in zip(one, two))
    assert all(np.array_equal(x[1], y[1]) for x, y in
               zip(one, make_cases(WORKLOADS["gram_dense"], 1, True)))
    assert set(quick_run("gram_dense", 0, 1)["metrics"]) == \
        set(quick_run("gram_dense", 0, 2)["metrics"])


def test_traced_serve_lone_request_spans_nest_in_its_wall_time(tmp_path):
    from repro.serve import Client

    out = tmp_path / "server.json"
    op, a, _, _, _ = make_cases(WORKLOADS["serve_lone"], 1, True)[1]

    async def one_request(port):
        async with Client(port=port) as client:
            await client.submit(a, op.op)  # compiles the plan
            start = time.perf_counter()
            await client.submit(a, op.op)
            return start, time.perf_counter()

    with harness.Child("serve_child.py", "--workdir", str(tmp_path),
                       "--out", str(out), "--trace", "1") as child:
        start, end = asyncio.run(one_request(int(child.expect("port"))))
        child.finish()
    spans = json.loads(out.read_text())["raw_spans"]
    # frame reads block on the socket between requests, so they start
    # inside one request's window and end in the next; every other span
    # begun in the window belongs to this request
    inside = [s for s in spans
              if start <= s[1] <= end and s[0] != "wire.frame"]
    assert {"wire.codec", "wire.serve_submit", "serve.submit", "dispatch",
            "plan.lookup", "replay"} <= {s[0] for s in inside}
    assert all(s[2] <= end for s in inside)


def test_exits_nonzero_without_output_when_the_library_is_absent(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(hermetic.ROOT, "BENCHMARK.json"), tmp_path)
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "gram_dense",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert out.stdout == ""

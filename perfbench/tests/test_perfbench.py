"""Self-tests of the benchmark at tiny sizes.

Every end-to-end and per-layer metric named in ``BENCHMARK.json`` is
printed with its unit, the traced run shows the layer contrasts, and a
deliberately corrupted output fails the matching correctness check.
"""

import json
import os
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
for entry in (ROOT / "src", ROOT):
    if str(entry) not in sys.path:
        sys.path.insert(0, str(entry))

from perfbench import search, serve  # noqa: E402
from perfbench.common import CheckFailed  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
CLEAN_ENV = {
    k: v
    for k, v in os.environ.items()
    if k not in ("REPRO_METRICS", "REPRO_TRACE", "REPRO_LOG")
}


def run_bench(*args, cwd=ROOT, env=None):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        env=CLEAN_ENV if env is None else env,
        capture_output=True,
        text=True,
        timeout=180,
    )


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tiny_run(workload, trace):
    return result_of(
        run_bench(
            "--workload", workload, "--seed", "7", "--seconds", "0.1",
            "--trace", str(trace), "--size", "tiny",
        )
    )


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_end_to_end_metric_is_printed_with_its_unit(workload):
    result = tiny_run(workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    printed = {k: v["unit"] for k, v in result["metrics"].items()}
    assert printed == declared
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_prints_per_layer_metrics_and_contrasts(workload):
    result = tiny_run(workload, 1)
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    value = {k: v["value"] for k, v in result["metrics"].items()}
    serving = [k for k in value if k.startswith(("runtime.", "loadgen."))]
    assert value["trace.overhead"] > 0
    if workload.startswith("search"):
        # The search workloads bypass the runtime, service and composites.
        assert value["graph.compile.calls"] == 0
        assert all(value[k] == 0 for k in serving)
        assert value["steady_state.score.us_per_candidate"] > 0
    else:
        assert value["graph.compile.calls"] > 0
        assert value["runtime.scheduler.arrival.calls"] > 0
        assert value["runtime.journal.append.bytes"] > 0
        assert value["loadgen.lag_ms.p50"] > 0
        out = ROOT / "perfbench" / "out"
        record = json.loads((out / f"result-{workload}-seed7-trace1.json").read_text())
        details = record["details"]
        assert details["checkpoint_bytes.last"] > details["checkpoint_bytes.first"]
    trace = json.loads(
        (ROOT / "perfbench/out" / f"trace-{workload}-seed7-trace1.json").read_text()
    )
    assert trace["traceEvents"] and all(e["ph"] == "X" for e in trace["traceEvents"])


def test_refuses_to_time_with_instrumentation_on():
    proc = run_bench(
        "--workload", "search-dense", "--seed", "1", "--seconds", "1",
        env=dict(CLEAN_ENV, REPRO_METRICS="1"),
    )
    assert proc.returncode != 0 and "REPRO_METRICS" in proc.stderr
    assert '"correct"' not in proc.stdout


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "perfbench", tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    proc = run_bench(
        "--workload", "search-dense", "--seed", "1", "--seconds", "1",
        cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


# ---------------------------------------------------------------------- #
# Corrupted outputs fail the matching check


def test_flipped_assignment_fails_the_search_check():
    workload = search.tiny(search.WORKLOADS["search-dense"])
    inputs = search.setup(workload, 3)
    passes = [search.run_pass(inputs, workload)[0] for _ in range(2)]
    search.check_passes(inputs, passes)  # the honest output passes
    mapping = passes[1][0]
    task = mapping.graph.task_names()[0]
    flipped = (mapping.pe_of(task) + 1) % inputs.platform.n_pes
    passes[1][0] = mapping.with_assignment(task, flipped)
    with pytest.raises(CheckFailed) as failure:
        search.check_passes(inputs, passes)
    assert failure.value.check == "search.deterministic"


@pytest.fixture(scope="module")
def served(tmp_path_factory):
    workload = serve.tiny(serve.WORKLOADS["serve-crowded"])
    inputs = serve.setup(workload, 3)
    run = serve.replay(workload, inputs, tmp_path_factory.mktemp("serve"), "closed")
    offline = serve.make_scheduler(workload, inputs).run(inputs.events)
    return run, (workload, inputs, offline)


def test_honest_replay_passes_the_serve_checks(served):
    run, context = served
    assert serve.check_replay(run, *context) == 0


def test_dropped_response_fails_the_serve_check(served):
    run, context = served
    dropped = replace(run, responses=run.responses[:-1])
    with pytest.raises(CheckFailed) as failure:
        serve.check_replay(dropped, *context)
    assert failure.value.check == "serve.one_response_per_request"


def test_truncated_journal_fails_the_recovery_check(served, tmp_path):
    run, context = served
    journal = tmp_path / "journal.jsonl"
    checkpoint = tmp_path / "checkpoint.json"
    lines = run.journal.read_text().splitlines(keepends=True)
    journal.write_text("".join(lines[: len(lines) // 2]))
    shutil.copy(run.checkpoint, checkpoint)
    truncated = replace(run, journal=journal, checkpoint=checkpoint)
    with pytest.raises(CheckFailed) as failure:
        serve.check_replay(truncated, *context)
    assert failure.value.check == "serve.recovery_matches"

"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload search-dense --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` wraps each layer's entry points in spans and reports the
per-layer metrics instead, writing a Chrome trace (Perfetto loads it)
under ``perfbench/out/``.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  A failed
correctness check exits with status 1 and names the check.
"""

from time import perf_counter

_START = perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "perfbench" / "out"
WORKLOAD_NAMES = ("search-dense", "search-md", "serve-crowded")
#: Instrumentation switches that would put the program's own spans,
#: counters or log handlers inside the timed region.
INSTRUMENTATION_ENV = ("REPRO_METRICS", "REPRO_TRACE", "REPRO_LOG")
SETUP_REPEATS = 3


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size",
        choices=("full", "tiny"),
        default="full",
        help="tiny shrinks every workload for quick self-tests",
    )
    return parser.parse_args(argv)


def metric_specs(trace: int):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


def run(args, import_s: float):
    """Set up, measure and check one workload; returns (outcome, traces)."""
    from perfbench import search, serve
    from perfbench.common import median, peak_rss_mb

    is_search = args.workload.startswith("search")
    module = search if is_search else serve
    workload = module.WORKLOADS[args.workload]
    if args.size == "tiny":
        workload = module.tiny(workload)

    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        inputs = module.setup(workload, args.seed)
        setups.append(perf_counter() - t0)

    OUT_DIR.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as scratch:
        directory = Path(scratch)
        if args.trace:
            if is_search:
                outcome, traces = search.measure_traced(workload, inputs)
            else:
                outcome, traces = serve.measure_traced(workload, inputs, directory)
        elif is_search:
            outcome = search.measure(workload, inputs, args.seconds)
            traces = []
        else:
            outcome = serve.measure(workload, inputs, args.seconds, directory)
            traces = []
    if not args.trace:
        outcome.metrics["setup_s"] = import_s + median(setups)
        outcome.metrics["peak_rss_mb"] = peak_rss_mb()
    return outcome, traces


def main(argv=None) -> int:
    args = parse_args(argv)
    set_vars = [name for name in INSTRUMENTATION_ENV if os.environ.get(name)]
    if set_vars:
        print(
            f"refusing to run: {', '.join(set_vars)} set; timed runs need "
            "the program's instrumentation off",
            file=sys.stderr,
        )
        return 2
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: program sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    # The workload modules import the program: part of the set-up time.
    from perfbench import search, serve  # noqa: F401
    from perfbench.common import CheckFailed, environment

    import_s = perf_counter() - _START
    try:
        outcome, traces = run(args, import_s)
    except CheckFailed as exc:
        print(f"FAILED {exc.check}: {exc}", file=sys.stderr)
        return 1

    env = environment()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if traces:
        merged = traces[0].tracer
        for other in traces[1:]:
            shift = (other.tracer.epoch - merged.epoch) * 1e6
            merged.absorb([dict(e, ts=e["ts"] + shift) for e in other.tracer.events])
        trace_path = OUT_DIR / f"trace-{tag}.json"
        trace_path.write_text(merged.to_json())
        print(f"trace: {trace_path.relative_to(ROOT)} ({len(merged.events)} spans)")
    metrics = {
        m["name"]: {"value": outcome.metrics[m["name"]], "unit": m["unit"]}
        for m in metric_specs(args.trace)
    }
    result = {
        "correct": True,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }
    record = {"args": vars(args), "env": env, "details": outcome.details, **result}
    (OUT_DIR / f"result-{tag}.json").write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n"
    )
    print("env: " + json.dumps(env, sort_keys=True))
    print("details: " + json.dumps(outcome.details, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

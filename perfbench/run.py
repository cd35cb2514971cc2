"""Run one benchmark workload and print its metrics as the last line of output.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload eval_zoo --seed 1 --seconds 10 --trace 0

``--trace 0`` prints every end-to-end metric named in ``BENCHMARK.json``;
``--trace 1`` first runs the same command untraced in a child process,
then runs the workload again with the program's tracer and the
benchmark's timing shims on, and prints every per-layer metric.  The
line before the result is a JSON document with the raw timings
(``host.*``), sample counts, exact work counters, cache shares, seeds and
the output check; the same document is written under ``.perfbench/``.

The run fails (exit status 1, ``"correct": false``) when any returned
record differs from the offline ``Evaluator`` reference, or when the
program used CPU while the host-speed probe ran.  Without the program's
sources beside it, the run exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import signal
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import (  # noqa: E402
    OUT_DIR,
    ROOT,
    SRC,
    Context,
    Stopwatch,
    Timeline,
    end_helper_processes,
    load_config,
    mismatches,
    peak_rss_mb,
    quality,
    run_child,
)

WORKLOADS = ("eval_zoo", "serve_zipf_writes", "gateway_http")
CHILD_TIMEOUT_S = 170


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True, help="workload seed")
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spider-seed", type=int, default=None,
                        help="Spider-like dataset seed (default: config.json)")
    parser.add_argument("--bird-seed", type=int, default=None,
                        help="BIRD-like dataset seed (default: config.json)")
    parser.add_argument("--setup-only", action="store_true",
                        help="time one set-up pass and exit (used for the repeats)")
    return parser.parse_args(argv)


def _make_workload(ctx: Context):
    if ctx.workload == "eval_zoo":
        from eval_zoo import EvalZoo

        return EvalZoo(ctx)
    if ctx.workload == "serve_zipf_writes":
        from serve_zipf import ServeZipfWrites

        return ServeZipfWrites(ctx)
    from gateway_http import GatewayHTTP

    return GatewayHTTP(ctx)


def _child_args(args: argparse.Namespace, ctx: Context, *extra: str) -> list[str]:
    return [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--spider-seed", str(ctx.dataset_seeds["spider"]),
        "--bird-seed", str(ctx.dataset_seeds["bird"]),
        *extra,
    ]


def _run_child(argv: list[str]) -> dict:
    """Run the benchmark in a child process and return its last output line."""
    done = run_child(argv, ROOT, CHILD_TIMEOUT_S)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise RuntimeError(f"child run failed with status {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def _timed_setup(workload) -> dict:
    """One set-up pass: its wall time and its named parts."""
    watch = Stopwatch()
    workload.setup(watch)
    return {"setup_s": watch.total(), **watch.seconds}


def _setup_only(ctx: Context) -> int:
    workload = _make_workload(ctx)
    try:
        out = _timed_setup(workload)
    finally:
        workload.teardown()
    print(json.dumps(out))
    return 0


def _traced(ctx: Context):
    """The program's tracer and the benchmark's shims, for a traced run."""
    from repro.obs import tracing
    from shims import LayerShims

    OUT_DIR.mkdir(exist_ok=True)
    shims = LayerShims(OUT_DIR)
    shims.install()
    return shims, tracing()


def _measure(ctx: Context, workload, setup_children: list[list[str]]) -> dict:
    """Set up (each child in ``setup_children`` first, then this process)
    and run the timed rounds with the probe between them.

    Set-up passes are too short for probes around each to follow the
    host; instead every set-up time is rescaled by the median of the
    timed phase's probe samples, which follows how fast the host ran
    over the whole run.
    """
    from probe import HostProbe
    from shims import reset_active

    out: dict = {}
    parts = ctx.config[ctx.workload]["probe"]
    reference_us = sum(ctx.config["reference_probe_us"][part] for part in parts)
    with HostProbe(ctx.jobs, parts) as probe:
        out["raw_setups"] = [_run_child(argv) for argv in setup_children]
        out["raw_setups"].append(_timed_setup(workload))
        reset_active()
        probe.watch_pids = workload.program_pids()
        timeline = Timeline(probe, reference_us)
        timeline.start()
        started = time.perf_counter()
        workload.measure(timeline)
        out["measure_wall_s"] = time.perf_counter() - started
        settings = ctx.config[ctx.workload]
        out["summary"] = timeline.summary(settings["tail_pct"], settings["blocks"])
        out["summary"]["host"]["probe_cores"] = probe.cores
        out["setup_factor"] = reference_us / statistics.median(timeline.probes_us)
        out["release_lag_ms"] = [1000.0 * lag for lag in timeline.release_lags]
        out["peak_rss_mb"] = peak_rss_mb(workload.program_pids())
        out["counters"] = workload.counters()
        out["shares"] = workload.shares()
    return out


def _terminated(signum: int, frame: object) -> None:
    raise SystemExit(128 + signum)


def main(argv: list[str] | None = None) -> int:
    """Run the workload; on every way out, wait until each process it started has ended.

    SIGTERM unwinds like an exception, so a run stopped from outside
    still tears the program down and ends its helpers.
    """
    signal.signal(signal.SIGTERM, _terminated)
    try:
        return _main(argv)
    finally:
        end_helper_processes()


def _main(argv: list[str] | None) -> int:
    args = _parse(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: the program's sources are missing under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    config = load_config()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ctx = Context(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=bool(args.trace),
        config=config,
        dataset_seeds={
            "spider": args.spider_seed if args.spider_seed is not None
            else config["dataset_seeds"]["spider"],
            "bird": args.bird_seed if args.bird_seed is not None
            else config["dataset_seeds"]["bird"],
        },
    )
    if args.setup_only:
        return _setup_only(ctx)

    untraced = None
    setup_children: list[list[str]] = []
    if ctx.trace:
        untraced = _run_child(_child_args(args, ctx, "--trace", "0"))
    else:
        repeats = config[args.workload]["setup_repeats"]
        setup_children = [_child_args(args, ctx, "--setup-only")] * (repeats - 1)

    workload = _make_workload(ctx)
    shims = trace_scope = None
    if ctx.trace:
        shims, trace_scope = _traced(ctx)
    with trace_scope or contextlib.nullcontext():
        try:
            result = _measure(ctx, workload, setup_children)
        finally:
            workload.teardown()
            if shims is not None:
                shims.uninstall()
    if shims is not None:
        shims.merge_dumps()

    answers = workload.answers()
    every = answers + workload.warm_answers()
    wrong = mismatches(every, workload.reference())
    timed = quality(answers)
    # Billed over set-up warm-up and timed phase: a cache answers repeats for free.
    billed = quality(every)
    summary = result["summary"]
    host = summary["host"]
    busy_ok = host["probe_busy_pct"] <= config["max_probe_busy_pct"]
    correct = not wrong and busy_ok

    setups = result["raw_setups"]
    setup_values = [r["setup_s"] * result["setup_factor"] for r in setups]
    build_values = [r["build_s"] * result["setup_factor"] for r in setups]
    e2e = {
        "throughput_per_s": summary["throughput_per_s"],
        "p50_ms": summary["p50_ms"],
        "tail_ms": summary["tail_ms"],
        "setup_s": statistics.median(setup_values),
        "peak_rss_mb": result["peak_rss_mb"],
        "ok_pct": timed["ok_pct"],
        "ex_pct": timed["ex_pct"],
        "em_pct": timed["em_pct"],
        "tokens_per_query": billed["billed_tokens"] / max(billed["ok"], 1),
    }
    figures: dict = {}
    if ctx.trace:
        from layers import shim_figures

        figures.update(shim_figures(shims))
        figures.update(workload.layer_figures())
        figures["datagen.build_s"] = (statistics.median(build_values), len(build_values))
        traced_tp = summary["throughput_per_s"]
        untraced_tp = untraced["metrics"]["throughput_per_s"]["value"]
        figures["obs.trace_overhead_pct"] = (100.0 * (untraced_tp / traced_tp - 1.0), 2)
        figures["host.probe_us"] = (host["probe_us"], host["probe_samples"])
        figures["host.raw_throughput_per_s"] = (host["raw_throughput_per_s"], summary["ops"])
        figures["host.probe_busy_pct"] = (host["probe_busy_pct"], host["probe_samples"])
        lags = result["release_lag_ms"]
        figures["loadgen.release_lag_ms"] = (
            statistics.median(lags) if lags else 0.0, len(lags)
        )

    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    wanted = bench["per_layer"] if ctx.trace else bench["end_to_end"]
    metrics = {}
    layers = {}
    for spec in wanted:
        name = spec["name"]
        if ctx.trace:
            value, samples = figures.get(name, (0.0, 0))
            layers[name] = {"value": value, "samples": samples}
        else:
            value = e2e[name]
        metrics[name] = {"value": value, "unit": units[name]}

    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "dataset_seeds": ctx.dataset_seeds,
        "seconds": args.seconds,
        "trace": args.trace,
        "jobs": ctx.jobs,
        "end_to_end": e2e,
        "samples": {
            "latency": summary["latency_samples"],
            "tail_pct": summary["tail_pct"],
            "setup_repeats": len(setup_values),
            "rounds": summary["rounds"],
        },
        "host": {**host, "setup_s_values": setup_values, "build_s_values": build_values,
                 "raw_setup_s_values": [r["setup_s"] for r in setups],
                 "measure_wall_s": result["measure_wall_s"]},
        "counters": result["counters"],
        "shares": result["shares"],
        "workload_detail": workload.extra_detail(),
        "check": {"checked": len(every), "mismatches": len(wrong),
                  "first_mismatches": wrong[:5], **timed},
        "probe_busy_ok": busy_ok,
        "layers": layers,
        "untraced_throughput_per_s": (
            untraced["metrics"]["throughput_per_s"]["value"] if untraced else None
        ),
    }
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"run-{args.workload}-s{args.seed}-t{args.trace}.json").write_text(
        json.dumps(detail, indent=1, sort_keys=True)
    )
    print(json.dumps(detail, sort_keys=True))
    if wrong:
        print(f"perfbench: {len(wrong)} records differ from the offline"
              f" reference, e.g. {wrong[:5]}", file=sys.stderr)
    if not busy_ok:
        print(f"perfbench: the program was {host['probe_busy_pct']:.1f}% busy during"
              " a probe sample", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": len(answers),
        "failed": timed["failed"],
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

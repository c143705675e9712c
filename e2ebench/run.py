"""End-to-end benchmark of the sketching system, with per-layer attribution.

    python3 e2ebench/run.py --workload records --seed 1 --seconds 10 --trace 0
    python3 e2ebench/run.py --workload all --repeat 5 --seconds 10

``--trace 0`` measures the end-to-end metrics of one workload with no
instrumentation of its own.  ``--trace 1`` first runs the workload untraced
for half the time, then the same rounds again with every layer wrapped
(``layers.py``); it prints the per-layer table, writes a Chrome trace to
``.e2ebench_out/trace-<workload>.json`` and reports the per-layer metrics.  ``--repeat N`` runs
each workload N times (seeds ``--seed`` .. ``--seed + N - 1``) in fresh
processes and prints every metric's median and quartile spread next to its
``BENCHMARK.json`` bound.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".e2ebench_out")


def _import_program() -> None:
    """Import the program from this checkout's ``src`` (never from elsewhere)."""
    source = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(source, "repro")):
        print(f"e2ebench: no program sources under {source}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, source)
    try:
        import repro  # noqa: F401
    except ImportError as exc:
        print(f"e2ebench: cannot import the program from {source}: {exc}", file=sys.stderr)
        sys.exit(2)


def _metric(value: float, unit: str) -> dict[str, object]:
    return {"value": float(value), "unit": unit}


def end_to_end(outcome) -> dict[str, dict[str, object]]:
    import numpy as np

    workload = outcome.workload
    ledger = workload.ledger
    return {
        "setup_s": _metric(float(np.median(outcome.setup_seconds)), "s"),
        "events_per_s": _metric(workload.events_per_s(), "1/s"),
        "interval_ingest_p50_ms": _metric(ledger.p50_ms("interval_ingest"), "ms"),
        "peak_rss_mb": _metric(workload.peak_rss_mb(), "MB"),
    }


def _per(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer(tracer, workload, untraced_seconds: float) -> tuple[dict, list[tuple[str, float, int]]]:
    """Per-layer metrics and the self-time table (layer, us per event, calls)."""
    from layers import LAYER_TARGETS

    ledger = workload.ledger
    events = workload.events
    us = {layer: tracer.self_ns.get(layer, 0) / 1e3 for layer in LAYER_TARGETS}
    queries = workload.queries
    descents = ledger.attempted.get("descent_query", 0) + ledger.attempted.get("quantile_query", 0)
    recovers = len(workload.recover_seconds)
    table = [(layer, _per(us[layer], events), tracer.calls.get(layer, 0)) for layer in LAYER_TARGETS]
    residual = _per(tracer.residual_ns() / 1e3, events)
    wall = _per(tracer.op_ns / 1e3, events)
    table.append(("residual", residual, 0))
    traced_seconds = tracer.op_ns / 1e9
    metrics = {
        "stream.validation.us_per_event": (_per(us["stream.validation"], events), "us"),
        "stream.durability.encode_us_per_event": (_per(us["stream.durability.encode"], events), "us"),
        "stream.durability.append_us_per_event": (_per(us["stream.durability.append"], events), "us"),
        "stream.durability.snapshot_ms": (_per(us["stream.durability.snapshot"], workload.checkpoints) / 1e3, "ms"),
        "stream.durability.snapshot_load_ms": (_per(us["stream.durability.snapshot_load"], recovers) / 1e3, "ms"),
        "stream.durability.replay_us_per_record": (_per(us["stream.durability.replay"], workload.replayed), "us"),
        "stream.processor.self_us_per_event": (_per(us["stream.processor"], events), "us"),
        "sketch.ams.scatter_us_per_event": (_per(us["sketch.ams.scatter"], events), "us"),
        "sketch.ams.scalar_updates_per_event": (_per(tracer.counts.get("scalar_updates", 0), events), "count"),
        "sketch.bulk.decompose_us_per_interval": (_per(us["sketch.bulk.decompose"], workload.intervals), "us"),
        "sketch.bulk.pieces_per_interval": (_per(tracer.counts.get("pieces", 0), workload.intervals), "count"),
        "sketch.plane.point_kernel_us_per_event": (_per(us["sketch.plane.point_kernel"], events), "us"),
        "sketch.plane.interval_kernel_us_per_interval": (_per(us["sketch.plane.interval_kernel"], workload.intervals), "us"),
        "query.hierarchy.update_us_per_event": (_per(us["query.hierarchy.update"], events), "us"),
        "query.hierarchy.descent_us_per_query": (_per(us["query.hierarchy.descent"], descents), "us"),
        "query.hierarchy.blocks_per_descent": (_per(tracer.counts.get("blocks", 0), descents), "count"),
        "query.hierarchy.true_per_reported": (_per(workload.hh_true, workload.hh_reported), "ratio"),
        "query.plan.us_per_query": (_per(us["query.plan"], queries), "us"),
        "query.engine.probe_us_per_query": (_per(us["query.engine.probe"], queries), "us"),
        "query.engine.product_us_per_query": (_per(us["query.engine.product"], queries), "us"),
        "cluster.protocol.encode_us_per_event": (_per(us["cluster.protocol.encode"], events), "us"),
        "cluster.protocol.frame_bytes_per_event": (_per(tracer.counts.get("frame_bytes", 0), events), "B"),
        "cluster.protocol.decode_us_per_event": (_per(us["cluster.protocol.decode"], events), "us"),
        "cluster.transport.wait_us_per_event": (_per(us["cluster.transport.wait"], events), "us"),
        "cluster.transport.send_us_per_event": (_per(us["cluster.transport.send"], events), "us"),
        "cluster.coordinator.self_us_per_event": (_per(us["cluster.coordinator"], events), "us"),
        "cluster.coordinator.merge_us_per_query": (_per(us["cluster.coordinator.merge"], queries), "us"),
        "rangesum.multidim.us_per_rect": (_per(us["rangesum.multidim"], events), "us"),
        "apps.spatialjoin2d.self_us_per_rect": (_per(us["apps.spatialjoin2d"], events), "us"),
        "obs.us_per_event": (_per(us["obs"], events), "us"),
        "residual.us_per_event": (residual, "us"),
        "traced_wall.us_per_event": (wall, "us"),
        "tracing.overhead_pct": (100.0 * _per(traced_seconds - untraced_seconds, untraced_seconds), "%"),
    }
    return {name: _metric(v, u) for name, (v, u) in metrics.items()}, table


def _count_hooks(tracer) -> None:
    counts = tracer.counts

    def pieces(args, kwargs, result) -> None:
        if result is not None:
            counts["pieces"] += int(result.lows.size)

    def frame_bytes(args, kwargs, result) -> None:
        if result is not None:
            counts["frame_bytes"] += len(result)

    def blocks(args, kwargs, result) -> None:
        if result is not None:
            counts["blocks"] += int(len(result))

    for name in ("decompose_quaternary", "decompose_binary",
                 "quaternary_cover_arrays", "dyadic_cover_arrays"):
        tracer.on_call[f"sketch.bulk.decompose:{name}"] = pieces
    tracer.on_call["cluster.protocol.encode:encode_frame"] = frame_bytes
    tracer.on_call["query.hierarchy.descent:estimate_blocks"] = blocks


def _report_ops(outcome) -> None:
    ledger = outcome.workload.ledger
    print(f"# {outcome.workload.name}: {outcome.rounds} rounds in {outcome.wall_seconds:.2f} s, "
          f"{outcome.workload.events} events")
    for op in sorted(ledger.attempted):
        line = f"#   {op:16s} attempted {ledger.attempted[op]:6d} failed {ledger.failed.get(op, 0):4d}"
        p50 = ledger.p50_ms(op)
        if p50 is not None:
            line += f"  n={len(ledger.latency[op])} p50 {p50:.4f} ms"
            tail = ledger.tail_ms(op)
            if tail is not None:
                line += f"  p{tail[0]:.2f} {tail[1]:.4f} ms"
        print(line)
    for failure in ledger.failures[:20]:
        print(f"#   FAILED {failure}")


def run_once(args) -> dict:
    from workloads import FULL, TINY, execute

    size = TINY if args.size == "tiny" else FULL
    workdir = os.path.join(OUT, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        if not args.trace:
            outcome = execute(args.workload, args.seed, args.seconds, workdir, size)
            _report_ops(outcome)
            extra = {k: _metric(v, u) for k, (v, u) in outcome.workload.extra_metrics().items()}
            print("# extra " + json.dumps(extra, sort_keys=True))
            metrics = end_to_end(outcome)
            ledgers = [outcome.workload.ledger]
            layer_ok = True
        else:
            from layers import Tracer

            untraced = execute(args.workload, args.seed, args.seconds / 2, workdir, size)
            tracer = Tracer()
            _count_hooks(tracer)
            tracer.install()
            try:
                traced = execute(args.workload, args.seed, 0, workdir, size,
                                 tracer=tracer, rounds=untraced.rounds)
            finally:
                tracer.uninstall()
            _report_ops(traced)
            metrics, table = per_layer(tracer, traced.workload, untraced.workload.ledger.op_seconds)
            wall = metrics["traced_wall.us_per_event"]["value"]
            total = sum(value for _, value, _ in table)
            layer_ok = abs(total - wall) <= 1e-6 * max(1.0, wall)
            print(f"# per-layer self time, {args.workload} (us per event; traced wall {wall:.3f})")
            for layer, value, calls in table:
                print(f"#   {layer:34s} {value:12.3f}  {100.0 * _per(value, wall):6.2f}%  {calls:9d} calls")
            print(f"#   {'sum':34s} {total:12.3f}  (adds up: {layer_ok})")
            overhead = metrics["tracing.overhead_pct"]["value"]
            print(f"# tracing overhead: traced {tracer.op_ns / 1e9:.3f} s vs untraced "
                  f"{untraced.workload.ledger.op_seconds:.3f} s of op time ({overhead:+.1f}%)")
            # One file per workload, overwritten, so repeated runs do not pile up.
            trace_path = os.path.join(OUT, f"trace-{args.workload}.json")
            tracer.write_chrome_trace(trace_path)
            print(f"# chrome trace: {os.path.relpath(trace_path, ROOT)}")
            ledgers = [untraced.workload.ledger, traced.workload.ledger]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    attempted = sum(sum(ledger.attempted.values()) for ledger in ledgers)
    failed = sum(sum(ledger.failed.values()) for ledger in ledgers)
    return {
        "correct": failed == 0 and layer_ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def repeat(args) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    workloads = [w["name"] for w in spec["workloads"]] if args.workload == "all" else [args.workload]
    status = 0
    for workload in workloads:
        samples: dict[str, list[float]] = {}
        units: dict[str, str] = {}
        failed = attempted = 0
        for k in range(args.repeat):
            seed = args.seed + k
            command = [sys.executable, os.path.abspath(__file__), "--workload", workload,
                       "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0",
                       "--size", args.size]
            done = subprocess.run(command, capture_output=True, text=True, timeout=900)
            lines = done.stdout.strip().splitlines()
            if done.returncode or not lines:
                print(f"{workload} seed {seed}: exit {done.returncode}\n{done.stderr[-2000:]}")
                status = 1
                continue
            result = json.loads(lines[-1])
            extra = next((json.loads(line[len("# extra "):]) for line in lines
                          if line.startswith("# extra ")), {})
            failed += result["failed"]
            attempted += result["attempted"]
            for name, metric in {**result["metrics"], **extra}.items():
                samples.setdefault(name, []).append(metric["value"])
                units[name] = metric["unit"]
        print(f"== {workload}: {args.repeat} runs of {args.seconds} s, "
              f"failed {failed} of {attempted} operations")
        print(f"   {'metric':28s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s}")
        for name in sorted(samples):
            q1, median, q3 = _quartiles(samples[name])
            spread = (q3 - q1) / median if median else 0.0
            bound = bounds.get(name, {}).get("bound")
            mark = ""
            if bound is not None:
                mark = f"{bound:6.2f} {'ok' if spread < bound / 3 else 'WIDE'}"
            print(f"   {name:28s} {median:12.5g} {q1:12.5g} {q3:12.5g} {spread:8.3f} {mark} {units[name]}")
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="records",
                        choices=["records", "batches", "cluster", "rects", "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--repeat", type=int, default=0,
                        help="run each workload N times in fresh processes and summarize")
    parser.add_argument("--size", choices=["full", "tiny"], default="full",
                        help="tiny shrinks the grid and domains for smoke tests")
    args = parser.parse_args(argv)
    _import_program()
    if args.repeat:
        return repeat(args)
    if args.workload == "all":
        parser.error("--workload all needs --repeat")
    result = run_once(args)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())

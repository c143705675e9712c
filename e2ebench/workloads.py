"""The four closed-loop workloads and the bookkeeping that times and checks them.

One caller drives the program's public APIs; each program call is one
timed operation.  Between calls the benchmark updates its own reference
(``reference.py``) and checks every answer against it.  A workload is a
sequence of identical *rounds* (only the seeded inputs differ), so every
run attempts whole rounds of the same operations.

``records``  one ``process_point`` / ``process_interval`` per call, a
             dyadic hierarchy on relation ``r``, queries interleaved.
``batches``  500-record ``process_points`` / ``process_intervals``
             batches, a checkpoint per round, no hierarchy.
``cluster``  the ``batches`` stream through a 2-shard ``ClusterProcessor``
             on the process transport; three SIGKILLs of a worker per run,
             each healed by ``supervise()``.
``rects``    the 2-D spatial join: rectangle batches sketched with product
             channels by ``sketch_rect_dataset`` and joined by
             ``estimate_rect_join``.
"""

from __future__ import annotations

import math
import os
import resource
import shutil
import signal
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import reference as ref
from layers import Tracer

#: Predicted standard errors an estimate may be off by before it fails.
SE_LIMIT = 5.0

#: Zipf exponent of point keys (the skew that drives heavy hitters).
ZIPF_A = 1.3


@dataclass(frozen=True)
class Size:
    """Every size knob of a run; ``FULL`` is what the benchmark measures."""

    medians: int = 7
    averages: int = 100
    domain_bits: int = 20
    rect_bits: int = 10
    record_points: int = 10  # points per relation per records segment
    record_intervals: int = 3  # intervals per relation per records segment
    segments_per_round: int = 8  # records segments (each with join + ranges)
    hier_interval_bits: int = 4  # longest hierarchy interval: 2^4
    interval_bits: int = 16  # longest interval elsewhere: 2^16
    rect_extent_bits: int = 8  # longest rectangle side: 2^8
    batch: int = 500
    batches_per_round: int = 8
    rects_per_batch: int = 4
    tail_rounds: int = 2  # ingest-only rounds replayed by recovery
    setups: int = 5  # timed set-ups before the rounds, and again after
    recovers: int = 3
    kills: int = 3
    sampled_counters: int = 8


FULL = Size()
TINY = Size(
    medians=3,
    averages=16,
    domain_bits=12,
    rect_bits=6,
    record_points=2,
    record_intervals=1,
    segments_per_round=2,
    hier_interval_bits=2,
    interval_bits=8,
    rect_extent_bits=4,
    batch=20,
    batches_per_round=2,
    rects_per_batch=2,
    tail_rounds=1,
    setups=2,
    recovers=2,
    kills=1,
    sampled_counters=4,
)

FAULTS = ("corrupt_counter", "flip_seed", "drop_batch")


def _ms(seconds: list[float]) -> np.ndarray:
    return np.asarray(seconds, dtype=np.float64) * 1e3


def tail_percentile(samples: int) -> float | None:
    """Highest percentile with at least ten samples beyond it (None if < 40)."""
    if samples < 40:
        return None
    return 100.0 * (1.0 - 10.0 / samples)


class Ledger:
    """Latencies, attempts and failures per operation type."""

    def __init__(self, tracer: Tracer | None) -> None:
        self.tracer = tracer
        self.latency: dict[str, list[float]] = defaultdict(list)
        self.attempted: dict[str, int] = defaultdict(int)
        self.failed: dict[str, int] = defaultdict(int)
        self.failures: list[str] = []
        self.op_seconds = 0.0
        self.last = 0.0  # duration of the latest successful call
        self.worst_se: dict[str, float] = defaultdict(float)  # largest |error| / SE

    def call(
        self, op: str, fn: Callable[..., Any], *args: Any,
        record: bool = True, attempt: bool = True,
    ) -> Any:
        """Run one program call, timed; a raised exception fails the op.

        ``record=False`` leaves the latency to the caller (an op made of
        two calls); ``attempt=False`` marks the second call of such an op.
        """
        self.attempted[op] += int(attempt)
        try:
            if self.tracer is not None:
                result, elapsed_ns = self.tracer.run(fn, *args)
                elapsed = elapsed_ns / 1e9
            else:
                start = time.perf_counter()
                result = fn(*args)
                elapsed = time.perf_counter() - start
        except Exception as exc:  # noqa: BLE001 -- a failing call is a failed op, reported
            self.failed[op] += 1
            self.failures.append(f"{op}: {type(exc).__name__}: {exc}")
            return None
        self.op_seconds += elapsed
        if record:
            self.latency[op].append(elapsed)
        self.last = elapsed
        return result

    def check(self, op: str, ok: bool, message: str) -> None:
        """Fail the op just attempted when its answer is wrong."""
        if not ok:
            self.failed[op] += 1
            self.failures.append(f"{op}: {message}")

    def verify(self, op: str, ok: bool, message: str) -> None:
        """One standalone check (counted as its own attempted op)."""
        self.attempted[op] += 1
        self.check(op, ok, message)

    def p50_ms(self, op: str) -> float | None:
        values = self.latency.get(op)
        return float(np.median(_ms(values))) if values else None

    def tail_ms(self, op: str) -> tuple[float, float] | None:
        values = self.latency.get(op, [])
        pct = tail_percentile(len(values))
        if pct is None:
            return None
        return pct, float(np.percentile(_ms(values), pct))


class Inputs:
    """Seeded input streams: same seed, same inputs, round by round."""

    def __init__(self, seed: int, workload_id: int, domain_bits: int) -> None:
        self.seed = seed
        self.wid = workload_id
        self.bits = domain_bits
        self.size = 1 << domain_bits
        base = np.random.default_rng([seed, workload_id])
        # Zipf ranks land on keys through a seeded odd-multiplier bijection.
        self.mult = int(base.integers(0, self.size)) | 1
        self.offset = int(base.integers(0, self.size))
        self.program_seed = int(base.integers(0, 2**31))

    def rng(self, round_index: int, stream: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, self.wid, round_index, stream])

    def key_of_rank(self, ranks: np.ndarray) -> np.ndarray:
        ranks = np.asarray(ranks, dtype=np.int64) % self.size
        return (ranks * self.mult + self.offset) % self.size

    def zipf_keys(self, rng: np.random.Generator, count: int) -> np.ndarray:
        return self.key_of_rank(rng.zipf(ZIPF_A, count) - 1)

    def intervals(
        self, rng: np.random.Generator, count: int, length_bits: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Log-uniform lengths in ``[1, 2^length_bits]``, uniform placement."""
        lengths = np.floor(2.0 ** rng.uniform(0, length_bits, count)).astype(np.int64)
        lows = rng.integers(0, self.size - lengths + 1)
        return lows, lows + lengths - 1

    def rects(self, rng: np.random.Generator, count: int, extent_bits: int) -> np.ndarray:
        axes = [self.intervals(rng, count, extent_bits) for _ in range(2)]
        return np.stack(
            [np.stack([low, high], axis=1) for low, high in axes], axis=1
        )


def _sample_cells(seed: int, medians: int, averages: int, count: int) -> list[tuple[int, int]]:
    rng = np.random.default_rng([seed, 99])
    picks = rng.choice(medians * averages, size=min(count, medians * averages), replace=False)
    return [(int(p) // averages, int(p) % averages) for p in sorted(picks)]


def _se_check(ledger: Ledger, op: str, estimate: Any, exact: float, se: float) -> None:
    if estimate is None:
        return
    value = float(estimate.value)
    slack = SE_LIMIT * se + 1e-9 * max(1.0, abs(exact))
    if se > 0:
        ledger.worst_se[op] = max(ledger.worst_se[op], abs(value - exact) / se)
    ledger.check(
        op,
        abs(value - exact) <= slack,
        f"estimate {value:.6g} vs exact {exact:.6g} (5 SE = {SE_LIMIT * se:.6g})",
    )


def _wal_scan(directory: str, seen: dict[str, int]) -> None:
    """Remember the largest size each WAL segment file reached."""
    for root, _dirs, files in os.walk(directory):
        for name in files:
            if name.startswith("wal-") and name.endswith(".seg"):
                path = os.path.join(root, name)
                seen[path] = max(seen.get(path, 0), os.path.getsize(path))


class Workload:
    """Shared skeleton: set-up, rounds, finish, and the metrics they yield."""

    name = ""
    workload_id = 0

    def __init__(
        self,
        seed: int,
        size: Size,
        workdir: str,
        faults: frozenset[str] = frozenset(),
        tracer: Tracer | None = None,
    ) -> None:
        self.seed = seed
        self.size = size
        self.workdir = workdir
        self.faults = faults
        self.tracer = tracer
        self.ledger = Ledger(tracer)
        self.inputs = Inputs(seed, self.workload_id, self._bits())
        self.cells = _sample_cells(seed, size.medians, size.averages, size.sampled_counters)
        self.events = 0
        self.intervals = 0
        self.ingest_seconds = 0.0
        self.queries = 0
        self.checkpoints = 0
        self.replayed = 0
        self.recover_seconds: list[float] = []
        self.wal_sizes: dict[str, int] = {}
        self.setup_count = 0
        self.dropped = False
        self.hh_true = 0
        self.hh_reported = 0
        self.round_work: list[list[float]] = []  # per round: [events, ingest seconds]

    def _bits(self) -> int:
        return self.size.domain_bits

    def _dir(self, label: str) -> str:
        path = os.path.join(self.workdir, f"{self.name}-{label}-{self.setup_count}")
        shutil.rmtree(path, ignore_errors=True)
        return path

    # -- timed ingestion helpers ------------------------------------------------

    def ingest(self, op: str, fn: Callable[..., Any], *args: Any, events: int, intervals: int = 0) -> bool:
        before = len(self.ledger.failures)
        self.ledger.call(op, fn, *args)
        if len(self.ledger.failures) != before:
            return False
        self.ingest_seconds += self.ledger.last
        self.events += events
        self.intervals += intervals
        return True

    def reference_skips(self) -> bool:
        """True once, for the ingest the ``drop_batch`` fault hides."""
        if "drop_batch" in self.faults and not self.dropped:
            self.dropped = True
            return True
        return False

    def query(self, op: str, fn: Callable[..., Any], *args: Any) -> Any:
        self.queries += 1
        return self.ledger.call(op, fn, *args)

    def check_counters(self, op: str, sketch: Any, frequencies: np.ndarray) -> None:
        """Sampled counters must equal the reference dot product exactly."""
        if sketch is None:
            self.ledger.verify(op, False, "no sketch to check")
            return
        for row, col in self.cells:
            generator = sketch.scheme.channels[row][col].generator
            s1 = generator.s1 ^ (1 if "flip_seed" in self.faults else 0)
            expected = ref.counter_value(frequencies, generator.s0, s1, self._bits())
            value = sketch.cells[row][col].value
            if "corrupt_counter" in self.faults and (row, col) == self.cells[0]:
                value += 1.0
            self.ledger.verify(
                op, value == expected, f"counter {row},{col}: {value!r} != {expected!r}"
            )

    # -- checked queries ---------------------------------------------------

    def check_join(self) -> None:
        from repro.query.types import JoinSizeQuery

        r, s = self.ref["r"].dense(), self.ref["s"].dense()
        estimate = self.query("join_query", self.target.query, JoinSizeQuery("r", "s"))
        _se_check(self.ledger, "join_query", estimate, float(np.dot(r, s)),
                  ref.predicted_se(r, s, self.size.averages))

    def check_range(self, name: str, low: int, high: int) -> None:
        from repro.query.types import RangeSumQuery

        freq = self.ref[name].dense()
        estimate = self.query("range_query", self.target.query, RangeSumQuery(name, low, high))
        window = freq[low:high + 1]
        exact = float(window.sum())
        f2 = float(np.dot(freq, freq))
        length = high - low + 1
        variance = f2 * length + exact**2 - 2.0 * float(np.dot(window, window))
        _se_check(self.ledger, "range_query", estimate, exact,
                  math.sqrt(max(variance, 0.0) / self.size.averages))

    def check_point(self, name: str, item: int) -> None:
        from repro.query.types import PointQuery

        freq = self.ref[name].dense()
        estimate = self.query("point_query", self.target.query, PointQuery(name, item))
        exact = float(freq[item])
        f2 = float(np.dot(freq, freq))
        _se_check(self.ledger, "point_query", estimate, exact,
                  math.sqrt(max(f2 - exact * exact, 0.0) / self.size.averages))

    def check_f2(self, name: str) -> None:
        from repro.query.types import F2Query

        freq = self.ref[name].dense()
        estimate = self.query("f2_query", self.target.query, F2Query(name))
        _se_check(self.ledger, "f2_query", estimate, float(np.dot(freq, freq)),
                  ref.predicted_se(freq, freq, self.size.averages))

    def batch_queries(self, index: int, group: int) -> None:
        """The queries after each batch group of ``batches`` and ``cluster``."""
        rng = self.inputs.rng(index, 100 + group)
        self.check_join()
        self.check_f2("r")
        self.check_point("r", self.warm_key())
        lows, highs = self.inputs.intervals(rng, 1, self.size.domain_bits - 2)
        self.check_range("s", int(lows[0]), int(highs[0]))

    def do_checkpoint(self) -> None:
        _wal_scan(self.directory, self.wal_sizes)
        self.ledger.call("checkpoint", self.target.checkpoint)
        self.checkpoints += 1

    # -- lifecycle ----------------------------------------------------------------

    def warm_key(self) -> int:
        """The key of the warm-up point every set-up ingests once per relation."""
        return int(self.inputs.key_of_rank(np.array([0]))[0])

    def setup(self) -> None:
        """Build the program objects, through the first update (timed)."""
        raise NotImplementedError

    def setup_reference(self) -> None:
        """Fresh reference state matching what :meth:`setup` ingested."""
        self.ref = {name: ref.FrequencyVector(self._bits()) for name in ("r", "s")}
        for vector in self.ref.values():
            vector.add_points(np.array([self.warm_key()]))

    def round(self, index: int, kill: bool) -> None:
        raise NotImplementedError

    def finish(self) -> None:
        raise NotImplementedError

    def close(self) -> None:
        raise NotImplementedError

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def events_per_s(self) -> float:
        """Median over rounds of events ingested per second of ingest calls."""
        return float(np.median([events / seconds for events, seconds in self.round_work]))

    def extra_metrics(self) -> dict[str, tuple[float, str]]:
        """Workload-specific end-to-end figures beyond the declared set."""
        out: dict[str, tuple[float, str]] = {}
        for op in ("point_ingest", "interval_ingest", "join_query", "range_query", "descent_query"):
            p50 = self.ledger.p50_ms(op)
            if p50 is not None and op != "interval_ingest":  # declared
                out[f"{op}_p50_ms"] = (p50, "ms")
            tail = self.ledger.tail_ms(op)
            if tail is not None:
                out[f"{op}_tail_ms"] = (tail[1], "ms")
                out[f"{op}_tail_pct"] = (tail[0], "%")
        for op, worst in self.ledger.worst_se.items():
            out[f"{op}_worst_error_se"] = (worst, "SE")
        if self.recover_seconds:
            out["recover_s"] = (float(np.median(self.recover_seconds)), "s")
        if self.wal_sizes and self.events:
            out["wal_bytes_per_event"] = (sum(self.wal_sizes.values()) / self.events, "B")
        return out


# -- records ---------------------------------------------------------------------


class _ProcessorWorkload(Workload):
    """A durable ``StreamProcessor`` over relations ``r`` and ``s``."""

    hierarchy = False

    def setup(self) -> None:
        from repro.stream.processor import StreamProcessor

        self.setup_count += 1
        self.directory = self._dir("proc")
        self.proc = StreamProcessor(
            medians=self.size.medians,
            averages=self.size.averages,
            seed=self.inputs.program_seed,
            durability=self.directory,
        )
        self.target = self.proc
        self.proc.register_relation("r", self.size.domain_bits)
        self.proc.register_relation("s", self.size.domain_bits)
        if self.hierarchy:
            self.proc.register_hierarchy("r")
        self.proc.register_join("r", "s")
        # The first update triggers the lazy set-up (packed planes).
        for name in ("r", "s"):
            self.proc.process_point(name, self.warm_key(), 1.0)

    def close(self) -> None:
        self.proc.close()
        shutil.rmtree(self.directory, ignore_errors=True)

    # -- finish: checkpoint, tail, final flush, recovery -------------------

    def tail_ingest(self, index: int) -> int:
        """Ingest one round's records without queries; returns the WAL records."""
        raise NotImplementedError

    def finish(self) -> None:
        from repro.stream.processor import StreamProcessor

        self.do_checkpoint()
        wal_records = 0
        for index in range(self.size.tail_rounds):
            wal_records += self.tail_ingest(10**6 + index)
        self.ledger.call("final_flush", self.proc.close)
        self.ingest_seconds += self.ledger.last
        _wal_scan(self.directory, self.wal_sizes)
        for name in ("r", "s"):
            self.check_counters("counter_check", self.proc.sketch_of(name), self.ref[name].dense())
        for _ in range(self.size.recovers):
            recovered = self.ledger.call("recover", StreamProcessor.recover, self.directory)
            if recovered is None:
                continue
            self.recover_seconds.append(self.ledger.last)
            self.replayed += wal_records
            for name in ("r", "s"):
                self.check_counters("counter_check", recovered.sketch_of(name), self.ref[name].dense())
            recovered.close()


class Records(_ProcessorWorkload):
    name = "records"
    workload_id = 1
    hierarchy = True
    #: Relation ``r`` carries the hierarchy; its records are the timed
    #: ``point_ingest`` / ``interval_ingest`` population.  Records into
    #: ``s`` (plain sketch, a different cost) are ``side_ingest``.
    ops = {"r": ("point_ingest", "interval_ingest"), "s": ("side_ingest", "side_ingest")}

    def _stream(self, index: int, segment: int) -> int:
        rng = self.inputs.rng(index, segment)
        size = self.size
        records = 0
        for name, bits in (("r", size.hier_interval_bits), ("s", size.interval_bits)):
            point_op, interval_op = self.ops[name]
            for key in self.inputs.zipf_keys(rng, size.record_points):
                key = int(key)
                if self.ingest(point_op, self.proc.process_point, name, key, 1.0, events=1):
                    if not self.reference_skips():
                        self.ref[name].add_points(np.array([key]))
            lows, highs = self.inputs.intervals(rng, size.record_intervals, bits)
            for low, high in zip(lows.tolist(), highs.tolist()):
                if self.ingest(interval_op, self.proc.process_interval, name, low, high, 1.0,
                               events=1, intervals=1):
                    self.ref[name].add_intervals(np.array([low]), np.array([high]))
            records += size.record_points + size.record_intervals
        return records

    def tail_ingest(self, index: int) -> int:
        return self._stream(index, 0)

    def round(self, index: int, kill: bool) -> None:
        for segment in range(self.size.segments_per_round):
            self._stream(index, segment)
            rng = self.inputs.rng(index, 100 + segment)
            self.check_join()
            for name in ("r", "s"):
                lows, highs = self.inputs.intervals(rng, 1, self.size.domain_bits - 2)
                self.check_range(name, int(lows[0]), int(highs[0]))
        self.check_heavy_hitters()
        self.check_quantile(float(self.inputs.rng(index, 200).uniform(0.1, 0.9)))

    def check_heavy_hitters(self) -> None:
        from repro.query.types import HeavyHittersQuery

        hierarchy = self.proc.hierarchy_of("r")
        envelopes = self.ledger.call("descent_query", hierarchy.predicted_envelopes, record=False)
        if envelopes is None:
            return
        spent = self.ledger.last
        freq = self.ref["r"].dense()
        bits = self.size.domain_bits
        slack = tuple(2.0 * e for e in envelopes)  # the documented 2x envelope
        # Keep the pruning bar positive on every level with >= 2^10 blocks,
        # so the descent cannot fan out over the whole domain.
        guard = 2.0 * max(slack[: max(1, bits - 9)])
        sigma0 = math.sqrt(float(np.dot(freq, freq)) / self.size.averages)
        threshold = ref.heavy_threshold(freq, max(guard, 1.0), 2.0 * sigma0)
        self.queries += 1
        hitters = self.ledger.call(
            "descent_query", self.proc.query, HeavyHittersQuery("r", threshold, slack),
            record=False, attempt=False,
        )
        if hitters is None:
            return
        self.ledger.latency["descent_query"].append(spent + self.ledger.last)
        reported = {h.item for h in hitters}
        true = {int(i) for i in np.flatnonzero(freq >= threshold)}
        self.hh_true += len(true)
        self.hh_reported += len(reported)
        missing = sorted(true - reported)
        self.ledger.check("descent_query", not missing,
                          f"missed true hitters {missing[:5]} at threshold {threshold}")

    def check_quantile(self, fraction: float) -> None:
        from repro.query.types import QuantileQuery

        estimate = self.query("quantile_query", self.proc.query, QuantileQuery("r", fraction))
        if estimate is None:
            return
        freq = self.ref["r"].dense()
        item = int(estimate.value)
        # Rank error of a dyadic descent: one block estimate per level plus
        # the total, each within SE_LIMIT standard errors.
        bound = 0.0
        level = freq
        for _ in range(self.size.domain_bits + 1):
            bound += math.sqrt(float(np.dot(level, level)) / self.size.averages)
            if level.size > 1:
                level = level.reshape(-1, 2).sum(axis=1)
        bound *= SE_LIMIT
        target = fraction * float(freq.sum())
        below = float(freq[:item].sum())
        upto = below + float(freq[item])
        self.ledger.check(
            "quantile_query",
            below <= target + bound and upto >= target - bound,
            f"quantile {fraction}: item {item} has rank [{below}, {upto}], target {target} +- {bound}",
        )

    def extra_metrics(self) -> dict[str, tuple[float, str]]:
        out = super().extra_metrics()
        p50 = self.ledger.p50_ms("quantile_query")
        if p50 is not None:
            out["quantile_query_p50_ms"] = (p50, "ms")
        descents = self.ledger.attempted.get("descent_query", 0)
        if descents:
            out["true_hitters_per_descent"] = (self.hh_true / descents, "count")
            out["reported_hitters_per_descent"] = (self.hh_reported / descents, "count")
        return out


class Batches(_ProcessorWorkload):
    name = "batches"
    workload_id = 2

    def _batch_group(self, index: int, group: int) -> int:
        rng = self.inputs.rng(index, group)
        size = self.size
        for name in ("r", "s"):
            keys = self.inputs.zipf_keys(rng, size.batch)
            if self.ingest("point_ingest", self.proc.process_points, name, keys, events=size.batch):
                if not self.reference_skips():
                    self.ref[name].add_points(keys)
            lows, highs = self.inputs.intervals(rng, size.batch, size.interval_bits)
            bounds = np.stack([lows, highs], axis=1)
            if self.ingest("interval_ingest", self.proc.process_intervals, name, bounds,
                           events=size.batch, intervals=size.batch):
                self.ref[name].add_intervals(lows, highs)
        return 4

    def tail_ingest(self, index: int) -> int:
        return self._batch_group(index, 0)

    def round(self, index: int, kill: bool) -> None:
        for group in range(self.size.batches_per_round):
            self._batch_group(index, group)
            self.batch_queries(index, group)
        self.do_checkpoint()


# -- cluster ---------------------------------------------------------------------


class _RecordingTransport:
    """The process transport, remembering each shard's live worker.

    The benchmark kills workers through it and reads their peak memory.
    Spawning happens with the tracer paused, so a restarted worker does not
    record spans of its own.
    """

    def __init__(self, tracer: Tracer | None) -> None:
        from repro.cluster.transport import ProcessTransport

        self._inner = ProcessTransport()
        self.links: dict[int, Any] = {}
        self.tracer = tracer

    def spawn(self, spec: Any) -> Any:
        active = self.tracer is not None and self.tracer.active
        if active:
            self.tracer.active = False
        try:
            link = self._inner.spawn(spec)
        finally:
            if active:
                self.tracer.active = True
        self.links[spec.shard_id] = link
        return link

    def peak_rss_mb(self) -> float:
        total = 0.0
        for link in self.links.values():
            try:
                with open(f"/proc/{link.process.pid}/status") as handle:
                    for line in handle:
                        if line.startswith("VmHWM:"):
                            total += int(line.split()[1]) / 1024.0
            except OSError:
                continue
        return total


class Cluster(Workload):
    name = "cluster"
    workload_id = 3
    shards = 2

    def setup(self) -> None:
        from repro.cluster.coordinator import ClusterProcessor

        self.setup_count += 1
        self.directory = self._dir("cluster")
        self.transport = _RecordingTransport(self.tracer)
        self.cluster = ClusterProcessor(
            self.directory,
            shards=self.shards,
            medians=self.size.medians,
            averages=self.size.averages,
            seed=self.inputs.program_seed,
            transport=self.transport,
        )
        self.target = self.cluster
        self.cluster.register_relation("r", self.size.domain_bits)
        self.cluster.register_relation("s", self.size.domain_bits)
        for name in ("r", "s"):
            self.cluster.ingest_points(name, [self.warm_key()])
        self.cluster.flush()
        self.kill_count = 0

    def close(self) -> None:
        self.cluster.close()
        shutil.rmtree(self.directory, ignore_errors=True)

    def _batch_group(self, index: int, group: int) -> None:
        rng = self.inputs.rng(index, group)
        size = self.size
        for name in ("r", "s"):
            keys = self.inputs.zipf_keys(rng, size.batch)
            if self.ingest("point_ingest", self.cluster.ingest_points, name, keys, events=size.batch):
                if not self.reference_skips():
                    self.ref[name].add_points(keys)
            lows, highs = self.inputs.intervals(rng, size.batch, size.interval_bits)
            bounds = np.stack([lows, highs], axis=1)
            if self.ingest("interval_ingest", self.cluster.ingest_intervals, name, bounds,
                           events=size.batch, intervals=size.batch):
                self.ref[name].add_intervals(lows, highs)
        # Posting is pipelined: the batches are ingested once the shards
        # acknowledge them, so the drain counts as ingest time too.
        self.ingest("flush", self.cluster.flush, events=0)

    def _kill_and_heal(self) -> None:
        """SIGKILL one worker, then let ``supervise()`` bring it back."""
        shard = self.kill_count % self.shards
        self.kill_count += 1
        link = self.transport.links[shard]

        def kill_and_supervise() -> None:
            os.kill(link.process.pid, signal.SIGKILL)
            link.process.join(10.0)
            self.cluster.supervise()

        self.ledger.call("recover", kill_and_supervise)
        if self.transport.links[shard] is link:
            self.ledger.check("recover", False, f"shard {shard} was not restarted")
            return
        self.recover_seconds.append(self.ledger.last)
        state = self.cluster.stats()["shards"][f"shard-{shard}"]
        self.ledger.check("recover", state["alive"] and not state["failed"],
                          f"shard {shard} did not rejoin: {state}")

    def round(self, index: int, kill: bool) -> None:
        for group in range(self.size.batches_per_round):
            self._batch_group(index, group)
            if kill and group == 0:
                self._kill_and_heal()
            self.batch_queries(index, group)
        self.do_checkpoint()

    def finish(self) -> None:
        self.ledger.call("final_flush", self.cluster.flush)
        self.ingest_seconds += self.ledger.last
        _wal_scan(self.directory, self.wal_sizes)
        for name in ("r", "s"):
            merged = self.ledger.call("merge", self.cluster.merged_sketch, name, record=False)
            self.check_counters("counter_check", merged, self.ref[name].dense())
        self.rss_mb = self.peak_rss_mb_now()

    def peak_rss_mb_now(self) -> float:
        return super().peak_rss_mb() + self.transport.peak_rss_mb()

    def peak_rss_mb(self) -> float:
        return self.rss_mb


# -- rects -------------------------------------------------------------------------

_COMBOS = ((True, True), (True, False), (False, True), (False, False))


class Rects(Workload):
    name = "rects"
    workload_id = 4

    def _bits(self) -> int:
        return self.size.rect_bits

    def setup(self) -> None:
        from repro.generators.seeds import SeedSource
        from repro.rangesum.multidim import ProductGenerator
        from repro.sketch.ams import SketchScheme
        from repro.sketch.atomic import ProductChannel

        self.setup_count += 1
        bits = self.size.rect_bits
        self.scheme = SketchScheme.from_factory(
            lambda source: ProductChannel(ProductGenerator.eh3([bits, bits], source)),
            self.size.medians,
            self.size.averages,
            SeedSource(self.inputs.program_seed),
        )
        self.sketches: dict[str, dict] = {}
        # The first rectangle is the lazy set-up of the product channels.
        for name in ("a", "b"):
            self._sketch(name, self._warm())

    def _warm(self) -> np.ndarray:
        """One fixed rectangle: its range-sum cost, and so set-up time, must
        not depend on the seed."""
        high = (1 << self.size.rect_extent_bits) - 2
        return np.array([[[1, high], [1, high]]], dtype=np.int64)

    def setup_reference(self) -> None:
        side = 1 << self.size.rect_bits
        self.rects = {name: np.zeros((0, 2, 2), dtype=np.int64) for name in ("a", "b")}
        # float32 holds these integer coverage counts exactly (< 2^24).
        self.grids = {
            name: {combo: np.zeros((side, side), dtype=np.float32) for combo in _COMBOS}
            for name in ("a", "b")
        }
        for name in ("a", "b"):
            self._reference(name, self._warm())

    def close(self) -> None:
        pass

    def _sketch(self, name: str, rects: np.ndarray) -> None:
        from repro.apps.spatialjoin2d import RectDataset, sketch_rect_dataset

        bits = self.size.rect_bits
        fresh = sketch_rect_dataset(self.scheme, RectDataset(name, (bits, bits), rects))
        current = self.sketches.get(name)
        self.sketches[name] = (
            fresh if current is None
            else {combo: current[combo].combined(fresh[combo]) for combo in fresh}
        )

    def _reference(self, name: str, rects: np.ndarray) -> None:
        self.rects[name] = np.concatenate([self.rects[name], rects])
        bits = (self.size.rect_bits, self.size.rect_bits)
        for combo in _COMBOS:
            self.grids[name][combo] += ref.rect_role_vectors(rects, bits, combo)

    def round(self, index: int, kill: bool) -> None:
        rng = self.inputs.rng(index, 0)
        count = self.size.rects_per_batch
        for name in ("a", "b"):
            rects = self.inputs.rects(rng, count, self.size.rect_extent_bits)
            if self.ingest("interval_ingest", self._sketch, name, rects, events=count, intervals=count):
                if not self.reference_skips():
                    self._reference(name, rects)
            self.check_join()

    def check_join(self) -> None:
        from repro.apps.spatialjoin2d import estimate_rect_join

        estimate = self.query("join_query", estimate_rect_join, self.sketches["a"], self.sketches["b"])
        if estimate is None:
            return
        exact = ref.rect_reduction_truth(self.rects["a"], self.rects["b"])
        # The estimate averages the four combinations; its standard error is
        # at most the mean of theirs (4-wise bound without its negative term).
        se = 0.0
        for combo in _COMBOS:
            first = self.grids["a"][combo]
            second = self.grids["b"][tuple(not flag for flag in combo)]
            variance = float(np.vdot(first, first)) * float(np.vdot(second, second)) + float(
                np.vdot(first, second)
            ) ** 2  # float32 sums: an SE estimate, not an exact answer
            se += math.sqrt(variance / self.size.averages) / len(_COMBOS)
        value = float(estimate)
        self.ledger.worst_se["join_query"] = max(self.ledger.worst_se["join_query"], abs(value - exact) / se)
        self.ledger.check(
            "join_query",
            abs(value - exact) <= SE_LIMIT * se + 1e-9 * max(1.0, exact),
            f"rect join {value:.6g} vs {exact:.6g} (5 SE = {SE_LIMIT * se:.6g})",
        )

    def finish(self) -> None:
        bits = (self.size.rect_bits, self.size.rect_bits)
        for name in ("a", "b"):
            for combo in _COMBOS:
                sketch = self.sketches[name][combo]
                for row, col in self.cells:
                    factors = sketch.scheme.channels[row][col].generator.factors
                    seeds = tuple(
                        (f.s0, f.s1 ^ (1 if "flip_seed" in self.faults else 0)) for f in factors
                    )
                    expected = ref.rect_counter_value(self.rects[name], bits, combo, seeds)
                    value = sketch.cells[row][col].value
                    if "corrupt_counter" in self.faults and (row, col) == self.cells[0]:
                        value += 1.0
                    self.ledger.verify("counter_check", value == expected,
                                       f"{name}{combo} counter {row},{col}: {value} != {expected}")

    def extra_metrics(self) -> dict[str, tuple[float, str]]:
        out = super().extra_metrics()
        pairs = ref.rect_intersections(self.rects["a"], self.rects["b"])
        reduction = ref.rect_reduction_truth(self.rects["a"], self.rects["b"])
        out["rect_pairs_intersecting"] = (float(pairs), "count")
        out["rect_reduction_minus_pairs"] = (reduction - pairs, "count")
        return out


WORKLOADS: dict[str, type[Workload]] = {
    "records": Records,
    "batches": Batches,
    "cluster": Cluster,
    "rects": Rects,
}


@dataclass
class Outcome:
    workload: Workload
    setup_seconds: list[float]
    rounds: int
    wall_seconds: float


def execute(
    name: str,
    seed: int,
    seconds: float,
    workdir: str,
    size: Size = FULL,
    faults: frozenset[str] = frozenset(),
    tracer: Tracer | None = None,
    rounds: int | None = None,
) -> Outcome:
    """Run whole rounds for ``seconds`` (or exactly ``rounds``), then finish.

    Set-up is timed ``size.setups`` times before the rounds (the last
    instance is the one measured) and as often again after them, so one
    slow moment of the machine cannot move the median.  Kills (cluster)
    fall at fixed fractions of the run.
    """
    workload = WORKLOADS[name](seed, size, workdir, faults, tracer)
    setup_seconds = []

    def timed_setup() -> None:
        start = time.perf_counter()
        workload.setup()
        setup_seconds.append(time.perf_counter() - start)

    for count in range(size.setups):
        if count:
            workload.close()
        timed_setup()
    workload.setup_reference()
    kills = size.kills if name == "cluster" else 0
    start = time.perf_counter()
    index = 0
    killed = 0
    while True:
        if rounds is None:
            elapsed = time.perf_counter() - start
            if elapsed >= seconds and index > 0:
                break
            due = killed < kills and elapsed >= seconds * (killed + 1) / (kills + 1)
        else:
            if index >= rounds:
                break
            due = killed < kills and index >= rounds * (killed + 1) // (kills + 1)
        mark = (workload.events, workload.ingest_seconds)
        workload.round(index, due)
        workload.round_work.append(
            [workload.events - mark[0], workload.ingest_seconds - mark[1]]
        )
        killed += int(due)
        index += 1
    mark = (workload.events, workload.ingest_seconds)
    workload.finish()
    # The tail and the final flush count toward the last round's rate.
    workload.round_work[-1][0] += workload.events - mark[0]
    workload.round_work[-1][1] += workload.ingest_seconds - mark[1]
    wall = time.perf_counter() - start
    workload.close()
    for _ in range(size.setups):
        timed_setup()
        workload.close()
    return Outcome(workload, setup_seconds, index, wall)


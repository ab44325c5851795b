"""In-memory call spans around the public functions of every ddls layer.

A traced run installs one wrapper per entry of ``TARGETS`` on the module
or class attribute that callers resolve at call time (for example
``ddls.scheduler.build_program``, which ``RecedingHorizonScheduler.step``
looks up in its module globals).  Each call records a span: name, start,
end (``perf_counter_ns``), parent span and day id.  Nothing inside
``src/ddls`` changes, and ``Tracer.recording`` puts every original
attribute back on exit.

Every run is single-threaded, so spans nest strictly and no layer ever
waits on another: a span's time is either its own (self time) or its
children's.

``SteadyClock`` is the untraced run's lighter record on the same
targets: a bare timestamp at each call's entry and exit, and a speed
probe now and then, to time work at a fixed core speed.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
from array import array
from time import perf_counter_ns

import numpy as np


def _arrival_log_before(args, kwargs):
    return len(args[0].arrival_log)


def _arrival_log_after(before, args, kwargs, result):
    return len(args[0].arrival_log) - before


def _admitted(before, args, kwargs, result):
    return len(result)


# (module, class or None, attribute, span name, counter name, before, after).
# A span name may appear on several attributes when callers in different
# modules import the same function by name.
TARGETS = (
    ("ddls.scheduler", None, "lp_solve", "lp.solve", None, None, None),
    ("ddls.scheduler", None, "build_program", "scheduler.build_program", None, None, None),
    ("ddls.scheduler", None, "extract_plan", "scheduler.extract_plan", None, None, None),
    ("ddls.scheduler", None, "round_and_commit", "scheduler.round_and_commit", None, None, None),
    ("ddls.scheduler", "RecedingHorizonScheduler", "horizon_inputs",
     "scheduler.horizon_inputs", None, None, None),
    ("ddls.scheduler", "RecedingHorizonScheduler", "step", "scheduler.step", None, None, None),
    ("ddls.scheduler", None, "stage_cost", "market.stage_cost", None, None, None),
    ("ddls.simkit", None, "stage_cost", "market.stage_cost", None, None, None),
    ("ddls.queues", "QueueLedger", "record_arrivals", "queues.record_arrivals",
     "queues.arrival_log.entries", _arrival_log_before, _arrival_log_after),
    ("ddls.queues", "QueueLedger", "apply_departures", "queues.apply_departures",
     None, None, None),
    ("ddls.queues", "QueueLedger", "fifo_delays", "queues.fifo_delays", None, None, None),
    ("ddls.simkit", None, "dci", "queues.dci", None, None, None),
    ("ddls.simkit", None, "unscheduled_load", "core.unscheduled_load", None, None, None),
    ("ddls.simkit", None, "synthesize_load", "core.synthesize_load", None, None, None),
    ("ddls.core", None, "synthesize_load", "core.synthesize_load", None, None, None),
    ("ddls.codec", None, "quantize", "codec.quantize", None, None, None),
    ("ddls.simkit", None, "generate_arrival_counts", "simkit.generate_arrival_counts",
     None, None, None),
    ("ddls.simkit", None, "events_from_counts", "simkit.events_from_counts", None, None, None),
    ("ddls.simkit", None, "run_uncontrolled", "simkit.run_uncontrolled", None, None, None),
    ("ddls.simkit", None, "run_ddls", "simkit.run_ddls", None, None, None),
    ("ddls.simkit", None, "run_distributed", "simkit.run_distributed", None, None, None),
    ("ddls.simkit", None, "run_price_signal", "simkit.run_price", None, None, None),
    ("ddls.feedback", None, "encode_thresholds", "feedback.encode_thresholds",
     None, None, None),
    ("ddls.cli", None, "encode_thresholds", "feedback.encode_thresholds", None, None, None),
    ("ddls.feedback", None, "decode_and_admit", "feedback.decode_and_admit",
     "feedback.admitted", None, _admitted),
    ("ddls.cli", None, "_feedback_messages", "cli.feedback_messages", None, None, None),
    # the benchmark's writer of the `ddls run` CSVs, through the cli's own
    # feedback-message builder and the public writers
    ("harness", None, "export", "cli.export", None, None, None),
)


class Tracer:
    """Spans and counters of one traced run, kept in memory until the end.

    Spans are stored column-wise (parallel lists) to keep the per-call
    cost low; ``parents[i]`` is the index of the enclosing span, or -1.
    ``on_return`` maps a span name to a callable given each call's result.
    """

    def __init__(self, on_return=None):
        self.names: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self.days: list[int] = []
        self.counters: dict[tuple[str, int], int] = {}
        self.missing: list[str] = []
        self.day = -1
        self._stack: list[int] = []
        self._on_return = dict(on_return or {})

    def __len__(self) -> int:
        return len(self.names)

    def _wrap(self, fn, name, counter=None, before=None, after=None):
        tracer = self
        on_return = self._on_return.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(tracer.names)
            tracer.names.append(name)
            tracer.parents.append(tracer._stack[-1] if tracer._stack else -1)
            tracer.days.append(tracer.day)
            tracer.ends.append(0)
            state = before(args, kwargs) if before else None
            tracer._stack.append(index)
            tracer.starts.append(perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.ends[index] = perf_counter_ns()
                tracer._stack.pop()
            if after is not None:
                key = (counter, tracer.day)
                tracer.counters[key] = tracer.counters.get(key, 0) + after(
                    state, args, kwargs, result
                )
            if on_return is not None:
                on_return(result)
            return result

        return wrapper

    @contextlib.contextmanager
    def recording(self, day: int):
        """Wrap every target for the duration of the block; spans get ``day``."""
        self.day = day
        with patched(lambda fn, target: self._wrap(fn, *target[3:]), self.missing):
            yield self

    def self_times(self) -> list[int]:
        return self_times(self.starts, self.ends, self.parents)

    def write(self, path, header: dict) -> None:
        """One JSON header line, then one [name, start_ns, end_ns, parent,
        day] array per span."""
        with open(path, "w") as fh:
            fh.write(json.dumps(dict(header, fields=["name", "start_ns", "end_ns",
                                                      "parent", "day"])) + "\n")
            for row in zip(self.names, self.starts, self.ends, self.parents, self.days):
                fh.write(json.dumps(row) + "\n")


@contextlib.contextmanager
def patched(wrap, missing: list):
    """Put ``wrap(original, target)`` on every TARGETS attribute for the
    duration of the block, and every original back on exit.

    A target that does not exist is listed in ``missing``; the run is then
    incorrect, since its layer would read 0."""
    patches = []
    for target in TARGETS:
        module_name, class_name, attr = target[:3]
        owner = importlib.import_module(module_name)
        if class_name is not None:
            owner = getattr(owner, class_name, None)
        original = None if owner is None else owner.__dict__.get(attr)
        if original is None:
            label = f"{module_name}.{class_name + '.' if class_name else ''}{attr}"
            if label not in missing:
                missing.append(label)
            continue
        patches.append((owner, attr, original, wrap(original, target)))
    try:
        for owner, attr, _, wrapper in patches:
            setattr(owner, attr, wrapper)
        yield
    finally:
        for owner, attr, original, _ in reversed(patches):
            setattr(owner, attr, original)


# A speed probe runs at most this often, and each piece of work is scaled
# by the median of the last PROBE_MEDIAN probes before it (one probe hit
# by an interrupt then does not skew the pieces after it).
PROBE_EVERY_NS = 20_000_000
PROBE_MEDIAN = 3
# The probe's time on the benchmark machine's core in its fast mode
# (2-vCPU cloud guest, Python 3.11, numpy 2.4); see SteadyClock.
REFERENCE_NS = 180_000

_PROBE_MATRIX = np.linspace(0.5, 1.5, 3600).reshape(60, 60)
_PROBE_VECTOR = np.ones(60)


def probe_loop() -> float:
    """Fixed work whose time tracks the core's speed: an interpreter loop
    and small numpy products, as the program mixes them."""
    total = 0
    for i in range(1500):
        total += i * i % 7
    x = _PROBE_VECTOR
    for _ in range(20):
        x = _PROBE_MATRIX @ x
        x = x / x.sum()
    return total + float(x[0])


class SteadyClock:
    """Time of a stretch of work, corrected for the core's speed.

    The cores this benchmark runs on change speed by up to 2x for seconds
    at a time, with thread CPU time equal to wall time (nothing is
    descheduled; the core runs slower), so raw times of the same work
    spread with the share of a run the slow mode lasts.  The clock wraps
    every target like ``Tracer``, but records only a bare timestamp at
    each call's entry and exit.  At most every PROBE_EVERY_NS it first
    times ``probe_loop`` and leaves that time out of the timestamps.
    ``take()`` scales each piece between two timestamps by REFERENCE_NS
    over the probe time just before it (the median of the last
    PROBE_MEDIAN probes), so the stretch reads as it would on a core that
    runs ``probe_loop`` in REFERENCE_NS.  The probe does not catch every
    kind of slow-down: measured repeats of one day still differ by ~3%.
    """

    def __init__(self):
        self.stamps = array("q")
        self.probe_at = array("q")    # index of the stamp that follows each probe
        self.probe_ns = array("q")
        self.skipped = 0              # probe time taken out of the stamps
        self.due = 0
        self.missing: list[str] = []

    def stamp(self) -> None:
        now = perf_counter_ns()
        if now >= self.due:
            probe_loop()
            end = perf_counter_ns()
            self.probe_at.append(len(self.stamps))
            self.probe_ns.append(end - now)
            self.skipped += end - now
            self.due = end + PROBE_EVERY_NS
            now = end
        self.stamps.append(now - self.skipped)

    def _wrap(self, fn, target):
        stamp = self.stamp

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stamp()
            try:
                return fn(*args, **kwargs)
            finally:
                stamp()

        return wrapper

    @contextlib.contextmanager
    def recording(self):
        """Wrap every target for the duration of the block."""
        with patched(self._wrap, self.missing):
            yield self

    def take(self) -> dict:
        """Seconds since the first stamp, raw and at the reference speed,
        and the probes' median; then starts afresh."""
        out = steady(np.array(self.stamps, dtype=np.int64),
                     np.array(self.probe_at, dtype=np.int64),
                     np.array(self.probe_ns, dtype=np.int64))
        for column in (self.stamps, self.probe_at, self.probe_ns):
            del column[:]
        self.skipped = self.due = 0
        return out


def steady(stamps, probe_at, probe_ns) -> dict:
    """See ``SteadyClock.take``.  The probe recorded before stamp j fell
    in the piece that ends there, piece j - 1, and sets the speed from
    that piece on."""
    pieces = np.diff(stamps).astype(float)
    if not len(pieces):
        return {"raw_s": 0.0, "steady_s": 0.0, "probe_us": None, "probes": 0}
    probes = probe_ns.astype(float)
    smooth = np.array([np.median(probes[max(0, i - PROBE_MEDIAN + 1): i + 1])
                       for i in range(len(probes))])
    which = np.searchsorted(probe_at, np.arange(1, len(pieces) + 1), side="right") - 1
    speed = REFERENCE_NS / smooth[np.maximum(which, 0)]
    return {"raw_s": float(pieces.sum()) / 1e9,
            "steady_s": float((pieces * speed).sum()) / 1e9,
            "probe_us": float(np.median(probes)) / 1e3,
            "probes": len(probes)}


def self_times(starts, ends, parents) -> list[int]:
    """Each span's duration minus the part of it its children cover.

    Child intervals are clipped to the parent and merged, so overlapping
    children are not subtracted twice.
    """
    children: list[list[int]] = [[] for _ in starts]
    for index, parent in enumerate(parents):
        if parent >= 0:
            children[parent].append(index)
    out = []
    for index, kids in enumerate(children):
        lo, hi = starts[index], ends[index]
        covered = 0
        run_start = run_end = None
        for s, e in sorted((max(starts[k], lo), min(ends[k], hi)) for k in kids):
            if e <= s:
                continue
            if run_end is None or s > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = s, e
            else:
                run_end = max(run_end, e)
        if run_end is not None:
            covered += run_end - run_start
        out.append(hi - lo - covered)
    return out

"""Shared pieces of the system benchmark: paths, the public-name lookup,
statistics helpers, the closed-loop load generator, process bookkeeping.
"""

from __future__ import annotations

import importlib
import os
import platform
import shutil
import statistics
import sys
import tempfile
import threading
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO_ROOT = HERE.parent.parent
SRC = REPO_ROOT / "src"
#: Every file a run writes lives here (inside the checkout, git-ignored)
#: and is removed on every exit path.
WORK_ROOT = HERE / ".work"

SETUP_REPEATS = 3
ROOT_SPAN = "loadgen.op"


def add_src_to_path():
    """Make ``import repro`` work from a bare checkout (nothing installed)."""
    if not (SRC / "repro").is_dir():
        raise SystemExit(f"{SRC}/repro not found: the benchmark runs from a "
                         f"checkout of the repository")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


#: Where :func:`public` looks, in order. All but the last are packages
#: whose ``__init__`` exports the name; ``repro.datasets.porto`` is listed
#: because ``replay_stream`` has no package-level export yet.
PUBLIC_PACKAGES = ("repro", "repro.serving", "repro.streaming", "repro.core",
                   "repro.datasets", "repro.measures", "repro.datasets.porto")


def public(name):
    """A documented ``repro`` name, found by package-level export.

    The end-to-end run reaches the program only through this function and
    the ``repro serve`` command, so a refactor that moves modules but
    keeps the exports cannot break the benchmark.
    """
    for package in PUBLIC_PACKAGES:
        try:
            module = importlib.import_module(package)
        except ImportError:
            continue
        if hasattr(module, name):
            return getattr(module, name)
    raise LookupError(f"{name} is exported by none of {PUBLIC_PACKAGES}")


# ---------------------------------------------------------------- statistics


def percentile(values, q):
    """The q-th percentile (0-100) with linear interpolation.

    No samples read as 0.0: every workload also checks that each kind of
    operation it reports on completed at least once.
    """
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = (len(ordered) - 1) * q / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def slice_rate(end_times, weights, start, seconds, slices=5):
    """Median, over ``slices`` equal parts of the measured phase, of the
    weight completed per second in that part.

    Each part is timed from the last completion of the part before it to
    its own last completion, so the rate is exact for a closed loop and
    does not come in steps of one operation per slice width.
    """
    width = seconds / slices
    totals = [0.0] * slices
    last = [None] * slices
    for end, weight in sorted(zip(end_times, weights)):
        index = int((end - start) / width)
        if 0 <= index < slices:
            totals[index] += weight
            last[index] = end
    rates, previous = [], start
    for total, ended in zip(totals, last):
        if ended is None:
            rates.append(0.0)
            continue
        rates.append(total / (ended - previous))
        previous = ended
    return statistics.median(rates)


def quartile_spread(values):
    """``(median, q1, q3, (q3 - q1) / median)`` as the driver computes it."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else float("inf")


# ------------------------------------------------------------ load generator


@dataclass
class Sample:
    kind: str
    start: float
    end: float
    ok: bool
    weight: float = 1.0
    info: object = None


@dataclass
class LoadResult:
    samples: list
    start: float            # perf_counter at the start of the measured phase
    seconds: float          # length of the measured phase
    cpu_seconds: float      # CPU the benchmark process used during it
    unfinished: int         # clients that never returned from their last op
    errors: list = field(default_factory=list)

    def of(self, *kinds):
        return [s for s in self.samples if s.kind in kinds]

    @property
    def attempted(self):
        return len(self.samples) + self.unfinished

    @property
    def failed(self):
        return sum(1 for s in self.samples if not s.ok) + self.unfinished

    def latencies_ms(self, *kinds):
        return [(s.end - s.start) * 1000.0 for s in self.of(*kinds) if s.ok]

    def rate(self, *kinds, window=None):
        """Weight completed per second; ``window`` is ``(start, seconds)``
        when the kind only runs in part of the measured phase."""
        start, seconds = window or (self.start, self.seconds)
        done = [s for s in self.of(*kinds) if s.ok]
        return slice_rate([s.end for s in done], [s.weight for s in done],
                          start, seconds)


def closed_loop(op, clients, seconds, tracer, warmup_s=0.0, min_ops=0,
                grace_s=30.0, on_measure_start=None):
    """Drive ``op`` from ``clients`` threads, each waiting for its reply.

    ``op(client, seq, request_id)`` performs one operation and returns
    ``(kind, ok, weight, info)``, or ``None`` when that client has no
    input left. Operations that finish during the first ``warmup_s``
    seconds are dropped; the tracer, if any, records only after them.
    Each client stops at the deadline (and after ``min_ops`` operations);
    one that is still inside an operation ``grace_s`` later is counted as
    one failed attempt. ``on_measure_start`` runs when the warm-up ends
    (to snapshot the program's counters).
    """
    begin = time.perf_counter()
    measure_from = begin + warmup_s
    deadline = measure_from + seconds
    per_client = [[] for _ in range(clients)]
    errors = []

    def client_loop(client):
        seq = 0
        while True:
            now = time.perf_counter()
            if now >= deadline and seq >= min_ops:
                return
            request_id = f"{client}-{seq}"
            start = time.perf_counter()
            scope = (nullcontext() if tracer is None
                     else tracer.span(ROOT_SPAN, request_id=request_id))
            try:
                with scope:
                    outcome = op(client, seq, request_id)
            except Exception as exc:  # noqa: BLE001 - counted, then reported
                outcome = ("error", False, 1.0, None)
                if len(errors) < 5:
                    errors.append(f"{type(exc).__name__}: {exc}")
            end = time.perf_counter()
            if outcome is None:
                return
            seq += 1
            if end >= measure_from:
                per_client[client].append(Sample(outcome[0], start, end,
                                                 *outcome[1:]))

    threads = [threading.Thread(target=client_loop, args=(c,), daemon=True,
                                name=f"bench-client-{c}")
               for c in range(clients)]

    def begin_measuring():
        if on_measure_start is not None:
            on_measure_start()
        if tracer is not None:
            tracer.enabled = True
        return time.process_time()

    if warmup_s:
        for thread in threads:
            thread.start()
        time.sleep(max(0.0, measure_from - time.perf_counter()))
        cpu_before = begin_measuring()
    else:  # the very first operation is measured, and traced, too
        cpu_before = begin_measuring()
        for thread in threads:
            thread.start()
    for thread in threads:
        thread.join(max(0.0, deadline - time.perf_counter()) + grace_s)
    finished = time.perf_counter()
    if tracer is not None:
        tracer.enabled = False
    cpu_seconds = time.process_time() - cpu_before
    unfinished = sum(1 for thread in threads if thread.is_alive())
    samples = sorted((s for own in per_client for s in own),
                     key=lambda s: s.end)
    # A phase that ran out of input, or past its deadline to reach
    # ``min_ops``, is as long as it actually was.
    last = samples[-1].end if samples else finished
    measured = (seconds if not min_ops and last >= deadline
                else last - measure_from)
    return LoadResult(samples=samples, start=measure_from,
                      seconds=max(measured, 1e-9), cpu_seconds=cpu_seconds,
                      unfinished=unfinished, errors=errors)


# ------------------------------------------------------------------ processes


@contextmanager
def work_dir(prefix):
    """A scratch directory inside the checkout, removed on exit."""
    WORK_ROOT.mkdir(parents=True, exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix=f"{prefix}-", dir=WORK_ROOT))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()  # only when no other run is using it
        except OSError:
            pass


def peak_rss_mb(pids):
    """Sum of the peak resident set sizes (``VmHWM``) of live processes."""
    total_kb = 0
    for pid in pids:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    total_kb += int(line.split()[1])
                    break
    return total_kb / 1024.0


def env_fingerprint(seed):
    """What a number depends on besides the code: recorded in each report."""
    import numpy
    blas = "unknown"
    try:
        config = numpy.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError, AttributeError):
        pass
    commit = "unknown"
    head = REPO_ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref = (REPO_ROOT / ".git" / ref[5:]).read_text().strip()
        commit = ref
    except OSError:
        pass
    return {"commit": commit, "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "blas": blas, "seed": seed}


def derive_seed(seed, stream):
    """Independent generator seeds for one ``--seed``."""
    return seed * 1009 + stream


# --------------------------------------------------------------------- inputs


def porto(count, min_points, max_points, seed):
    """``count`` seeded Porto-like trajectories as a list."""
    config = public("PortoConfig")(num_trajectories=count,
                                   min_points=min_points,
                                   max_points=max_points)
    return list(public("generate_porto")(config, seed=seed))


def untrained_model(trajectories, seed, dim=32):
    """A ``MetricModel`` around a freshly initialised encoder.

    The serving and ingest workloads measure what the encoder costs, not
    what it learned, so they skip training: the grid and normaliser are
    fitted to ``trajectories`` exactly as ``NeuTraj.fit`` would, and the
    weights stay at their seeded initial values.
    """
    import numpy as np
    config = public("NeuTrajConfig")(measure="dtw", embedding_dim=dim,
                                     cell_size=400.0, seed=seed)
    dataset = public("TrajectoryDataset")(trajectories)
    grid = public("Grid").for_dataset(
        dataset, config.cell_size,
        margin=config.cell_size * max(config.bandwidth, 1))
    normalizer = public("CoordinateNormalizer").fit(trajectories)
    model = public("MetricModel")(config)
    model.encoder = public("TrajectoryEncoder")(
        grid, normalizer, config, np.random.default_rng(seed))
    model.alpha = 1.0
    return model

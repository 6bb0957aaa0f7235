"""In-process replay of the CLI commands, with a span around every layer call.

Each command is replayed serially through the public functions of
``trajfuse.io``, ``core``, ``fusion``, ``metrics`` and ``synth``, doing
what ``trajfuse.cli`` does minus argument parsing, dispatch and thread
pools.  Calls the package makes internally (``fuse_threshold`` calling
``fuse_weighted``, ``build_ledger`` calling ``ade``) are seen by
rebinding the module-level names the callers look up at call time, for
the duration of a traced replay only.  Spans stay in memory and are
written out once the run ends.
"""

from __future__ import annotations

import csv
import json
import os
import time
from collections import Counter
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass

from trajfuse import core, fusion, metrics, synth
from trajfuse import io as tio

COMMANDS = ("synth", "fuse", "flags", "eval", "overlap")
STRATEGIES = fusion.STRATEGIES
# Parsed the way the CLI parses its --k-list default.
K_LIST = tuple(float(k) for k in metrics.DEFAULT_K_LIST)

# (module, attribute, span name) rebound while a traced replay runs.
PATCHES = (
    (core, "select_most_likely", "core.select_most_likely"),
    (fusion, "select_most_likely", "core.select_most_likely"),
    (synth, "select_most_likely", "core.select_most_likely"),
    (metrics, "ade", "core.ade_fde"),
    (metrics, "fde", "core.ade_fde"),
    (synth, "ade", "core.ade_fde"),
    (synth, "fde", "core.ade_fde"),
    (fusion, "fuse_weighted", "fusion.fuse_weighted"),
    (fusion, "fuse_simple", "fusion.fuse_simple"),
    (fusion, "fuse_threshold", "fusion.fuse_threshold"),
    (synth, "fuse_weighted", "fusion.fuse_weighted"),
    (synth, "fuse_simple", "fusion.fuse_simple"),
    (synth, "fuse_threshold", "fusion.fuse_threshold"),
    (metrics, "build_ledger", "metrics.build_ledger"),
    (metrics, "summary_table", "metrics.summary_table"),
    (synth, "summary_table", "metrics.summary_table"),
    (metrics, "top_k_error", "metrics.top_k_error"),
    (metrics, "overlap_report", "metrics.overlap_report"),
    (synth, "scenario_at", "synth.scenario_at"),
    (synth, "run_predictor", "synth.run_predictor"),
)

# Layers reported as busy (self) seconds, and those also reported as call counts.
TIMED = (
    "io.json_decode", "io.load_predictions", "io.load_ground_truth", "io.load_fused",
    "io.write_predictions", "io.write_ground_truth", "io.write_fused", "io.write_report",
    "core.sample_assembly", "core.select_most_likely", "core.ade_fde",
    "fusion.fuse_weighted", "fusion.fuse_simple", "fusion.fuse_threshold",
    "metrics.build_ledger", "metrics.summary_table", "metrics.top_k_error",
    "metrics.overlap_report", "synth.scenario_at", "synth.run_predictor",
)
CALLED = (
    "core.select_most_likely", "core.ade_fde", "fusion.fuse_weighted", "fusion.fuse_simple",
    "fusion.fuse_threshold", "metrics.top_k_error", "synth.scenario_at", "synth.run_predictor",
)
COUNTED = (
    "io.load_predictions.records", "io.bytes_read", "io.bytes_written", "core.samples",
    "fusion.zero_conf_fallbacks", "fusion.flagged", "metrics.ledger_rows",
)


@dataclass(frozen=True)
class Job:
    """Inputs and output paths of one round of the five commands."""

    manifest: str
    predictions: tuple[str, ...]
    ground_truth: str
    primary: str
    floor: float
    samples: int
    horizon: int
    seed: int
    out: str

    def path(self, name: str) -> str:
        return os.path.join(self.out, name)


class Plain:
    """Replay without tracing: spans and counts are no-ops."""

    op = ""

    def span(self, name: str):
        return nullcontext()

    def count(self, name: str, n: int = 1) -> None:
        pass

    def sizes(self, name: str, *paths: str) -> None:
        pass


class Tracer(Plain):
    """Records spans as (name, start, end, parent index, op id) and named counts.

    A span's slot is reserved when it opens and filled with a tuple of
    scalars when it closes, so finished spans cost the garbage collector
    nothing.
    """

    def __init__(self) -> None:
        self.spans: list[tuple | None] = []
        self.counts: Counter = Counter()
        self._open: list[tuple] = []

    def _begin(self, name: str) -> None:
        parent = self._open[-1][0] if self._open else -1
        self.spans.append(None)
        self._open.append((len(self.spans) - 1, name, parent, time.perf_counter()))

    def _end(self) -> None:
        end = time.perf_counter()
        index, name, parent, start = self._open.pop()
        self.spans[index] = (name, start, end, parent, self.op)

    @contextmanager
    def span(self, name: str):
        self._begin(name)
        try:
            yield
        finally:
            self._end()

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] += n

    def sizes(self, name: str, *paths: str) -> None:
        self.counts[name] += sum(os.path.getsize(p) for p in paths)

    def wrap(self, name: str, fn):
        begin, end = self._begin, self._end

        def traced(*args, **kwargs):
            begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                end()
        return traced

    @contextmanager
    def installed(self):
        saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in PATCHES]
        try:
            for (mod, attr, name), (_, _, fn) in zip(PATCHES, saved):
                setattr(mod, attr, self.wrap(name, fn))
            yield self
        finally:
            for mod, attr, fn in saved:
                setattr(mod, attr, fn)

    def layer_metrics(self, first: int = 0) -> dict[str, float]:
        """Per-layer self seconds, call counts and counts, over spans[first:]."""
        spans = self.spans[first:]
        child = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= first:
                child[parent - first] += end - start
        busy: Counter = Counter()
        calls: Counter = Counter()
        for (name, start, end, _, _), inner in zip(spans, child):
            busy[name] += end - start - inner
            calls[name] += 1
        out = {f"{name}.s": busy[name] for name in TIMED}
        out.update({f"{name}.calls": calls[name] for name in CALLED})
        out.update({name: self.counts[name] for name in COUNTED})
        thresholds = calls["fusion.fuse_threshold"]
        out["fusion.threshold_passthrough.rate"] = (
            self.counts["fusion.threshold_passthrough"] / thresholds if thresholds else 0.0)
        return out

    def dump(self, path: str) -> None:
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"fields": ["name", "start", "end", "parent", "op"], "names": names,
                       "spans": [[index[n], a, b, p, op] for n, a, b, p, op in self.spans]}, f)


def _count_fused(tr: Plain, fused: list) -> None:
    tr.count("fusion.zero_conf_fallbacks", sum(1 for f in fused if f.notes))
    tr.count("fusion.threshold_passthrough", sum(1 for f in fused if f.strategy == "threshold"))


def _load_samples(tr: Plain, job: Job, with_truth: bool):
    manifest = tio.load_manifest(job.manifest)
    outputs = []
    with tr.span("io.load_predictions"):
        for path in job.predictions:
            outputs.extend(tio.load_predictions(path, manifest))
    tr.count("io.load_predictions.records", len(outputs))
    tr.sizes("io.bytes_read", job.manifest, *job.predictions)
    truth = None
    if with_truth:
        with tr.span("io.load_ground_truth"):
            truth = {r.sample_id: r.trajectory
                     for r in tio.load_ground_truth(job.ground_truth, manifest)}
        tr.sizes("io.bytes_read", job.ground_truth)
    with tr.span("core.sample_assembly"):
        by_sample: dict[str, dict] = {}
        for out in outputs:
            by_sample.setdefault(out.sample_id, {})[out.model_id] = out
        samples = [
            core.Sample(sid, truth[sid] if truth is not None else None,
                        tuple(per[m] for m in manifest.model_ids if m in per))
            for sid, per in sorted(by_sample.items())
        ]
    tr.count("core.samples", len(samples))
    return manifest, samples


def _member_trajectories(samples) -> dict[str, dict]:
    methods: dict[str, dict] = {}
    for sample in samples:
        for out in sample.outputs:
            methods.setdefault(out.model_id, {})[sample.sample_id] = (
                core.select_most_likely(out).trajectory)
    return methods


def _fuse_all(tr: Plain, samples, strategy: str, primary: str) -> list:
    if strategy == "threshold":
        fused = [fusion.fuse_threshold(s, primary, fusion.DEFAULT_TAU) for s in samples]
    elif strategy == "simple":
        fused = [fusion.fuse_simple(s) for s in samples]
    else:
        fused = [fusion.fuse_weighted(s) for s in samples]
    _count_fused(tr, fused)
    return fused


def _write(tr: Plain, layer: str, writer, path: str, *args, **kwargs) -> None:
    with tr.span(layer):
        writer(path, *args, **kwargs)
    tr.sizes("io.bytes_written", path)


def _check_scored(ledger, manifest) -> None:
    for method in ledger.method_ids():
        if ledger.sample_count(method) != manifest.sample_count:
            raise ValueError(f"{method} scored {ledger.sample_count(method)} samples, "
                             f"manifest has {manifest.sample_count}")


def replay_synth(tr: Plain, job: Job) -> None:
    base = synth.pinned_config()
    config = synth.ScenarioConfig(
        sample_count=job.samples, horizon=job.horizon, dt=base.dt, mix=base.mix,
        speed_range=base.speed_range, turn_rate_range=base.turn_rate_range,
        noise_sigma=base.noise_sigma, seed=job.seed)
    predictors = synth.pinned_predictors()
    truth, outputs = [], []
    fused: dict[str, list] = {s: [] for s in STRATEGIES}

    def hook(scenario, sample, by_strategy):
        truth.append(tio.GroundTruthRecord(scenario.sample_id, scenario.ground_truth))
        outputs.extend(sample.outputs)
        for strategy, pred in by_strategy.items():
            fused[strategy].append(pred)

    result = synth.synth_experiment(
        config, predictors, strategies=STRATEGIES, primary_model=synth.PINNED_PRIMARY,
        tau=fusion.DEFAULT_TAU, k_list=K_LIST, sample_hook=hook, threads=1)
    tr.count("metrics.ledger_rows", len(result.ledger))
    for preds in fused.values():
        _count_fused(tr, preds)
    out = job.path("synth")
    os.makedirs(out, exist_ok=True)
    manifest = tio.DatasetManifest("synth", config.horizon, config.dt,
                                   tuple(p.name for p in predictors), config.sample_count)
    _write(tr, "io.write_manifest", tio.write_manifest, os.path.join(out, "manifest.json"),
           manifest)
    _write(tr, "io.write_predictions", tio.write_predictions,
           os.path.join(out, "predictions.ndjson"), outputs)
    _write(tr, "io.write_ground_truth", tio.write_ground_truth,
           os.path.join(out, "ground_truth.ndjson"), truth)
    for strategy in STRATEGIES:
        _write(tr, "io.write_fused", tio.write_fused,
               os.path.join(out, f"fused_{strategy}.ndjson"), fused[strategy])
    _write(tr, "io.write_report", tio.write_report, os.path.join(out, "summary.csv"),
           result.summary, "csv", k_list=K_LIST)
    sets = {name: metrics.top_k_error(result.ledger, name, "ade",
                                      metrics.DEFAULT_OVERLAP_K).sample_ids
            for name in result.predictor_names}
    _write(tr, "io.write_report", tio.write_report, os.path.join(out, "overlap.csv"),
           metrics.overlap_report(sets), "csv")


def replay_fuse(tr: Plain, job: Job) -> None:
    _, samples = _load_samples(tr, job, with_truth=False)
    fused = _fuse_all(tr, samples, "weighted", job.primary)
    _write(tr, "io.write_fused", tio.write_fused, job.path("fused.ndjson"), fused)


def replay_flags(tr: Plain, job: Job) -> None:
    path = job.path("fused.ndjson")
    with tr.span("io.load_fused"):
        fused = list(tio.load_fused(path))
    tr.sizes("io.bytes_read", path)
    flagged = sorted((p.sample_id, p.confidence) for p in fused
                     if fusion.flag_low_confidence(p, job.floor))
    tr.count("fusion.flagged", len(flagged))
    with open(job.path("flags.csv"), "w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["sample_id", "confidence"])
        for sid, conf in flagged:
            writer.writerow([sid, repr(conf)])
    tr.sizes("io.bytes_written", job.path("flags.csv"))


def replay_eval(tr: Plain, job: Job) -> None:
    manifest, samples = _load_samples(tr, job, with_truth=True)
    methods = _member_trajectories(samples)
    for strategy in STRATEGIES:
        fused = _fuse_all(tr, samples, strategy, job.primary)
        methods[metrics.ensemble_method_id(strategy)] = {f.sample_id: f.trajectory
                                                         for f in fused}
    ledger = metrics.build_ledger(samples, methods)
    tr.count("metrics.ledger_rows", len(ledger))
    _check_scored(ledger, manifest)
    rows = metrics.summary_table(ledger, K_LIST)
    _write(tr, "io.write_report", tio.write_report, job.path("summary.csv"), rows, "csv",
           k_list=K_LIST)


def replay_overlap(tr: Plain, job: Job) -> None:
    manifest, samples = _load_samples(tr, job, with_truth=True)
    ledger = metrics.build_ledger(samples, _member_trajectories(samples))
    tr.count("metrics.ledger_rows", len(ledger))
    _check_scored(ledger, manifest)
    sets = {m: metrics.top_k_error(ledger, m, "ade", metrics.DEFAULT_OVERLAP_K).sample_ids
            for m in ledger.method_ids()}
    _write(tr, "io.write_report", tio.write_report, job.path("overlap.csv"),
           metrics.overlap_report(sets), "csv")


REPLAYS = {"synth": replay_synth, "fuse": replay_fuse, "flags": replay_flags,
           "eval": replay_eval, "overlap": replay_overlap}


def decode_floor(tr: Tracer, job: Job) -> None:
    """json.loads of every predictions line: the floor under io.load_predictions."""
    with tr.span("io.json_decode"):
        for path in job.predictions:
            with open(path, encoding="utf-8") as f:
                for line in f:
                    json.loads(line)


def replay(tr: Plain, job: Job, op_prefix: str) -> dict[str, float]:
    """Run every command once in-process; return each command's wall seconds.

    A traced replay also runs the decode floor before each command that
    loads predictions, outside that command's span.
    """
    seconds = {}
    for cmd in COMMANDS:
        tr.op = f"{op_prefix}{cmd}"
        if isinstance(tr, Tracer) and cmd in ("fuse", "eval", "overlap"):
            decode_floor(tr, job)
        start = time.perf_counter()
        with tr.span(f"cli.{cmd}"):
            REPLAYS[cmd](tr, job)
        seconds[cmd] = time.perf_counter() - start
    return seconds

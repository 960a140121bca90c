"""Spans and counters recorded around calls into the ``repro`` layers.

The benchmark's traced run wraps public functions and methods of each
layer (data generation, table design, codec, training, inference,
runtime dispatch, experiments and their store) from the benchmark's
side: the package itself is not modified.  A span records its name,
start, end and the span that was open when it began.  A layer's self
time is its spans' duration minus the part their child spans cover, so
the per-layer times add up to the traced wall time.

Spans are kept for one thread of one process: work inside pool worker
processes is seen only as the parent's ``runtime.map`` span.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from collections import Counter, defaultdict


class Tracer:
    """An in-memory span and counter registry, off until ``enabled``."""

    def __init__(self) -> None:
        self.enabled = False
        # Each span is [name, start, end, parent index or None].
        self.spans: "list[list]" = []
        self.counters: Counter = Counter()
        # Indices of the open spans, innermost last.
        self._open: "list[int]" = []

    def innermost(self):
        """Name of the innermost open span, or ``None``."""
        return self.spans[self._open[-1]][0] if self._open else None

    @contextlib.contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        parent = self._open[-1] if self._open else None
        record = [name, time.perf_counter(), None, parent]
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._open.pop()

    def count(self, name: str, amount=1) -> None:
        if self.enabled:
            self.counters[name] += amount

    def checkpoint(self) -> tuple:
        """What :meth:`restore` rolls back to; call with no span open."""
        return len(self.spans), Counter(self.counters)

    def restore(self, checkpoint: tuple) -> None:
        """Drop every span and count recorded since ``checkpoint``."""
        count, counters = checkpoint
        del self.spans[count:]
        self.counters = counters

    def self_seconds(self) -> "dict[str, float]":
        """Self time per span name over every closed span."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent is not None and end is not None:
                covered[parent] += end - start
        totals: "dict[str, float]" = defaultdict(float)
        for index, (name, start, end, _) in enumerate(self.spans):
            if end is not None:
                totals[name] += (end - start) - covered[index]
        return dict(totals)


def traced(tracer: Tracer, name, function, after=None):
    """``function`` wrapped in a span; ``name`` may be a callable of the args.

    A call made while a span of the same name is innermost (a public
    method delegating to another wrapped one) is not a new span, so each
    layer's counters count outermost calls.  ``after(args, kwargs,
    result)`` updates counters once the call returned.
    """

    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        if not tracer.enabled:
            return function(*args, **kwargs)
        span_name = name(*args, **kwargs) if callable(name) else name
        if tracer.innermost() == span_name:
            return function(*args, **kwargs)
        with tracer.span(span_name):
            result = function(*args, **kwargs)
        if after is not None:
            after(args, kwargs, result)
        return result

    return wrapper


def _replace_everywhere(original, wrapper) -> None:
    """Rebind every ``repro`` module attribute holding ``original``.

    Modules that did ``from x import f`` hold their own reference, so
    patching only the defining module would miss those call sites.
    """
    for module_name, module in list(sys.modules.items()):
        if module is None or not module_name.startswith("repro"):
            continue
        for attribute, value in list(vars(module).items()):
            if value is original:
                setattr(module, attribute, wrapper)


def instrument(tracer: Tracer) -> None:
    """Wrap the public entry points of every layer the benchmark reports."""
    from repro.analysis import frequency
    from repro.core import baselines
    from repro.core.pipeline import DeepNJpeg
    from repro.data import synthetic
    from repro.experiments import api
    from repro.experiments.store import ArtifactStore
    from repro.jpeg import container
    from repro.jpeg.codec import ColorJpegCodec, GrayscaleJpegCodec
    from repro.nn.base import Sequential
    from repro.nn.trainer import Trainer
    from repro.runtime import executor
    from repro.runtime.supervision import TaskFailure

    def patch_function(module, attribute, name, after=None):
        original = getattr(module, attribute)
        _replace_everywhere(
            original, traced(tracer, name, original, after)
        )

    def patch_method(cls, attribute, name, after=None):
        setattr(
            cls, attribute,
            traced(tracer, name, getattr(cls, attribute), after),
        )

    def argument(args, kwargs, position, keyword):
        return kwargs[keyword] if keyword in kwargs else args[position]

    # repro.data
    patch_function(
        synthetic, "generate_freqnet", "data.generate",
        lambda args, kwargs, result: tracer.count("data.images", len(result)),
    )

    # repro.core + repro.analysis: Algorithm 1 and the table design, then
    # the dataset compression every figure and the edge setup go through.
    for attribute in ("fit", "fit_statistics"):
        patch_method(DeepNJpeg, attribute, "core.fit")
    patch_function(frequency, "analyze_dataset", "core.fit")

    def compressed(args, kwargs, result):
        tracer.count("core.images_compressed", len(result.dataset))
        tracer.count("core.bytes_out", int(result.total_bytes))

    # Every compress_dataset method delegates to this shared path.
    patch_function(
        baselines, "compress_dataset_with_table", "core.compress", compressed
    )

    # repro.jpeg
    def count(name):
        return lambda args, kwargs, result: tracer.count(name)

    for cls in (GrayscaleJpegCodec, ColorJpegCodec):
        for attribute in ("encode", "encode_to_bytes", "compress",
                          "compress_batch"):
            patch_method(cls, attribute, "jpeg.encode", count("jpeg.encode_calls"))
        patch_method(cls, "decode", "jpeg.decode", count("jpeg.decode_calls"))
    patch_method(
        GrayscaleJpegCodec, "decode_batch", "jpeg.decode",
        count("jpeg.decode_calls"),
    )
    patch_function(
        container, "decode_image_bytes", "jpeg.decode",
        count("jpeg.decode_calls"),
    )

    # repro.nn
    def trained(args, kwargs, result):
        images = argument(args, kwargs, 1, "images")
        epochs = len(result.train_loss)
        tracer.count("nn.train_epochs", epochs)
        tracer.count("nn.train_samples", len(images) * epochs)

    patch_method(Trainer, "fit", "nn.train", trained)
    patch_method(
        Sequential, "predict_proba", "nn.predict", count("nn.predict_calls")
    )

    # repro.runtime (parent side)
    def mapped(dispatched):
        def after(args, kwargs, result):
            tracer.count("runtime.map_calls")
            tracer.count("runtime.tasks", dispatched(args, kwargs, result))
            tracer.count(
                "runtime.failures",
                sum(1 for value in result if isinstance(value, TaskFailure)),
            )
        return after

    patch_function(
        executor, "map_tasks", "runtime.map",
        mapped(lambda args, kwargs, result: len(result)),
    )
    patch_function(
        executor, "map_tasks_resumable", "runtime.map",
        mapped(lambda args, kwargs, result: sum(
            1 for value in argument(args, kwargs, 2, "cached")
            if value is executor.CACHE_MISS
        )),
    )

    # repro.experiments: one span per figure, store reads and writes apart.
    patch_function(
        api, "run_experiment",
        lambda experiment, *args, **kwargs: f"experiments.{experiment.name}",
    )

    def looked_up(args, kwargs, result):
        tracer.count("experiments.store_gets")
        tracer.count("experiments.store_hits", int(result is not None))

    patch_method(ArtifactStore, "get", "experiments.store_get", looked_up)
    patch_method(
        ArtifactStore, "put", "experiments.store_put",
        count("experiments.store_puts"),
    )

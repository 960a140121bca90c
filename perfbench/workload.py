"""One benchmark process: set a workload up, warm it, time it, check it.

``run.py`` starts this file in fresh interpreters; run it through
``run.py`` rather than directly.  Modes:

* ``import`` — import the package, print the numpy and BLAS versions,
  exit (warms bytecode and the page cache);
* ``setup``  — import and set up, print ``{"setup_s": ...}``, exit;
* ``run``    — set up, run the discarded warm-up, then the timed phase,
  check every op and print the measurements as one JSON line.  With
  ``--trace 1`` a short probe runs untraced and traced first, for the
  tracing overhead, and the timed phase is traced;
* ``record`` — print the paper-tiny result digests, the reference the
  paper-tiny check compares against (written to ``golden/``).

``--t0`` is the parent's ``time.monotonic()`` just before it started
this interpreter.  The monotonic clock is system-wide, so the set-up
time includes interpreter start-up.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN_PATH = os.path.join(HERE, "golden", "paper-tiny.json")
#: The registered figure experiments, in the order the paper shows them.
FIGURES = ("fig2", "fig3", "fig5", "fig6", "fig7", "fig8", "fig9")


def figure_order(seed: int) -> "list[str]":
    """The seven figures in the order this seed runs them."""
    import numpy as np

    return [FIGURES[i] for i in np.random.default_rng(seed).permutation(7)]


def result_digest(result) -> str:
    """SHA-256 of a figure result's canonical JSON (every field, exactly)."""
    payload = (
        dataclasses.asdict(result) if dataclasses.is_dataclass(result)
        else result.rows()
    )
    text = json.dumps(
        payload, sort_keys=True, separators=(",", ":"),
        default=lambda value: value.tolist(),
    )
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def run_figures(config, order, workdir: str) -> dict:
    """Run the figures in ``order``, each into a fresh store under ``workdir``."""
    from repro.experiments import ArtifactStore, api

    return {
        name: api.run_experiment(
            api.build_experiment(name), config,
            store=ArtifactStore(tempfile.mkdtemp(dir=workdir)),
        )
        for name in order
    }


def fig7_quality(result) -> dict:
    """The quality triple of the DeepN-JPEG row of a Fig. 7 result."""
    entry = result.entry("DeepN-JPEG")
    return {
        "bytes_per_image": entry.bytes_per_image,
        "compression_rate": entry.compression_ratio,
        "top1_accuracy": entry.accuracy,
    }


def empty_dir(path: str) -> None:
    for name in os.listdir(path):
        shutil.rmtree(os.path.join(path, name))


class PaperTiny:
    """All seven figures at ``ExperimentConfig.tiny()``, ``workers=1``.

    One op regenerates the paper, each figure into a fresh store, in a
    seed-drawn order.  Every figure must reproduce the digest recorded
    for it (``workload.py record``).
    """

    def __init__(self, seed: int, workdir: str) -> None:
        self.order = figure_order(seed)
        self.workdir = workdir

    def setup(self) -> None:
        from repro.experiments import ExperimentConfig

        self.config = ExperimentConfig.tiny()

    def prepare(self) -> None:
        from repro.experiments import ExperimentConfig

        with open(GOLDEN_PATH, "r", encoding="utf-8") as handle:
            self.golden = json.load(handle)
        self.micro = ExperimentConfig.micro()
        self.probe()

    def probe(self) -> None:
        """The warm-up, also the tracing-overhead probe: micro scale."""
        run_figures(self.micro, self.order, self.workdir)
        empty_dir(self.workdir)

    def op(self):
        return run_figures(self.config, self.order, self.workdir)

    def check(self, output) -> bool:
        empty_dir(self.workdir)
        self.last = output
        return all(
            result_digest(output[name]) == self.golden[name]
            for name in FIGURES
        )

    def quality(self) -> dict:
        return fig7_quality(self.last["fig7"])


class EdgeStream:
    """The IoT deployment: compress on the device, classify in the cloud.

    Set-up fits DeepN-JPEG on the training split, ships it through a
    saved artifact, and trains the cloud classifier on compressed data.
    One op takes one test image through ``encode_to_bytes`` →
    ``decode_image_bytes`` → single-image ``predict_proba``.
    """

    def __init__(self, seed: int, workdir: str) -> None:
        self.seed = seed
        self.workdir = workdir

    def setup(self) -> None:
        import numpy as np

        from repro.core import DeepNJpeg
        from repro.data.transforms import prepare_for_network
        from repro.experiments import (
            ExperimentConfig,
            make_splits,
            train_classifier,
        )
        from repro.jpeg import decode_image_bytes

        config = ExperimentConfig.tiny()
        train, self.test = make_splits(config)
        path = os.path.join(self.workdir, "deepn-jpeg.json")
        DeepNJpeg().fit(train).save(path)
        self.pipeline = DeepNJpeg.load(path)
        self.model = train_classifier(
            self.pipeline.compress_dataset(train), config
        ).model
        self.order = np.random.default_rng(self.seed).permutation(
            len(self.test)
        )
        self.decode_image_bytes = decode_image_bytes
        self.prepare_for_network = prepare_for_network
        self.index = 0

    def prepare(self) -> None:
        import numpy as np

        from repro.core import JpegCompressor

        images = self.test.images
        self.reference = [
            self.pipeline.compress(image).reconstructed for image in images
        ]
        # The warm-up is one pass over the test set in stream order; it
        # also fixes each image's container size and predicted label.
        self.sizes = [0] * len(images)
        self.labels = [0] * len(images)
        for _ in range(len(images)):
            image_index, blob, _, proba = self.op()
            self.sizes[image_index] = len(blob)
            self.labels[image_index] = int(np.argmax(proba))
        original = JpegCompressor(100)
        self.original_bytes = sum(
            len(original.codec_for(image).encode_to_bytes(image))
            for image in images
        )

    def op(self):
        image_index = int(self.order[self.index % len(self.order)])
        self.index += 1
        blob = self.pipeline.encode_to_bytes(self.test.images[image_index])
        decoded = self.decode_image_bytes(blob)
        proba = self.model.predict_proba(
            self.prepare_for_network(decoded[None], dtype=self.model.dtype)
        )
        return image_index, blob, decoded, proba

    def check(self, output) -> bool:
        image_index, blob, decoded, proba = output
        expected = self.reference[image_index]
        return (
            decoded.dtype == expected.dtype
            and decoded.shape == expected.shape
            and decoded.tobytes() == expected.tobytes()
            and len(blob) == self.sizes[image_index]
            and int(proba.argmax()) == self.labels[image_index]
        )

    def quality(self) -> dict:
        correct = sum(
            int(label == truth)
            for label, truth in zip(self.labels, self.test.labels)
        )
        return {
            "bytes_per_image": sum(self.sizes) / len(self.sizes),
            "compression_rate": self.original_bytes / sum(self.sizes),
            "top1_accuracy": correct / len(self.labels),
        }


WORKLOADS = {
    "paper-tiny": PaperTiny,
    "edge-stream": EdgeStream,
}


#: Ops per chunk of the timed phase.  The tail and the throughput are
#: medians over chunks: a burst of outside load that slows a few ops of
#: one chunk does not move them, where the 11th-largest latency of a
#: whole run lands among such bursts.
CHUNK_OPS = 200
#: Seconds a traced run spends probing the tracing overhead.
PROBE_SECONDS = 6.0


def tail(latencies: list) -> "tuple[float, float]":
    """``(percentile, value)``: the highest percentile with 10 samples beyond.

    That is the 11th-largest latency.  It is used only at or above the
    median: with fewer than 20 samples the tail is the maximum.
    """
    ordered = sorted(latencies)
    count = len(ordered)
    if count < 20:
        return 100.0, ordered[-1]
    return 100.0 * (count - 10) / count, ordered[count - 11]


def timed_phase(workload, seconds: float) -> dict:
    """Closed loop, one client: run ops until ``seconds`` have passed."""
    latencies = []
    ends = []
    passed = 0
    started = time.perf_counter()
    deadline = started + seconds
    while True:
        before = time.perf_counter()
        output = workload.op()
        latencies.append(time.perf_counter() - before)
        passed += bool(workload.check(output))
        ends.append(time.perf_counter())
        if ends[-1] >= deadline:
            break
    return {
        "started": started, "ends": ends, "latencies": latencies,
        "passed": passed,
    }


def summarize(phase: dict) -> "tuple[dict, dict]":
    """End-to-end timing metrics of one timed phase, and how they were taken.

    A phase of fewer than ``2 * CHUNK_OPS`` ops is one chunk.
    """
    latencies = phase["latencies"]
    ends = phase["ends"]
    count = len(latencies)
    chunks = max(1, count // CHUNK_OPS)
    bounds = [count * index // chunks for index in range(chunks + 1)]
    tails, rates = [], []
    for low, high in zip(bounds, bounds[1:]):
        percentile, value = tail(latencies[low:high])
        tails.append(value)
        begin = phase["started"] if low == 0 else ends[low - 1]
        rates.append((high - low) / (ends[high - 1] - begin))
    metrics = {
        "wall_s": ends[-1] - phase["started"],
        "ops_per_s": statistics.median(rates),
        "op_p50_ms": 1e3 * statistics.median(latencies),
        "op_tail_ms": 1e3 * statistics.median(tails),
    }
    method = {
        "ops": count,
        "chunks": chunks,
        "tail_percentile": percentile,
        "tail_samples_beyond": 10 if high - low >= 20 else 0,
    }
    return metrics, method


def tracing_overhead(workload, tracer) -> float:
    """Percent slowdown of the workload's probe when traced.

    The probe is the workload's op and check, or a cheaper stand-in when
    one op is too long to run twice (paper-tiny).  Untraced and traced
    probes alternate, so a slow spell of the machine hits both alike.
    Spans and counters of the traced probes are dropped again.
    """
    probe = getattr(workload, "probe", None) or (
        lambda: workload.check(workload.op())
    )
    checkpoint = tracer.checkpoint()
    seconds = {False: 0.0, True: 0.0}
    started = time.perf_counter()
    while time.perf_counter() - started < PROBE_SECONDS:
        for traced in (False, True):
            tracer.enabled = traced
            before = time.perf_counter()
            probe()
            seconds[traced] += time.perf_counter() - before
    tracer.enabled = False
    tracer.restore(checkpoint)
    return 100.0 * (seconds[True] / seconds[False] - 1.0)


def peak_rss_mb() -> float:
    """Peak resident memory of this process (``ru_maxrss`` is in KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("mode", choices=("import", "setup", "run", "record"))
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, default=None)
    parser.add_argument("--workdir", required=True)
    arguments = parser.parse_args(argv)
    t0 = arguments.t0 if arguments.t0 is not None else time.monotonic()

    if arguments.mode == "record":
        from repro.experiments import ExperimentConfig

        results = run_figures(
            ExperimentConfig.tiny(), FIGURES, arguments.workdir
        )
        print(json.dumps(
            {name: result_digest(result) for name, result in results.items()},
            indent=1, sort_keys=True,
        ))
        return 0

    import tracing

    tracer = tracing.Tracer()
    import repro.experiments  # noqa: F401  (the layers every workload uses)

    import_s = time.monotonic() - t0
    if arguments.mode == "import":
        import numpy

        try:
            blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        except (KeyError, TypeError):
            blas = {}
        print(json.dumps({
            "import_s": import_s,
            "numpy": numpy.__version__,
            "blas": {key: blas.get(key) for key in ("name", "version")},
        }))
        return 0
    if arguments.trace:
        tracing.instrument(tracer)
        tracer.enabled = True
    workload = WORKLOADS[arguments.workload](arguments.seed, arguments.workdir)
    with tracer.span("bench.setup"):
        workload.setup()
    setup_s = time.monotonic() - t0
    if arguments.mode == "setup":
        print(json.dumps({"setup_s": setup_s, "import_s": import_s}))
        return 0

    tracer.enabled = False
    workload.prepare()
    if arguments.trace:
        overhead_pct = tracing_overhead(workload, tracer)
        tracer.enabled = True
        original_op = workload.op

        def traced_op():
            with tracer.span("bench.op"):
                return original_op()

        workload.op = traced_op
    phase = timed_phase(workload, arguments.seconds)
    tracer.enabled = False
    metrics, method = summarize(phase)
    metrics.update(workload.quality())
    metrics["success_rate"] = phase["passed"] / method["ops"]
    metrics["peak_rss_mb"] = peak_rss_mb()
    report = {
        "setup_s": setup_s,
        "import_s": import_s,
        "attempted": method["ops"],
        "passed": phase["passed"],
        "metrics": metrics,
        "method": method,
    }
    if arguments.trace:
        report["trace"] = {
            "self_s": tracer.self_seconds(),
            "counters": dict(tracer.counters),
            "spans": len(tracer.spans),
            "overhead_pct": overhead_pct,
        }
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())

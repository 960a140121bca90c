"""Shared infrastructure for the figure-reproduction experiments."""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import Optional

import numpy as np

from repro.core.baselines import CompressedDataset
from repro.data.dataset import Dataset, train_test_split
from repro.data.synthetic import FreqNetConfig, generate_freqnet
from repro.data.transforms import prepare_for_network
from repro.nn import models
from repro.nn.base import Sequential
from repro.nn.optim import Adam
from repro.nn.trainer import Trainer, TrainingHistory


@dataclass(frozen=True)
class ExperimentConfig:
    """Scale and reproducibility knobs shared by all experiments.

    Attributes
    ----------
    images_per_class / image_size / noise_std:
        Forwarded to the FreqNet generator.
    test_fraction:
        Fraction of each class held out for testing.
    epochs / batch_size / learning_rate:
        Training-loop parameters.
    model_name:
        Default architecture (a key of
        :data:`repro.nn.models.MODEL_BUILDERS`).
    compute_dtype:
        Compute dtype of the classifier stack: ``"float32"`` (the fast
        default) or ``"float64"`` (the bit-exact reference mode).
    dataset_seed / split_seed / model_seed:
        Seeds for the three sources of randomness.
    sampling_interval:
        Algorithm-1 interval used when fitting DeepN-JPEG inside an
        experiment.
    workers:
        Process count for the experiment sweeps (and the dataset
        compression they trigger): ``1`` runs everything serially in
        this process (bit-identical to the historical behaviour), ``N``
        shards the sweep grid over ``N`` processes, ``0`` uses every
        available CPU.  Results are identical for any worker count.
    on_error / retries / task_timeout:
        Fault-tolerance policy of the sweep runtime.  ``on_error`` is
        one of ``"fail-fast"`` (the default: first failure aborts the
        sweep, no retries), ``"retry"`` (failed cells are re-run up to
        ``retries`` times before the sweep aborts) or ``"collect"``
        (failed cells are retried, then collected into a failure report
        while every healthy cell still completes and persists).
        ``task_timeout`` bounds a single cell's wall-clock seconds; a
        cell past its deadline is killed and handled under the policy.
        Because a retried cell re-runs the exact same task payload,
        recovered sweeps are bit-identical to fault-free ones — none of
        these knobs influence results, so ``task_key()`` normalises
        them all away.
    backend:
        Execution backend of the sweep runtime (see
        :mod:`repro.runtime.backends`): ``None`` (the default) keeps the
        automatic choice — in-process for one worker, else forked —
        while ``"serial"``, ``"forked"``, ``"persistent"`` and
        ``"socket"`` select a transport explicitly.  Like the
        fault-tolerance knobs, the backend is pure transport: results
        and store addresses are identical across backends, so
        ``task_key()`` normalises it away too.
    inference_engine:
        ``"plan"`` (the default) evaluates trained classifiers through
        the shape-specialized arena engine of :mod:`repro.nn.engine`;
        ``"dynamic"`` keeps the legacy layer-by-layer walk.  Float32 and
        float64 plans are bit-identical to the dynamic path, so this is
        pure execution strategy and ``task_key()`` normalises it away.
    storage_dtype:
        ``None`` stores planned activations in the compute dtype;
        ``"float16"`` halves activation memory by storing them
        half-precision while keeping the arithmetic in the compute
        dtype.  This changes results at the accuracy level, so it is
        *kept* in ``task_key()``.
    blas_threads:
        BLAS thread count pinned around planned inference (``None``
        leaves the library default).  Pure execution speed — results
        are bit-identical for any thread count on the same BLAS — so
        ``task_key()`` normalises it away.
    """

    images_per_class: int = 30
    image_size: int = 32
    noise_std: float = 1.5
    test_fraction: float = 0.25
    epochs: int = 20
    batch_size: int = 32
    learning_rate: float = 0.002
    model_name: str = "AlexNet"
    compute_dtype: str = "float32"
    dataset_seed: int = 7
    split_seed: int = 0
    model_seed: int = 0
    sampling_interval: int = 2
    workers: int = 1
    on_error: str = "fail-fast"
    retries: int = 2
    task_timeout: Optional[float] = None
    backend: Optional[str] = None
    inference_engine: str = "plan"
    storage_dtype: Optional[str] = None
    blas_threads: Optional[int] = None

    def __post_init__(self) -> None:
        if self.images_per_class < 4:
            raise ValueError("images_per_class must be at least 4")
        if self.epochs < 1:
            raise ValueError("epochs must be at least 1")
        if self.model_name not in models.MODEL_BUILDERS:
            raise ValueError(f"unknown model {self.model_name!r}")
        if self.compute_dtype not in ("float32", "float64"):
            raise ValueError(
                f"compute_dtype must be 'float32' or 'float64', "
                f"got {self.compute_dtype!r}"
            )
        if self.workers < 0:
            raise ValueError("workers must be non-negative")
        if self.on_error not in ("fail-fast", "retry", "collect"):
            raise ValueError(
                f"on_error must be 'fail-fast', 'retry' or 'collect', "
                f"got {self.on_error!r}"
            )
        if self.retries < 0:
            raise ValueError("retries must be non-negative")
        if self.task_timeout is not None and self.task_timeout <= 0:
            raise ValueError("task_timeout must be positive (or None)")
        if self.inference_engine not in ("plan", "dynamic"):
            raise ValueError(
                f"inference_engine must be 'plan' or 'dynamic', "
                f"got {self.inference_engine!r}"
            )
        if self.storage_dtype is not None:
            from repro.nn.dtype import resolve_storage_dtype

            resolve_storage_dtype(self.storage_dtype, self.compute_dtype)
        if self.blas_threads is not None and self.blas_threads < 1:
            raise ValueError("blas_threads must be positive (or None)")
        from repro.runtime.backends import validate_backend_name

        validate_backend_name(self.backend)

    @classmethod
    def micro(cls) -> "ExperimentConfig":
        """The smallest configuration that exercises every code path.

        The scale the test suite (and its golden parity fixtures) runs
        at; ``--scale micro`` on the CLI uses the same definition.
        """
        return cls(images_per_class=6, image_size=16, epochs=2, batch_size=8)

    @classmethod
    def tiny(cls) -> "ExperimentConfig":
        """A configuration sized for CI / pytest-benchmark smoke runs."""
        return cls(images_per_class=16, epochs=10)

    @classmethod
    def small(cls) -> "ExperimentConfig":
        """The default configuration used for the EXPERIMENTS.md numbers."""
        return cls(images_per_class=30, epochs=20)

    @classmethod
    def full(cls) -> "ExperimentConfig":
        """A larger configuration for tighter accuracy estimates."""
        return cls(images_per_class=60, epochs=30)

    def with_overrides(self, **kwargs) -> "ExperimentConfig":
        """A copy of this configuration with selected fields replaced.

        Unknown field names raise :class:`ValueError` (listing the valid
        fields) instead of silently passing through to ``replace`` — a
        typo in a sweep override must never produce a config that looks
        accepted but changed nothing.
        """
        valid = {field.name for field in fields(self)}
        unknown = sorted(set(kwargs) - valid)
        if unknown:
            raise ValueError(
                f"unknown ExperimentConfig field(s) {unknown}; "
                f"valid fields: {sorted(valid)}"
            )
        return replace(self, **kwargs)

    def task_key(self) -> "ExperimentConfig":
        """The worker-state key this configuration implies.

        Identical to the config except that every runtime knob —
        ``workers``, the fault-tolerance policy, the execution
        ``backend``, the ``inference_engine`` and ``blas_threads`` — is
        normalised to its default: the parallel runtime must never
        influence the data, model or seeds a worker reconstructs (and
        so never the store address either), and a worker never
        re-parallelises its own task.  ``storage_dtype`` is *not*
        normalised: half-precision activation storage changes the
        numbers, so it addresses distinct results.
        """
        return replace(
            self,
            workers=1,
            on_error="fail-fast",
            retries=2,
            task_timeout=None,
            backend=None,
            inference_engine="plan",
            blas_threads=None,
        )

    def freqnet_config(self) -> FreqNetConfig:
        """The FreqNet generator configuration implied by this experiment."""
        return FreqNetConfig(
            image_size=self.image_size,
            images_per_class=self.images_per_class,
            noise_std=self.noise_std,
            seed=self.dataset_seed,
        )

    def input_shape(self) -> tuple:
        """CHW input shape of the classifier."""
        return (1, self.image_size, self.image_size)


def make_splits(config: ExperimentConfig) -> tuple:
    """Generate FreqNet and return the stratified (train, test) split."""
    dataset = generate_freqnet(config.freqnet_config())
    return train_test_split(
        dataset, test_fraction=config.test_fraction, seed=config.split_seed
    )


@dataclass
class TrainedClassifier:
    """A trained model together with its trainer and training history."""

    model: Sequential
    trainer: Trainer
    history: TrainingHistory
    config: Optional[ExperimentConfig] = field(repr=False, default=None)

    def accuracy_on(self, dataset) -> float:
        """Top-1 accuracy on a Dataset or CompressedDataset."""
        dataset = _as_dataset(dataset)
        return self.trainer.evaluate(
            prepare_for_network(dataset.images, dtype=self.model.dtype),
            dataset.labels,
        )

    def predictions_on(self, dataset) -> np.ndarray:
        """Predicted labels on a Dataset or CompressedDataset."""
        dataset = _as_dataset(dataset)
        return self.model.predict(
            prepare_for_network(dataset.images, dtype=self.model.dtype)
        )


def train_classifier(
    train_dataset,
    config: ExperimentConfig,
    model_name: Optional[str] = None,
    validation_dataset=None,
    epochs: Optional[int] = None,
) -> TrainedClassifier:
    """Train a classifier of ``model_name`` on ``train_dataset``.

    ``train_dataset`` may be a Dataset or a CompressedDataset (the CASE-2
    protocol trains directly on decompressed images).
    """
    train_dataset = _as_dataset(train_dataset)
    model_name = model_name if model_name is not None else config.model_name
    model = models.build_model(
        model_name,
        num_classes=train_dataset.num_classes,
        input_shape=config.input_shape(),
        seed=config.model_seed,
        dtype=config.compute_dtype,
    )
    model.inference_engine = config.inference_engine
    model.storage_dtype = config.storage_dtype
    model.blas_threads = config.blas_threads
    trainer = Trainer(
        model,
        optimizer=Adam(config.learning_rate),
        batch_size=config.batch_size,
        seed=config.model_seed,
    )
    validation_data = None
    if validation_dataset is not None:
        validation_dataset = _as_dataset(validation_dataset)
        validation_data = (
            prepare_for_network(
                validation_dataset.images, dtype=config.compute_dtype
            ),
            validation_dataset.labels,
        )
    history = trainer.fit(
        prepare_for_network(train_dataset.images, dtype=config.compute_dtype),
        train_dataset.labels,
        epochs=epochs if epochs is not None else config.epochs,
        validation_data=validation_data,
    )
    return TrainedClassifier(
        model=model, trainer=trainer, history=history, config=config
    )


def relative_compression_rate(
    compressed: CompressedDataset, reference: CompressedDataset
) -> float:
    """Compression rate relative to the reference (the paper's CR=1 anchor).

    The paper reports every compression rate relative to the QF=100 JPEG
    dataset ("Original", CR=1), not to raw pixels.
    """
    return reference.total_bytes / compressed.total_bytes


def format_table(headers: "list[str]", rows: "list[list]") -> str:
    """Render a plain-text table with aligned columns."""
    if not rows:
        return " | ".join(headers)
    formatted_rows = [
        [_format_cell(cell) for cell in row] for row in rows
    ]
    widths = [
        max(len(str(header)), *(len(row[i]) for row in formatted_rows))
        for i, header in enumerate(headers)
    ]
    lines = [
        " | ".join(str(h).ljust(w) for h, w in zip(headers, widths)),
        "-+-".join("-" * w for w in widths),
    ]
    for row in formatted_rows:
        lines.append(" | ".join(cell.ljust(w) for cell, w in zip(row, widths)))
    return "\n".join(lines)


def _format_cell(cell) -> str:
    if isinstance(cell, float):
        return f"{cell:.3f}"
    return str(cell)


def _as_dataset(dataset) -> Dataset:
    if isinstance(dataset, CompressedDataset):
        return dataset.dataset
    if isinstance(dataset, Dataset):
        return dataset
    raise TypeError(
        f"expected a Dataset or CompressedDataset, got {type(dataset).__name__}"
    )

"""Dataset-level compression: the baselines the paper compares against.

Four compressors share one interface (:class:`DatasetCompressor`); each
supplies its quantization tables and inherits every codec entry point:

* :class:`JpegCompressor` — ordinary JPEG with the Annex-K table scaled by
  a quality factor (the "Original" dataset is JPEG at QF=100).
* :class:`RemoveHighFrequencyCompressor` — the paper's "RM-HF" baseline:
  JPEG extended by discarding the top-N highest-frequency components.
* :class:`SameQCompressor` — the paper's "SAME-Q" baseline: a flat table
  with one step for all 64 bands.
* :class:`~repro.core.pipeline.DeepNJpeg` — the proposed method, whose
  tables are designed from a dataset (defined in :mod:`repro.core.pipeline`).

Compressing a dataset returns a :class:`CompressedDataset` holding the
reconstructed images (to feed a classifier) and the measured byte counts
(to compute compression ratios and, later, offloading power).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.codec import (
    codec_for_stack,
    compress_stack,
    iter_compressed_stack,
    register_builtin_codec,
)
from repro.data.dataset import Dataset
from repro.jpeg.codec import (
    ColorJpegCodec,
    CompressionResult,
    EncodedImage,
    GrayscaleJpegCodec,
)
from repro.jpeg.metrics import CompressedSizeMixin, psnr
from repro.jpeg.quantization import (
    MAX_QUANT_STEP,
    QuantizationTable,
    STANDARD_CHROMINANCE_TABLE,
    STANDARD_LUMINANCE_TABLE,
    scale_table_for_quality,
)
from repro.jpeg.zigzag import ZIGZAG_ORDER


@dataclass(frozen=True)
class CompressedDataset(CompressedSizeMixin):
    """Result of compressing every image of a dataset.

    Attributes
    ----------
    dataset:
        A dataset with the same labels but decompressed (lossy) images.
    method:
        Name of the compressor that produced it.
    payload_bytes / header_bytes:
        Total entropy-coded payload and marker overhead across all images.
    original_bytes:
        Total uncompressed size (one byte per sample value).
    mean_psnr:
        Mean PSNR of the reconstructions against the originals.

    ``total_bytes`` / ``compression_ratio`` / ``payload_compression_ratio``
    come from :class:`~repro.jpeg.metrics.CompressedSizeMixin` (shared
    with the per-image :class:`~repro.jpeg.codec.CompressionResult`).
    """

    dataset: Dataset
    method: str
    payload_bytes: int
    header_bytes: int
    original_bytes: int
    mean_psnr: float

    @property
    def bytes_per_image(self) -> float:
        """Average compressed size per image."""
        return self.total_bytes / len(self.dataset)


def compress_batch(
    images: np.ndarray,
    luma_table: QuantizationTable,
    chroma_table: Optional[QuantizationTable] = None,
    optimize_huffman: bool = False,
    workers: int = 1,
) -> "list[CompressionResult]":
    """Compress a stack of same-shaped images with one shared codec.

    The batch entry point every dataset-level experiment goes through:
    one codec — and therefore one set of quantization and Huffman
    tables, dense code arrays and decode LUTs — is built once and
    reused across all images instead of being rebuilt per image.
    Grayscale stacks ``(N, H, W)`` run blocking, DCT, quantization and
    entropy coding as single vectorized passes over every block of the
    whole batch; colour stacks ``(N, H, W, 3)`` do the same per plane
    (colour conversion and chroma resampling are also whole-batch
    passes).  Per-image results are byte-identical to compressing each
    image individually.

    ``workers > 1`` shards the stack into contiguous image chunks
    compressed by a process pool (one shard at a time per worker, the
    same shared tables in every worker) and reassembles the per-image
    results in order; the output is identical to ``workers=1``.
    """
    images = np.asarray(images, dtype=np.float64)
    codec = codec_for_stack(
        images, luma_table, chroma_table, optimize_huffman=optimize_huffman
    )
    return compress_stack(images, codec, workers)


def compress_dataset_with_table(
    dataset: Dataset,
    luma_table: QuantizationTable,
    chroma_table: Optional[QuantizationTable] = None,
    method: str = "custom",
    optimize_huffman: bool = False,
    workers: int = 1,
) -> CompressedDataset:
    """Compress every image of ``dataset`` with the given table(s).

    Grayscale datasets use :class:`GrayscaleJpegCodec`; colour datasets go
    through the YCbCr path of :class:`ColorJpegCodec`.  All images run
    through the codec's ``compress_batch``, so tables and coder state are
    shared across the dataset.  The dataset's dimensionality decides the
    modality here (``ndim == 4`` is colour), so even pathological shapes
    like 3-pixel-wide grayscale images dispatch correctly.

    ``workers > 1`` shards the dataset into contiguous image chunks
    over a process pool (see :func:`compress_batch`); per-image results
    — and therefore every aggregate below — are identical to the serial
    run.
    """
    images = dataset.images
    reconstructed = np.empty_like(images)
    payload = 0
    header = 0
    psnr_values = []
    codec = codec_for_stack(
        images, luma_table, chroma_table,
        optimize_huffman=optimize_huffman, strict=False,
    )
    # One shared loop for both modes: serially the stack streams through
    # memory-bounded chunks, with workers > 1 through pool shards whose
    # results arrive in order through a bounded window — either way this
    # consumer aggregates incrementally with the same peak-memory
    # character (plus the reassembled output array).
    results = iter_compressed_stack(images, codec, workers)
    for index, result in enumerate(results):
        reconstructed[index] = result.reconstructed
        payload += result.payload_bytes
        header += result.header_bytes
        psnr_values.append(psnr(images[index], result.reconstructed))
    finite = [value for value in psnr_values if np.isfinite(value)]
    mean_psnr = float(np.mean(finite)) if finite else float("inf")
    return CompressedDataset(
        dataset=dataset.with_images(reconstructed),
        method=method,
        payload_bytes=int(payload),
        header_bytes=int(header),
        original_bytes=dataset.uncompressed_bytes(),
        mean_psnr=mean_psnr,
    )


class DatasetCompressor:
    """Interface of every dataset-level compressor.

    A compressor is a source of quantization tables.  Besides the
    dataset entry point (:meth:`compress_dataset`), every compressor
    implements the :class:`repro.core.codec.Codec` protocol — per-image
    ``encode`` / ``decode`` / ``compress``, stack-level
    ``compress_batch``, ``header_bytes`` and a JSON-able ``spec()`` —
    by building the modality-appropriate JPEG codec from its tables.
    """

    #: Human-readable name used in experiment tables.
    name = "abstract"

    def luma_table(self) -> QuantizationTable:
        """The luminance quantization table this compressor uses."""
        raise NotImplementedError

    def chroma_table(self) -> QuantizationTable:
        """The chrominance quantization table (defaults to the luma table)."""
        return self.luma_table()

    def optimize_huffman(self) -> bool:
        """Whether this compressor codes with per-image optimized tables.

        The baselines use the Annex K standard tables; every encoding
        entry point below follows this flag, so the streams are exactly
        those the compressor's ``spec()`` describes.
        """
        return False

    def spec(self) -> dict:
        """JSON-able description; rebuilds this compressor via the registry."""
        raise NotImplementedError

    def _codec(self, color: bool):
        """The JPEG codec of this compressor's tables for one modality."""
        if color:
            return ColorJpegCodec(
                self.luma_table(), self.chroma_table(),
                optimize_huffman=self.optimize_huffman(),
            )
        return GrayscaleJpegCodec(
            self.luma_table(), optimize_huffman=self.optimize_huffman()
        )

    def codec_for(self, image: np.ndarray):
        """The underlying JPEG codec for one image.

        The image's own rank decides the modality — ``(H, W)`` grayscale,
        ``(H, W, 3)`` RGB — so a 3-pixel-wide grayscale image is not
        ambiguous here; stacks go through :meth:`compress_batch`.
        """
        shape = np.shape(image)
        color = len(shape) == 3 and shape[-1] == 3
        if not color and len(shape) != 2:
            raise ValueError(
                f"expected (H, W) or (H, W, 3) image, got shape {shape}"
            )
        return self._codec(color)

    def encode(self, image: np.ndarray):
        """Entropy-code one image with this compressor's tables."""
        return self.codec_for(image).encode(np.asarray(image, dtype=np.float64))

    def decode(self, encoded) -> np.ndarray:
        """Decode a stream previously produced by :meth:`encode`.

        An :class:`~repro.jpeg.codec.EncodedImage` decodes through the
        colour path (with the subsampling recorded on the stream),
        anything else through the grayscale path.
        """
        if isinstance(encoded, EncodedImage):
            return ColorJpegCodec(
                self.luma_table(), self.chroma_table(),
                subsample_chroma=encoded.subsample_chroma,
            ).decode(encoded)
        return GrayscaleJpegCodec(self.luma_table()).decode(encoded)

    def compress(self, image: np.ndarray) -> CompressionResult:
        """Round-trip one image and report sizes and the reconstruction."""
        return self.codec_for(image).compress(
            np.asarray(image, dtype=np.float64)
        )

    def compress_batch(
        self, images: np.ndarray, workers: int = 1
    ) -> "list[CompressionResult]":
        """Round-trip a stack of same-shaped images with shared tables.

        Stack shapes follow the module-level :func:`compress_batch`
        contract — ``(N, H, W)`` grayscale or ``(N, H, W, 3)`` colour,
        with the ambiguous ``(N, H, 3)`` case rejected explicitly.
        """
        return compress_batch(
            images, self.luma_table(), self.chroma_table(),
            optimize_huffman=self.optimize_huffman(), workers=workers,
        )

    def header_bytes(self, color: bool = False) -> int:
        """Marker-segment overhead per image for the given modality.

        Raises :class:`ValueError` when the compressor codes with
        per-image optimized Huffman tables, whose header size depends on
        the image.
        """
        return self._codec(color).header_bytes()

    def compress_dataset(
        self, dataset: Dataset, workers: int = 1
    ) -> CompressedDataset:
        """Compress every image of ``dataset`` and collect statistics.

        ``workers > 1`` shards the dataset over a process pool with the
        same results (see :func:`compress_dataset_with_table`).
        """
        return compress_dataset_with_table(
            dataset,
            self.luma_table(),
            self.chroma_table(),
            method=self.name,
            optimize_huffman=self.optimize_huffman(),
            workers=workers,
        )


class JpegCompressor(DatasetCompressor):
    """Ordinary JPEG with the standard tables scaled by a quality factor."""

    def __init__(self, quality: int = 100) -> None:
        if not 1 <= quality <= 100:
            raise ValueError("quality must be in [1, 100]")
        self.quality = int(quality)
        self.name = f"JPEG (QF={self.quality})"

    def spec(self) -> dict:
        return {"codec": "jpeg", "quality": self.quality}

    def luma_table(self) -> QuantizationTable:
        return QuantizationTable.standard_luminance(self.quality)

    def chroma_table(self) -> QuantizationTable:
        return QuantizationTable.standard_chrominance(self.quality)


class RemoveHighFrequencyCompressor(DatasetCompressor):
    """The paper's RM-HF baseline.

    Standard JPEG at the given quality, extended by *removing* the top-N
    highest-frequency components: their quantization steps are raised to
    the maximum representable value so the corresponding coefficients
    quantize to zero for natural image content.
    """

    def __init__(self, removed_components: int = 3, quality: int = 100) -> None:
        if not 0 <= removed_components < 64:
            raise ValueError("removed_components must be in [0, 63]")
        if not 1 <= quality <= 100:
            raise ValueError("quality must be in [1, 100]")
        self.removed_components = int(removed_components)
        self.quality = int(quality)
        self.name = f"RM-HF{self.removed_components}"

    def spec(self) -> dict:
        return {
            "codec": "rm-hf",
            "removed_components": self.removed_components,
            "quality": self.quality,
        }

    def _remove_top_bands(self, base_table: np.ndarray) -> QuantizationTable:
        values = np.array(base_table, dtype=np.float64)
        flat = values.reshape(-1)
        if self.removed_components:
            top_bands = ZIGZAG_ORDER[64 - self.removed_components:]
            flat[top_bands] = MAX_QUANT_STEP
        return QuantizationTable(
            flat.reshape(8, 8), name=f"rm-hf{self.removed_components}"
        )

    def luma_table(self) -> QuantizationTable:
        return self._remove_top_bands(
            scale_table_for_quality(STANDARD_LUMINANCE_TABLE, self.quality)
        )

    def chroma_table(self) -> QuantizationTable:
        return self._remove_top_bands(
            scale_table_for_quality(STANDARD_CHROMINANCE_TABLE, self.quality)
        )


class SameQCompressor(DatasetCompressor):
    """The paper's SAME-Q baseline: one quantization step for all 64 bands."""

    def __init__(self, step: float = 4.0) -> None:
        if step < 1:
            raise ValueError("step must be at least 1")
        self.step = float(step)
        self.name = f"SAME-Q{self.step:g}"

    def spec(self) -> dict:
        return {"codec": "same-q", "step": self.step}

    def luma_table(self) -> QuantizationTable:
        return QuantizationTable.flat(self.step, name=f"same-q{self.step:g}")

    def chroma_table(self) -> QuantizationTable:
        return self.luma_table()


register_builtin_codec("jpeg", JpegCompressor)
register_builtin_codec("rm-hf", RemoveHighFrequencyCompressor)
register_builtin_codec("same-q", SameQCompressor)

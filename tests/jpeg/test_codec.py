"""Tests for the end-to-end JPEG-style codecs."""

import numpy as np
import pytest

from repro.jpeg import (
    ColorJpegCodec,
    GrayscaleJpegCodec,
    QuantizationTable,
    psnr,
)


class TestGrayscaleCodec:
    def test_roundtrip_preserves_shape_and_range(self, random_image):
        codec = GrayscaleJpegCodec(QuantizationTable.standard_luminance(75))
        result = codec.compress(random_image)
        assert result.reconstructed.shape == random_image.shape
        assert result.reconstructed.min() >= 0.0
        assert result.reconstructed.max() <= 255.0

    def test_lossless_quantization_is_near_exact(self, smooth_image):
        codec = GrayscaleJpegCodec(QuantizationTable.flat(1))
        result = codec.compress(smooth_image)
        assert result.psnr(smooth_image) > 50.0

    def test_larger_steps_reduce_size_and_quality(self, random_image):
        fine = GrayscaleJpegCodec(QuantizationTable.flat(2)).compress(random_image)
        coarse = GrayscaleJpegCodec(QuantizationTable.flat(40)).compress(random_image)
        assert coarse.payload_bytes < fine.payload_bytes
        assert coarse.psnr(random_image) < fine.psnr(random_image)

    def test_smooth_images_compress_better_than_noise(self, random_image, smooth_image):
        codec = GrayscaleJpegCodec(QuantizationTable.standard_luminance(50))
        noisy = codec.compress(random_image)
        smooth = codec.compress(smooth_image[:32, :32])
        assert smooth.payload_bytes < noisy.payload_bytes

    def test_compression_ratio_accounts_for_header(self, random_image):
        codec = GrayscaleJpegCodec(QuantizationTable.standard_luminance(50))
        result = codec.compress(random_image)
        assert result.total_bytes == result.payload_bytes + result.header_bytes
        assert result.original_bytes == random_image.size
        assert result.compression_ratio < result.payload_compression_ratio

    def test_non_multiple_of_eight_dimensions(self, rng):
        image = np.clip(rng.normal(120, 30, (19, 27)), 0, 255)
        codec = GrayscaleJpegCodec(QuantizationTable.standard_luminance(60))
        result = codec.compress(image)
        assert result.reconstructed.shape == image.shape

    def test_quality_monotonic_in_psnr(self, random_image):
        results = [
            GrayscaleJpegCodec(
                QuantizationTable.standard_luminance(quality)
            ).compress(random_image)
            for quality in (20, 50, 90)
        ]
        psnrs = [result.psnr(random_image) for result in results]
        assert psnrs == sorted(psnrs)

    def test_optimized_huffman_never_larger(self, random_image):
        table = QuantizationTable.standard_luminance(50)
        standard = GrayscaleJpegCodec(table).compress(random_image)
        optimized = GrayscaleJpegCodec(table, optimize_huffman=True).compress(
            random_image
        )
        assert optimized.payload_bytes <= standard.payload_bytes

    def test_encode_decode_consistent_with_compress(self, random_image):
        codec = GrayscaleJpegCodec(QuantizationTable.standard_luminance(70))
        encoded = codec.encode(random_image)
        decoded = codec.decode(encoded)
        result = codec.compress(random_image)
        np.testing.assert_allclose(decoded, result.reconstructed)
        assert len(encoded.data) == result.payload_bytes

    def test_rejects_color_input(self, random_rgb_image):
        codec = GrayscaleJpegCodec(QuantizationTable.standard_luminance(50))
        with pytest.raises(ValueError):
            codec.compress(random_rgb_image)

    def test_constant_image_compresses_extremely_well(self):
        image = np.full((64, 64), 200.0)
        codec = GrayscaleJpegCodec(QuantizationTable.standard_luminance(50))
        result = codec.compress(image)
        assert result.payload_compression_ratio > 30.0
        assert result.psnr(image) > 40.0

    def test_optimized_huffman_stream_roundtrips_through_decode(self, random_image):
        codec = GrayscaleJpegCodec(
            QuantizationTable.standard_luminance(50), optimize_huffman=True
        )
        encoded = codec.encode(random_image)
        assert encoded.dc_huffman is not None
        assert encoded.ac_huffman is not None
        decoded = codec.decode(encoded)
        result = codec.compress(random_image)
        np.testing.assert_array_equal(decoded, result.reconstructed)
        assert len(encoded.data) == result.payload_bytes

    def test_standard_stream_carries_no_tables(self, random_image):
        codec = GrayscaleJpegCodec(QuantizationTable.standard_luminance(50))
        encoded = codec.encode(random_image)
        assert encoded.dc_huffman is None
        assert encoded.ac_huffman is None

    def test_compress_matches_explicit_decode(self, random_image):
        # compress() reconstructs straight from the quantized blocks;
        # decoding the stream must give the exact same image.
        codec = GrayscaleJpegCodec(QuantizationTable.standard_luminance(60))
        result = codec.compress(random_image)
        decoded = codec.decode(codec.encode(random_image))
        np.testing.assert_array_equal(decoded, result.reconstructed)


class TestGrayscaleBatch:
    def test_batch_matches_per_image_compress(self, rng):
        images = np.clip(rng.normal(128, 50, (6, 24, 24)), 0, 255)
        codec = GrayscaleJpegCodec(QuantizationTable.standard_luminance(50))
        batch = codec.compress_batch(images)
        assert len(batch) == 6
        for index, result in enumerate(batch):
            single = codec.compress(images[index])
            assert result.payload_bytes == single.payload_bytes
            assert result.header_bytes == single.header_bytes
            np.testing.assert_array_equal(
                result.reconstructed, single.reconstructed
            )

    def test_batch_with_padding_dimensions(self, rng):
        images = np.clip(rng.normal(128, 50, (3, 19, 27)), 0, 255)
        codec = GrayscaleJpegCodec(QuantizationTable.standard_luminance(60))
        batch = codec.compress_batch(images)
        for index, result in enumerate(batch):
            single = codec.compress(images[index])
            assert result.payload_bytes == single.payload_bytes
            np.testing.assert_array_equal(
                result.reconstructed, single.reconstructed
            )

    def test_batch_optimized_huffman_falls_back_per_image(self, rng):
        images = np.clip(rng.normal(128, 50, (3, 16, 16)), 0, 255)
        codec = GrayscaleJpegCodec(
            QuantizationTable.standard_luminance(50), optimize_huffman=True
        )
        batch = codec.compress_batch(images)
        for index, result in enumerate(batch):
            single = codec.compress(images[index])
            assert result.payload_bytes == single.payload_bytes

    def test_batch_rejects_single_image(self, random_image):
        codec = GrayscaleJpegCodec(QuantizationTable.standard_luminance(50))
        with pytest.raises(ValueError):
            codec.compress_batch(random_image)


class TestColorBatch:
    def _images(self, rng, count=4, height=24, width=24):
        return np.clip(
            rng.normal(128, 50, (count, height, width, 3)), 0, 255
        )

    @pytest.mark.parametrize("subsample", [True, False])
    def test_batch_matches_per_image_compress(self, rng, subsample):
        codec = ColorJpegCodec(
            QuantizationTable.standard_luminance(50),
            QuantizationTable.standard_chrominance(50),
            subsample_chroma=subsample,
        )
        images = self._images(rng)
        batch = codec.compress_batch(images)
        assert len(batch) == images.shape[0]
        for index, result in enumerate(batch):
            single = codec.compress(images[index])
            assert result.payload_bytes == single.payload_bytes
            assert result.header_bytes == single.header_bytes
            np.testing.assert_array_equal(
                result.reconstructed, single.reconstructed
            )

    def test_batch_with_odd_dimensions(self, rng):
        codec = ColorJpegCodec(QuantizationTable.standard_luminance(60))
        images = self._images(rng, count=3, height=19, width=27)
        batch = codec.compress_batch(images)
        for index, result in enumerate(batch):
            single = codec.compress(images[index])
            assert result.payload_bytes == single.payload_bytes
            np.testing.assert_array_equal(
                result.reconstructed, single.reconstructed
            )

    def test_batch_optimized_huffman_falls_back_per_image(self, rng):
        codec = ColorJpegCodec(
            QuantizationTable.standard_luminance(50), optimize_huffman=True
        )
        images = self._images(rng, count=2, height=16, width=16)
        batch = codec.compress_batch(images)
        for index, result in enumerate(batch):
            single = codec.compress(images[index])
            assert result.payload_bytes == single.payload_bytes

    def test_batch_rejects_grayscale_stack(self, rng):
        codec = ColorJpegCodec(QuantizationTable.standard_luminance(50))
        with pytest.raises(ValueError):
            codec.compress_batch(rng.normal(128, 30, (4, 16, 16)))


class TestColorCodec:
    def test_roundtrip_shape(self, random_rgb_image):
        codec = ColorJpegCodec(
            QuantizationTable.standard_luminance(75),
            QuantizationTable.standard_chrominance(75),
        )
        result = codec.compress(random_rgb_image)
        assert result.reconstructed.shape == random_rgb_image.shape
        assert result.original_bytes == random_rgb_image.size

    def test_subsampling_reduces_size(self, random_rgb_image):
        luma = QuantizationTable.standard_luminance(75)
        chroma = QuantizationTable.standard_chrominance(75)
        with_sub = ColorJpegCodec(luma, chroma, subsample_chroma=True).compress(
            random_rgb_image
        )
        without_sub = ColorJpegCodec(luma, chroma, subsample_chroma=False).compress(
            random_rgb_image
        )
        assert with_sub.payload_bytes < without_sub.payload_bytes

    def test_reasonable_quality_on_smooth_color_image(self):
        x, y = np.meshgrid(np.arange(32), np.arange(32))
        image = np.stack(
            [128 + 60 * np.sin(x / 10), 128 + 60 * np.cos(y / 12),
             np.full_like(x, 100.0, dtype=float)],
            axis=-1,
        )
        codec = ColorJpegCodec(
            QuantizationTable.standard_luminance(90),
            QuantizationTable.standard_chrominance(90),
        )
        result = codec.compress(image)
        assert psnr(image, result.reconstructed) > 28.0

    def test_chroma_table_defaults_to_luma(self, random_rgb_image):
        luma = QuantizationTable.standard_luminance(60)
        codec = ColorJpegCodec(luma)
        assert codec.chroma_table is luma
        codec.compress(random_rgb_image)

    def test_rejects_grayscale_input(self, random_image):
        codec = ColorJpegCodec(QuantizationTable.standard_luminance(50))
        with pytest.raises(ValueError):
            codec.compress(random_image)

    def test_header_larger_than_grayscale(self, random_image, random_rgb_image):
        gray = GrayscaleJpegCodec(QuantizationTable.standard_luminance(50))
        color = ColorJpegCodec(
            QuantizationTable.standard_luminance(50),
            QuantizationTable.standard_chrominance(50),
        )
        assert (
            color.compress(random_rgb_image).header_bytes
            > gray.compress(random_image).header_bytes
        )


@pytest.mark.parametrize("codec_class", [GrayscaleJpegCodec, ColorJpegCodec])
def test_header_bytes_needs_standard_tables(
    codec_class, random_image, random_rgb_image
):
    # Per-image optimized tables make the header size depend on the
    # image, so only compress() can report it.
    table = QuantizationTable.standard_luminance(50)
    image = random_image if codec_class is GrayscaleJpegCodec else (
        random_rgb_image
    )
    standard = codec_class(table)
    assert standard.header_bytes() == standard.compress(image).header_bytes
    optimized = codec_class(table, optimize_huffman=True)
    with pytest.raises(ValueError):
        optimized.header_bytes()
    assert optimized.compress(image).header_bytes > 0

"""The Codec protocol, the string-keyed registry and spec round-trips."""

import numpy as np
import pytest

from repro.core.baselines import (
    DatasetCompressor,
    JpegCompressor,
    RemoveHighFrequencyCompressor,
    SameQCompressor,
)
from repro.core.codec import (
    Codec,
    build_codec,
    build_codec_from_spec,
    codec_for_stack,
    codec_names,
    register_codec,
    unregister_codec,
)
from repro.core.pipeline import DeepNJpeg
from repro.data.synthetic import FreqNetConfig, generate_freqnet
from repro.jpeg.codec import ColorJpegCodec, GrayscaleJpegCodec
from repro.jpeg.quantization import QuantizationTable


@pytest.fixture(scope="module")
def gray_image():
    rng = np.random.default_rng(31)
    return rng.uniform(0.0, 255.0, size=(24, 24)).round()


@pytest.fixture(scope="module")
def rgb_image():
    rng = np.random.default_rng(32)
    return rng.uniform(0.0, 255.0, size=(16, 16, 3)).round()


@pytest.fixture(scope="module")
def fitted_deepn():
    dataset = generate_freqnet(
        FreqNetConfig(image_size=16, images_per_class=4, seed=5)
    )
    return DeepNJpeg().fit(dataset)


class TestProtocol:
    def test_all_surfaces_implement_codec(self, fitted_deepn):
        table = QuantizationTable.standard_luminance(80)
        for codec in (
            GrayscaleJpegCodec(table),
            ColorJpegCodec(table),
            JpegCompressor(80),
            SameQCompressor(4),
            RemoveHighFrequencyCompressor(3),
            fitted_deepn,
        ):
            assert isinstance(codec, Codec)
        assert isinstance(fitted_deepn, DatasetCompressor)

    def test_compressor_codec_methods_match_underlying_codec(
        self, gray_image, fitted_deepn
    ):
        for compressor in (JpegCompressor(60), fitted_deepn):
            reference = GrayscaleJpegCodec(compressor.luma_table())
            assert (
                compressor.encode(gray_image).data
                == reference.encode(gray_image).data
            )
            np.testing.assert_array_equal(
                compressor.decode(compressor.encode(gray_image)),
                reference.decode(reference.encode(gray_image)),
            )
            assert (
                compressor.compress(gray_image).payload_bytes
                == reference.compress(gray_image).payload_bytes
            )
            assert compressor.header_bytes() == reference.header_bytes()

    def test_compressor_color_dispatch(self, rgb_image):
        compressor = JpegCompressor(60)
        reference = ColorJpegCodec(
            compressor.luma_table(), compressor.chroma_table()
        )
        assert (
            compressor.compress(rgb_image).payload_bytes
            == reference.compress(rgb_image).payload_bytes
        )
        assert compressor.header_bytes(color=True) == reference.header_bytes()

    def test_compressor_batch_matches_per_image(self, gray_image):
        stack = np.stack([gray_image, gray_image[::-1].copy()])
        compressor = SameQCompressor(4)
        batched = compressor.compress_batch(stack)
        singles = [compressor.compress(image) for image in stack]
        for left, right in zip(batched, singles):
            assert left.payload_bytes == right.payload_bytes
            np.testing.assert_array_equal(
                left.reconstructed, right.reconstructed
            )

    def test_compressor_batch_rejects_ambiguous_stack(self):
        # Same contract as the module-level compress_batch: a (N, H, 3)
        # stack is ambiguous and gets the explicit guidance message, not
        # a misrouted colour-path failure.
        with pytest.raises(ValueError, match="ambiguous"):
            JpegCompressor(50).compress_batch(np.zeros((4, 8, 3)))

    def test_compressor_single_image_bad_shape(self):
        with pytest.raises(ValueError, match=r"\(H, W\)"):
            JpegCompressor(50).compress(np.zeros((2, 8, 8)))

    def test_compressor_three_wide_grayscale_image(self):
        # A single (H, 3) grayscale image is rank-unambiguous and must
        # encode through the grayscale path, not trip the stack guard.
        image = np.arange(48, dtype=np.float64).reshape(16, 3)
        compressor = SameQCompressor(4)
        reference = GrayscaleJpegCodec(compressor.luma_table())
        assert compressor.encode(image).data == reference.encode(image).data

    def test_deepn_honours_optimize_huffman(self, gray_image):
        # A pipeline configured with optimize_huffman produces exactly the
        # streams its spec() describes through every protocol method,
        # the dataset path included.
        from repro.core.config import DeepNJpegConfig

        dataset = generate_freqnet(
            FreqNetConfig(image_size=16, images_per_class=4, seed=6)
        )
        deepn = DeepNJpeg(DeepNJpegConfig(optimize_huffman=True)).fit(dataset)
        assert deepn.optimize_huffman()
        reference = GrayscaleJpegCodec(deepn.table, optimize_huffman=True)
        assert deepn.encode(gray_image).data == reference.encode(gray_image).data
        assert (
            deepn.compress(gray_image).payload_bytes
            == reference.compress(gray_image).payload_bytes
        )
        rebuilt = build_codec_from_spec(deepn.spec())
        assert (
            rebuilt.compress(gray_image).payload_bytes
            == deepn.compress(gray_image).payload_bytes
        )
        results = reference.compress_batch(dataset.images)
        assert deepn.compress_dataset(dataset).payload_bytes == sum(
            result.payload_bytes for result in results
        )

    def test_deepn_batch_contracts(self, fitted_deepn):
        assert fitted_deepn.compress_batch(np.empty((0, 16, 16))) == []
        with pytest.raises(ValueError, match="ambiguous"):
            fitted_deepn.compress_batch(np.zeros((4, 8, 3)))
        with pytest.raises(ValueError, match="stack"):
            fitted_deepn.compress_batch(np.zeros((8, 8)))


class TestRegistry:
    def test_builtin_names_registered(self):
        names = codec_names()
        for name in (
            "jpeg-grayscale", "jpeg-color", "jpeg", "rm-hf", "same-q",
            "deepn-jpeg",
        ):
            assert name in names

    def test_build_codec_by_name(self, gray_image):
        codec = build_codec("jpeg", quality=70)
        assert isinstance(codec, JpegCompressor)
        assert codec.quality == 70

    def test_unknown_name_raises_with_known_names(self):
        with pytest.raises(KeyError, match="unknown codec 'nope'"):
            build_codec("nope")
        with pytest.raises(KeyError, match="deepn-jpeg"):
            build_codec("nope")

    def test_duplicate_registration_raises(self):
        register_codec("test-dup", JpegCompressor)
        try:
            with pytest.raises(ValueError, match="already registered"):
                register_codec("test-dup", SameQCompressor)
            # overwrite=True replaces the factory.
            register_codec("test-dup", SameQCompressor, overwrite=True)
            assert isinstance(build_codec("test-dup", step=4), SameQCompressor)
        finally:
            unregister_codec("test-dup")
        assert "test-dup" not in codec_names()

    def test_unregister_restores_builtin_factory(self):
        # A test that swaps in a fake over a builtin and then cleans up
        # must get the original factory back, not a dead name — even
        # when the overwrite happens before any registry read (the
        # builtin snapshot is taken at registration, not lazily).
        register_codec("jpeg", SameQCompressor, overwrite=True)
        try:
            assert isinstance(build_codec("jpeg", step=4), SameQCompressor)
        finally:
            unregister_codec("jpeg")
        assert isinstance(build_codec("jpeg", quality=70), JpegCompressor)

    def test_invalid_name_rejected(self):
        with pytest.raises(ValueError, match="non-empty string"):
            register_codec("", JpegCompressor)

    def test_spec_missing_codec_key(self):
        with pytest.raises(ValueError, match="missing 'codec'"):
            build_codec_from_spec({"quality": 80})


class TestSpecRoundTrips:
    def _assert_same_stream(self, left, right, image):
        assert left.compress(image).payload_bytes == (
            right.compress(image).payload_bytes
        )
        np.testing.assert_array_equal(
            left.compress(image).reconstructed,
            right.compress(image).reconstructed,
        )

    def test_jpeg_codecs(self, gray_image, rgb_image):
        gray = GrayscaleJpegCodec(
            QuantizationTable.standard_luminance(55), optimize_huffman=True
        )
        rebuilt = build_codec_from_spec(gray.spec())
        assert rebuilt.optimize_huffman
        self._assert_same_stream(gray, rebuilt, gray_image)

        color = ColorJpegCodec(
            QuantizationTable.standard_luminance(55),
            QuantizationTable.standard_chrominance(70),
            subsample_chroma=False,
        )
        rebuilt = build_codec_from_spec(color.spec())
        assert not rebuilt.subsample_chroma
        self._assert_same_stream(color, rebuilt, rgb_image)

    def test_baseline_compressors(self, gray_image):
        for compressor in (
            JpegCompressor(35),
            RemoveHighFrequencyCompressor(6, quality=90),
            SameQCompressor(8),
        ):
            rebuilt = build_codec_from_spec(compressor.spec())
            assert type(rebuilt) is type(compressor)
            assert rebuilt.name == compressor.name
            self._assert_same_stream(compressor, rebuilt, gray_image)

    def test_specs_survive_json_serialization(self, gray_image, fitted_deepn):
        import json

        spec = json.loads(json.dumps(fitted_deepn.spec()))
        rebuilt = build_codec_from_spec(spec)
        assert rebuilt.is_fitted
        assert (
            rebuilt.encode(gray_image).data
            == fitted_deepn.encode(gray_image).data
        )

    def test_unfitted_deepn_spec(self):
        pipeline = build_codec("deepn-jpeg")
        assert isinstance(pipeline, DeepNJpeg)
        assert not pipeline.is_fitted
        assert pipeline.spec()["design"] is None


class TestCodecForStack:
    def test_modality_dispatch(self):
        table = QuantizationTable.standard_luminance(80)
        assert isinstance(
            codec_for_stack(np.zeros((2, 8, 8)), table), GrayscaleJpegCodec
        )
        assert isinstance(
            codec_for_stack(np.zeros((2, 8, 8, 3)), table), ColorJpegCodec
        )

    def test_ambiguous_stack_rejected_in_strict_mode(self):
        table = QuantizationTable.standard_luminance(80)
        with pytest.raises(ValueError, match="ambiguous"):
            codec_for_stack(np.zeros((4, 8, 3)), table)
        # Dataset callers assert modality from dimensionality instead.
        assert isinstance(
            codec_for_stack(np.zeros((4, 8, 3)), table, strict=False),
            GrayscaleJpegCodec,
        )

    def test_bad_rank_rejected(self):
        table = QuantizationTable.standard_luminance(80)
        with pytest.raises(ValueError, match="stack"):
            codec_for_stack(np.zeros((8, 8)), table)

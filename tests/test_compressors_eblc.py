"""Per-EBLC behaviour beyond the shared contract (see test_error_bounds_property)."""

import numpy as np
import pytest

from repro import compress, decompress
from repro.compressors import SZ2, SZ3, QoZ, SZx, ZFP, get_compressor
from repro.errors import CompressionError, DecompressionError
from repro.metrics import check_error_bound, psnr


class TestSharedBehaviour:
    def test_roundtrip_all_ranks(self, eblc_name, any_field):
        eps = 1e-3
        buf = compress(np.array(any_field), eblc_name, eps)
        rec = decompress(buf)
        assert rec.shape == any_field.shape
        assert rec.dtype == any_field.dtype
        check_error_bound(any_field, rec, eps)

    def test_constant_array_exact(self, eblc_name):
        data = np.full((7, 9), 3.25, dtype=np.float32)
        buf = compress(data, eblc_name, 1e-2)
        rec = decompress(buf)
        np.testing.assert_array_equal(rec, data)
        assert buf.ratio > 3  # constant arrays must collapse

    def test_tighter_bound_lower_ratio_higher_psnr(self, eblc_name, smooth_3d):
        loose = compress(np.array(smooth_3d), eblc_name, 1e-1)
        tight = compress(np.array(smooth_3d), eblc_name, 1e-4)
        assert tight.ratio <= loose.ratio * 1.05
        p_loose = psnr(smooth_3d, decompress(loose))
        p_tight = psnr(smooth_3d, decompress(tight))
        assert p_tight > p_loose

    def test_rejects_bad_bound(self, eblc_name):
        comp = get_compressor(eblc_name)
        data = np.ones((4, 4), dtype=np.float32)
        with pytest.raises(CompressionError):
            comp.compress(data, 0.0)
        with pytest.raises(CompressionError):
            comp.compress(data, 1.5)

    def test_rejects_nonfinite(self, eblc_name):
        comp = get_compressor(eblc_name)
        data = np.array([1.0, np.nan, 2.0])
        with pytest.raises(CompressionError):
            comp.compress(data, 1e-3)

    def test_rejects_wrong_codec_stream(self, eblc_name, smooth_2d):
        buf = compress(np.array(smooth_2d), eblc_name, 1e-2)
        other = "sz3" if eblc_name != "sz3" else "zfp"
        with pytest.raises(DecompressionError):
            get_compressor(other).decompress(buf)

    def test_float64_inputs(self, eblc_name, noisy_3d):
        buf = compress(noisy_3d, eblc_name, 1e-3)
        rec = decompress(buf)
        assert rec.dtype == np.float64
        check_error_bound(noisy_3d, rec, 1e-3)


class TestSZ2:
    def test_mixed_predictors_used(self, rng):
        """Planar + walk data should engage both regression and Lorenzo."""
        i, j, k = np.meshgrid(*[np.arange(12)] * 3, indexing="ij")
        plane = 5.0 * i + 2.0 * j - k
        walk = np.cumsum(rng.standard_normal((12, 12, 12)), axis=0) * 3
        data = plane + walk
        buf = SZ2().compress(data, 1e-3)
        rec = SZ2().decompress(buf)
        check_error_bound(data, rec, 1e-3)

    def test_regression_bias_parameter(self, smooth_3d):
        biased = SZ2(regression_bias=100.0)  # effectively disable regression
        buf = biased.compress(np.array(smooth_3d), 1e-3)
        rec = biased.decompress(buf)
        check_error_bound(smooth_3d, rec, 1e-3)

    def test_4d_blocks(self, field_4d):
        buf = SZ2().compress(field_4d, 1e-3)
        check_error_bound(field_4d, SZ2().decompress(buf), 1e-3)


class TestSZ3:
    def test_beats_sz2_on_smooth_loose(self, smooth_3d):
        sz3 = SZ3().compress(np.array(smooth_3d), 1e-1)
        sz2 = SZ2().compress(np.array(smooth_3d), 1e-1)
        assert sz3.ratio > sz2.ratio * 0.8  # interpolation wins or ties

    def test_anchor_exactness(self):
        data = np.linspace(0, 100, 128).astype(np.float32).reshape(128)
        buf = SZ3().compress(data, 1e-2)
        rec = SZ3().decompress(buf)
        assert rec[0] == data[0]  # anchor stored exactly


class TestQoZ:
    def test_better_psnr_than_sz3_at_same_bound(self, smooth_3d):
        data = np.array(smooth_3d)
        q = psnr(data, QoZ().decompress(QoZ().compress(data, 1e-1)))
        s = psnr(data, SZ3().decompress(SZ3().compress(data, 1e-1)))
        assert q >= s - 0.5  # level tightening buys quality

    def test_params_travel_in_stream(self, smooth_2d):
        enc = QoZ(alpha=2.0, beta=8.0)
        buf = enc.compress(np.array(smooth_2d), 1e-2)
        dec = QoZ()  # default params; must use the stored ones
        rec = dec.decompress(buf)
        check_error_bound(smooth_2d, rec, 1e-2)
        np.testing.assert_array_equal(rec, enc.decompress(buf))

    def test_invalid_params(self):
        with pytest.raises(CompressionError):
            QoZ(alpha=0.5)

    def test_compress_to_psnr(self, smooth_3d):
        buf, achieved = QoZ().compress_to_psnr(np.array(smooth_3d), 70.0)
        assert achieved >= 70.0
        rec = QoZ().decompress(buf)
        assert psnr(smooth_3d, rec) >= 70.0


class TestZFP:
    def test_psnr_overachieves_bound(self, smooth_3d):
        """ZFP's fixed-accuracy mode typically lands well inside the bound."""
        data = np.array(smooth_3d)
        buf = ZFP().compress(data, 1e-2)
        rec = ZFP().decompress(buf)
        err = np.abs(rec.astype(np.float64) - data).max()
        bound = 1e-2 * (data.max() - data.min())
        assert err < bound  # strictly inside, usually by a wide margin

    def test_all_zero_blocks(self):
        data = np.zeros((8, 8, 8), dtype=np.float32)
        data[0, 0, 0] = 0.0
        buf = ZFP().compress(data + 1.0, 1e-3)  # constant -> shortcut path
        rec = ZFP().decompress(buf)
        np.testing.assert_array_equal(rec, data + 1.0)

    def test_zero_regions_cheap(self, rng):
        data = np.zeros((16, 16, 16))
        data[:4] = rng.standard_normal((4, 16, 16))
        buf = ZFP().compress(data, 1e-3)
        rec = ZFP().decompress(buf)
        check_error_bound(data, rec, 1e-3)
        np.testing.assert_array_equal(rec[8:], 0.0)

    def test_4d_as_3d_slabs(self, field_4d):
        buf = ZFP().compress(field_4d, 1e-3)
        check_error_bound(field_4d, ZFP().decompress(buf), 1e-3)

    @pytest.mark.parametrize("shape", [(64,), (16, 16), (8, 8, 8)])
    @pytest.mark.parametrize("scale", [1e-280, 1e-295, 1e-305, 1e-315])
    def test_subnormal_scale_fields(self, rng, shape, scale):
        """Block maxima below 2^-970 push 2^(PRECISION - e) past the double
        range; the fixed-point conversion must still round-trip in bound."""
        data = rng.standard_normal(shape) * scale
        buf = ZFP().compress(data, 1e-3)
        check_error_bound(data, ZFP().decompress(buf), 1e-3)


class TestSZx:
    def test_constant_blocks_detected(self):
        data = np.concatenate([np.full(256, 5.0), np.linspace(0, 50, 256)])
        buf = SZx().compress(data.astype(np.float32), 1e-2)
        rec = SZx().decompress(buf)
        check_error_bound(data.astype(np.float32), rec, 1e-2)

    def test_fastest_smallest_machinery(self, noisy_3d):
        """SZx streams have no entropy stage: size ~ fixed-width codes."""
        buf = SZx().compress(noisy_3d, 1e-3)
        rec = SZx().decompress(buf)
        check_error_bound(noisy_3d, rec, 1e-3)
        assert buf.ratio < 16  # noisy data cannot exceed the fixed-width floor

    def test_non_multiple_of_block(self, rng):
        data = rng.standard_normal(1000)  # not a multiple of 128
        buf = SZx().compress(data, 1e-2)
        rec = SZx().decompress(buf)
        assert rec.shape == (1000,)
        check_error_bound(data, rec, 1e-2)

import math
import struct

import numpy as np
import numpy.testing as npt
import pytest

from concepthead import data as dat
from concepthead.errors import ConfigError, FormatError


def small_config(**overrides):
    kwargs = dict(n_classes=3, n_concepts=6,
                  concepts_per_class=dat.block_concept_map(3, 6),
                  n_inputs=4, input_dim=8, noise_std=0.2, samples_per_class=5)
    kwargs.update(overrides)
    return dat.SynthConfig(**kwargs)


class TestSynthConfig:
    def test_block_map_partitions(self):
        cmap = dat.block_concept_map(4, 12)
        assert cmap == ((0, 1, 2), (3, 4, 5), (6, 7, 8), (9, 10, 11))

    def test_every_class_needs_concepts(self):
        with pytest.raises(ConfigError):
            small_config(concepts_per_class=((0, 1), (), (2, 3, 4, 5)))

    def test_coverage_required(self):
        with pytest.raises(ConfigError):
            small_config(concepts_per_class=((0,), (1,), (2,)))  # 3..5 uncovered

    def test_carrier_fraction_bounds(self):
        with pytest.raises(ConfigError):
            small_config(carrier_fraction=0.0)
        with pytest.raises(ConfigError):
            small_config(carrier_fraction=1.5)

    def test_orthogonalization_needs_room(self):
        with pytest.raises(ConfigError):
            small_config(input_dim=4)  # fewer dims than concepts

    @pytest.mark.parametrize("value", [math.nan, math.inf, -0.5])
    def test_noise_std_finite_and_non_negative(self, value):
        with pytest.raises(ConfigError, match="noise_std must be >= 0 and finite"):
            small_config(noise_std=value)

    @pytest.mark.parametrize("value", [0, -2])
    def test_n_inputs_positive(self, value):
        with pytest.raises(ConfigError, match=f"n_inputs must be >= 1, got {value}"):
            small_config(n_inputs=value)

    def test_carrier_count_ceil(self):
        assert small_config(carrier_fraction=1.0).n_carriers == 4
        assert small_config(carrier_fraction=0.5).n_carriers == 2
        assert small_config(carrier_fraction=0.3).n_carriers == 2  # ceil(1.2)


class TestGenSynthetic:
    def test_noiseless_full_carriers_hit_prototypes(self):
        cfg = small_config(noise_std=0.0, carrier_fraction=1.0)
        ds = dat.gen_synthetic(cfg, seed=3)
        protos = dat.make_prototypes(cfg, np.random.default_rng(3))
        for s in ds.samples:
            for row in s.features:
                npt.assert_array_equal(row, protos[s.concept])

    def test_same_seed_bitwise_identical(self):
        cfg = small_config()
        a = dat.gen_synthetic(cfg, seed=11)
        b = dat.gen_synthetic(cfg, seed=11)
        assert len(a) == len(b)
        for sa, sb in zip(a.samples, b.samples):
            assert np.array_equal(sa.features, sb.features)
            assert sa.label == sb.label and sa.concept == sb.concept
            assert np.array_equal(sa.h_spatial, sb.h_spatial)
            assert np.array_equal(sa.h_global, sb.h_global)

    def test_different_seed_differs(self):
        cfg = small_config()
        a = dat.gen_synthetic(cfg, seed=1)
        b = dat.gen_synthetic(cfg, seed=2)
        assert not np.array_equal(a.samples[0].features, b.samples[0].features)

    def test_class_recoverable_from_concept(self):
        cfg = dat.SynthConfig(n_classes=4, n_concepts=12,
                              concepts_per_class=dat.block_concept_map(4, 12),
                              n_inputs=4, input_dim=16, noise_std=0.1,
                              samples_per_class=10)
        ds = dat.gen_synthetic(cfg, seed=0)
        inverse = {c: cls for cls, subset in enumerate(cfg.concepts_per_class) for c in subset}
        assert all(inverse[s.concept] == s.label for s in ds.samples)

    def test_label_marginals_exact(self):
        cfg = small_config(samples_per_class=7)
        ds = dat.gen_synthetic(cfg, seed=5)
        counts = np.bincount([s.label for s in ds.samples], minlength=3)
        npt.assert_array_equal(counts, [7, 7, 7])

    def test_nearest_prototype_recovery_at_zero_noise(self):
        cfg = small_config(noise_std=0.0, carrier_fraction=0.5, samples_per_class=20)
        ds = dat.gen_synthetic(cfg, seed=9)
        protos = dat.make_prototypes(cfg, np.random.default_rng(9))
        for s in ds.samples:
            carriers = np.flatnonzero(s.h_spatial.sum(axis=1) > 0)
            for r in carriers:
                sims = protos @ s.features[r]
                assert int(np.argmax(sims)) == s.concept

    def test_prototypes_orthonormal(self):
        cfg = small_config()
        protos = dat.make_prototypes(cfg, np.random.default_rng(2))
        gram = protos @ protos.T
        npt.assert_allclose(gram, np.eye(cfg.n_concepts), atol=1e-10)


class TestBuildExplanations:
    def test_hand_case(self):
        h_spatial, h_global = dat.build_explanations(np.array([0]), concept=2,
                                                     n_inputs=2, n_concepts=3)
        npt.assert_array_equal(h_spatial, [[0, 0, 1], [0, 0, 0]])
        npt.assert_array_equal(h_global, [[0, 0, 1]])

    def test_full_carriers_all_rows_onehot(self):
        cfg = small_config(carrier_fraction=1.0)
        ds = dat.gen_synthetic(cfg, seed=4)
        for s in ds.samples:
            npt.assert_array_equal(s.h_spatial.sum(axis=1), np.ones(cfg.n_inputs))

    def test_spatial_mass_equals_carrier_count(self):
        cfg = small_config(carrier_fraction=0.6)  # ceil(2.4) = 3 carriers
        ds = dat.gen_synthetic(cfg, seed=4)
        for s in ds.samples:
            assert s.h_spatial.sum() == 3


class TestEmbFormat:
    def test_roundtrip_bytes(self, tmp_path):
        ds = dat.gen_synthetic(small_config(), seed=0)
        path = tmp_path / "data.emb"
        dat.write_emb(ds, str(path))
        blob = path.read_bytes()
        again = dat.emb_bytes(dat.read_emb(str(path)))
        assert blob == again

    def test_roundtrip_many_random_datasets(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            n, el, d = int(rng.integers(0, 4)), int(rng.integers(1, 4)), int(rng.integers(1, 4))
            c = int(rng.integers(1, 4))
            which = rng.integers(4)
            samples = []
            for _ in range(n):
                samples.append(dat.Sample(
                    features=rng.normal(size=(el, d)),
                    label=int(rng.integers(5)),
                    h_spatial=rng.uniform(size=(el, c)) if which in (1, 3) else None,
                    h_global=rng.uniform(size=(1, c)) if which in (2, 3) else None))
            ds = dat.Dataset(samples=samples, n_classes=5, n_concepts=c,
                             n_inputs=el, input_dim=d)
            blob = dat.emb_bytes(ds)
            assert dat.emb_bytes(dat.parse_emb(blob)) == blob

    def test_empty_dataset_valid(self):
        ds = dat.Dataset(samples=[], n_classes=0, n_concepts=0, n_inputs=2, input_dim=3)
        parsed = dat.parse_emb(dat.emb_bytes(ds))
        assert len(parsed) == 0
        assert parsed.n_inputs == 2 and parsed.input_dim == 3

    def test_hand_built_single_sample_file(self):
        # header: magic, version=1, N=1, L=2, D=2, C=0, no flags
        blob = struct.pack("<4sIIIIIB", b"CCTE", 1, 1, 2, 2, 0, 0)
        features = np.array([[1.5, -2.25], [0.5, 4.0]], dtype="<f4")
        blob += features.tobytes() + struct.pack("<I", 3)
        ds = dat.parse_emb(blob)
        assert len(ds) == 1
        sample = ds.samples[0]
        npt.assert_array_equal(sample.features, features.astype(np.float64))
        assert sample.label == 3
        assert sample.h_spatial is None and sample.h_global is None
        assert ds.n_classes == 4

    def test_bad_magic(self):
        with pytest.raises(FormatError, match="magic"):
            dat.parse_emb(b"XXXX" + b"\x00" * 40)

    def test_truncated_payload_reports_offset(self):
        ds = dat.gen_synthetic(small_config(samples_per_class=1), seed=0)
        blob = dat.emb_bytes(ds)
        with pytest.raises(FormatError, match="offset") as err:
            dat.parse_emb(blob[:len(blob) - 3])
        assert err.value.offset is not None

    def test_trailing_bytes_rejected(self):
        ds = dat.gen_synthetic(small_config(samples_per_class=1), seed=0)
        with pytest.raises(FormatError, match="trailing"):
            dat.parse_emb(dat.emb_bytes(ds) + b"\x00")

    def test_unknown_version(self):
        blob = struct.pack("<4sIIIIIB", b"CCTE", 9, 0, 1, 1, 0, 0)
        with pytest.raises(FormatError, match="version"):
            dat.parse_emb(blob)

    @pytest.mark.parametrize("n,el,d", [(0, 2**31, 0), (0, 2**20, 2**20), (1, 2**30, 4)])
    def test_oversized_dimensions_rejected(self, n, el, d):
        blob = struct.pack("<4sIIIIIB", b"CCTE", 1, n, el, d, 0, 0)
        with pytest.raises(FormatError, match="are too large") as err:
            dat.parse_emb(blob)
        assert err.value.offset == 12

    def test_float32_on_disk(self):
        # a float64 value that is not float32-representable gets rounded once
        sample = dat.Sample(features=np.array([[0.1]]), label=0)
        ds = dat.Dataset(samples=[sample], n_classes=1, n_concepts=0,
                         n_inputs=1, input_dim=1)
        parsed = dat.parse_emb(dat.emb_bytes(ds))
        assert parsed.samples[0].features[0, 0] == np.float32(0.1)


class TestEmbWriterChecks:
    """emb_bytes refuses what parse_emb would misread, naming the sample."""

    def dataset(self):
        return dat.gen_synthetic(small_config(samples_per_class=1), seed=0)  # L=4, C=6

    def test_spatial_targets_of_other_widths(self):
        # widths 7 and 5 add up to the right file length; the reader would shift sample 1
        ds = self.dataset()
        ds.samples[0].h_spatial = np.zeros((4, 7))
        ds.samples[1].h_spatial = np.zeros((4, 5))
        with pytest.raises(FormatError, match=r"sample 0 h_spatial shape \(4, 7\) does not "
                                              r"match dataset \(4, 6\)"):
            dat.emb_bytes(ds)

    @pytest.mark.parametrize("shape", [(6,), (2, 6), (1, 5)])
    def test_global_target_shape(self, shape):
        ds = self.dataset()
        ds.samples[2].h_global = np.zeros(shape)
        with pytest.raises(FormatError, match=r"sample 2 h_global shape .* does not match "
                                              r"dataset \(1, 6\)"):
            dat.emb_bytes(ds)

    @pytest.mark.parametrize("label", [-1, 2**32, 1.5])
    def test_label_outside_u32(self, label):
        ds = self.dataset()
        ds.samples[1].label = label
        with pytest.raises(FormatError, match=r"sample 1 label .* is not an integer in \[0, 2\*\*32\)"):
            dat.emb_bytes(ds)

    def test_largest_u32_label_round_trips(self):
        ds = self.dataset()
        ds.samples[1].label = np.uint32(2**32 - 1)
        assert dat.parse_emb(dat.emb_bytes(ds)).samples[1].label == 2**32 - 1


class TestNonFinitePayload:
    @pytest.mark.parametrize("field", ["features", "h_spatial", "h_global"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_rejected_with_sample_and_field(self, field, value):
        ds = dat.gen_synthetic(small_config(samples_per_class=2), seed=0)
        getattr(ds.samples[3], field)[0, 1] = value
        blob = dat.emb_bytes(ds)
        with pytest.raises(FormatError, match=f"sample 3 has non-finite {field} values") as err:
            dat.parse_emb(blob)
        assert err.value.offset is not None and err.value.offset < len(blob)

    def test_signaling_nan_rejected_without_warning(self):
        ds = dat.gen_synthetic(small_config(samples_per_class=2), seed=0)
        blob = bytearray(dat.emb_bytes(ds))
        at = 25 + 4 * 5  # sample 0, features[0, 5]
        blob[at:at + 4] = struct.pack("<I", 0x7F800001)  # float32 signaling NaN
        with pytest.raises(FormatError, match="sample 0 has non-finite features"):
            dat.parse_emb(bytes(blob))  # pytest turns a RuntimeWarning into an error

    def test_first_bad_sample_is_named(self):
        ds = dat.gen_synthetic(small_config(samples_per_class=2), seed=0)
        ds.samples[2].h_global[0, 0] = np.nan
        ds.samples[1].features[1, 0] = np.inf
        with pytest.raises(FormatError, match="sample 1 has non-finite features"):
            dat.parse_emb(dat.emb_bytes(ds))

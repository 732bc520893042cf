import dataclasses
import math
import struct
import tracemalloc

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

    def test_n_classes_positive(self):
        # zero classes would leave targets of zero concepts, which no file holds
        with pytest.raises(ConfigError, match="n_classes must be >= 1, got 0"):
            small_config(n_classes=0, n_concepts=0, concepts_per_class=())

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
        for features, h_global in zip(ds.features, ds.h_global):
            for row in features:
                npt.assert_array_equal(row, protos[h_global.argmax()])

    def test_same_seed_bitwise_identical(self):
        cfg = small_config()
        a = dat.gen_synthetic(cfg, seed=11)
        b = dat.gen_synthetic(cfg, seed=11)
        assert len(a) == len(b)
        for name in ("features", "labels", "h_spatial", "h_global"):
            assert np.array_equal(getattr(a, name), getattr(b, name)), name

    def test_different_seed_differs(self):
        cfg = small_config()
        a = dat.gen_synthetic(cfg, seed=1)
        b = dat.gen_synthetic(cfg, seed=2)
        assert not np.array_equal(a.features[0], b.features[0])

    def test_class_recoverable_from_concept(self):
        cfg = dat.SynthConfig(n_classes=4, n_concepts=12,
                              concepts_per_class=dat.block_concept_map(4, 12),
                              n_inputs=4, input_dim=16, noise_std=0.1,
                              samples_per_class=10)
        ds = dat.gen_synthetic(cfg, seed=0)
        inverse = {c: cls for cls, subset in enumerate(cfg.concepts_per_class) for c in subset}
        concepts = ds.h_global[:, 0].argmax(axis=-1).tolist()
        assert [inverse[c] for c in concepts] == ds.labels.tolist()

    def test_label_marginals_exact(self):
        cfg = small_config(samples_per_class=7)
        ds = dat.gen_synthetic(cfg, seed=5)
        counts = np.bincount(ds.labels, minlength=3)
        npt.assert_array_equal(counts, [7, 7, 7])

    def test_nearest_prototype_recovery_at_zero_noise(self):
        cfg = small_config(noise_std=0.0, carrier_fraction=0.5, samples_per_class=20)
        ds = dat.gen_synthetic(cfg, seed=9)
        protos = dat.make_prototypes(cfg, np.random.default_rng(9))
        for features, h_spatial, h_global in zip(ds.features, ds.h_spatial, ds.h_global):
            carriers = np.flatnonzero(h_spatial.sum(axis=1) > 0)
            for r in carriers:
                sims = protos @ features[r]
                assert int(np.argmax(sims)) == h_global.argmax()

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
        npt.assert_array_equal(ds.h_spatial.sum(axis=2), np.ones((len(ds), cfg.n_inputs)))

    def test_spatial_mass_equals_carrier_count(self):
        cfg = small_config(carrier_fraction=0.6)  # ceil(2.4) = 3 carriers
        ds = dat.gen_synthetic(cfg, seed=4)
        npt.assert_array_equal(ds.h_spatial.sum(axis=(1, 2)), np.full(len(ds), 3.0))


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
            features, labels = np.empty((n, el, d)), np.empty(n, dtype=np.int64)
            h_spatial = np.empty((n, el, c)) if which in (1, 3) else None
            h_global = np.empty((n, 1, c)) if which in (2, 3) else None
            for i in range(n):  # the draws of one sample, in sample order
                features[i] = rng.normal(size=(el, d))
                labels[i] = rng.integers(5)
                if h_spatial is not None:
                    h_spatial[i] = rng.uniform(size=(el, c))
                if h_global is not None:
                    h_global[i] = rng.uniform(size=(1, c))
            ds = dat.Dataset(features, labels, h_spatial, h_global, n_classes=5, n_concepts=c)
            blob = dat.emb_bytes(ds)
            assert dat.emb_bytes(dat.parse_emb(blob)) == blob

    def test_empty_dataset_valid(self):
        ds = dat.Dataset(np.zeros((0, 2, 3)), np.zeros(0, dtype=np.int64))
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
        npt.assert_array_equal(ds.features, features.astype(np.float64)[None])
        npt.assert_array_equal(ds.labels, [3])
        assert ds.h_spatial is None and ds.h_global is None
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

    @pytest.mark.parametrize("size", range(25))
    def test_cut_header_names_the_first_short_field(self, size):
        """A valid file cut inside its 25-byte header: "truncated payload" at
        the offset of the first field that is not whole (the u32s at 4, 8,
        ..., 20, the flags byte at 24)."""
        ds = dat.gen_synthetic(small_config(samples_per_class=1), seed=0)
        with pytest.raises(FormatError) as err:
            dat.parse_emb(dat.emb_bytes(ds)[:size])
        offset = min(size - size % 4, 24)
        assert err.value.offset == offset
        assert str(err.value) == f"truncated payload (at byte offset {offset})"

    @pytest.mark.parametrize("size", range(4, 10))
    def test_cut_header_checks_magic_and_version_first(self, size):
        """The magic, once whole, is checked before any later field is
        missed, and so is the version."""
        with pytest.raises(FormatError) as err:
            dat.parse_emb((b"CCTX" + struct.pack("<I", 1))[:size])
        assert (str(err.value), err.value.offset) == ("bad magic b'CCTX' (at byte offset 0)", 0)
        with pytest.raises(FormatError) as err:
            dat.parse_emb((b"CCTE" + struct.pack("<I", 7) + b"\0")[:size])
        want = ("truncated payload (at byte offset 4)" if size < 8
                else "unsupported version 7 (at byte offset 4)")
        assert (str(err.value), err.value.offset) == (want, 4)

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
        ds = dat.Dataset(np.array([[[0.1]]]), np.array([0]), n_classes=1)
        parsed = dat.parse_emb(dat.emb_bytes(ds))
        assert parsed.features[0, 0, 0] == np.float32(0.1)


def recovery_shaped_blob():
    """The EMB1 bytes of 2000 samples shaped as the recovery benchmark's:
    8 x 32 features, 12 concepts, spatial and global targets."""
    rng = np.random.default_rng(0)
    n, rows, dim, concepts = 2000, 8, 32, 12
    concept = rng.integers(concepts, size=n)
    one_hot = np.eye(concepts)[concept][:, None, :]
    ds = dat.Dataset(rng.standard_normal((n, rows, dim)), concept % 4,
                     np.repeat(one_hot, rows, axis=1), one_hot, n_classes=4,
                     n_concepts=concepts)
    return dat.emb_bytes(ds)


class TestParsedColumns:
    """parse_emb's float columns are float32 views of the bytes it parses:
    a parsed dataset holds no copy of the file."""

    def test_float_columns_are_read_only_views_of_the_bytes(self):
        ds = dat.gen_synthetic(small_config(samples_per_class=2), seed=0)
        blob = dat.emb_bytes(ds)
        parsed = dat.parse_emb(blob)
        raw = np.frombuffer(blob, np.uint8)
        for name in ("features", "h_spatial", "h_global"):
            column = getattr(parsed, name)
            assert column.dtype == np.float32
            assert np.shares_memory(column, raw)
            assert not column.flags.writeable
            npt.assert_array_equal(column, getattr(ds, name).astype(np.float32))
        assert parsed.labels.dtype == np.int64
        assert not np.shares_memory(parsed.labels, raw)

    def test_parse_allocates_no_column(self):
        # the parent widened every float column to float64: twice the file
        blob = recovery_shaped_blob()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            parsed = dat.parse_emb(blob)  # alive while measured
            kept, peak = (value - before for value in tracemalloc.get_traced_memory())
        finally:
            tracemalloc.stop()
        assert len(parsed) == 2000
        assert kept < 0.01 * len(blob)
        assert peak < 0.25 * len(blob)


class TestEmbWriterChecks:
    """What emb_bytes would write wrong never reaches a file: a target shape
    parse_emb would misread is refused when the dataset is built, and a
    label outside u32 by emb_bytes, naming the sample."""

    def dataset(self):
        return dat.gen_synthetic(small_config(samples_per_class=1), seed=0)  # L=4, C=6

    def test_spatial_targets_of_other_widths(self):
        # a file's records share one width, and so does the column; one of
        # another width than the dataset's C would shift every later sample
        ds = self.dataset()
        with pytest.raises(ConfigError, match=r"^h_spatial must be float32 or float64 of shape "
                                              r"\(3, 4, 6\), got float64 of shape \(3, 4, 7\)$"):
            dataclasses.replace(ds, h_spatial=np.zeros((3, 4, 7)))

    @pytest.mark.parametrize("shape", [(6,), (2, 6), (1, 5)])
    def test_global_target_shape(self, shape):
        ds = self.dataset()
        with pytest.raises(ConfigError, match=r"^h_global must be float32 or float64 of shape "
                                              r"\(3, 1, 6\), got float64 of shape "):
            dataclasses.replace(ds, h_global=np.zeros((3, *shape)))

    @pytest.mark.parametrize("label", [-1, 2**32, 1.5])
    def test_label_outside_u32(self, label):
        ds = self.dataset()
        labels = np.array([0, label, 2])
        if labels.dtype.kind == "f":  # a float label cannot enter a dataset
            with pytest.raises(ConfigError, match=r"^labels must be int64 of shape \(3,\)"):
                dataclasses.replace(ds, labels=labels)
            return
        ds = dataclasses.replace(ds, labels=labels)
        with pytest.raises(FormatError, match=r"sample 1 label .* is not an integer in \[0, 2\*\*32\)"):
            dat.emb_bytes(ds)

    def test_largest_u32_label_round_trips(self):
        ds = self.dataset()
        ds.labels[1] = 2**32 - 1
        assert dat.parse_emb(dat.emb_bytes(ds)).labels[1] == 2**32 - 1


class TestEmptyAndConceptless:
    """Every file emb_bytes writes parses back into a dataset it writes to
    the same bytes, and a target column needs at least one concept."""

    @pytest.mark.parametrize("flags", [0, 1, 2, 3])
    def test_empty_file_round_trips(self, flags):
        blob = struct.pack("<4sIIIIIB", dat.EMB_MAGIC, dat.EMB_VERSION, 0, 4, 3,
                           6 if flags else 0, flags)
        ds = dat.parse_emb(blob)
        assert (ds.h_spatial is not None, ds.h_global is not None) == (bool(flags & 1),
                                                                       bool(flags & 2))
        assert dat.emb_bytes(ds) == blob

    def test_empty_dataset_keeps_its_targets(self):
        ds = dat.gen_synthetic(small_config(samples_per_class=1), seed=0)  # L=4, C=6
        empty = dat.Dataset(ds.features[:0], ds.labels[:0], ds.h_spatial[:0],
                            ds.h_global[:0], n_classes=3, n_concepts=6)
        back = dat.parse_emb(dat.emb_bytes(empty))
        assert back.h_spatial.shape == (0, 4, 6) and back.h_global.shape == (0, 1, 6)
        assert back.n_concepts == 6

    @pytest.mark.parametrize("field,shape", [("h_spatial", (2, 4, 0)), ("h_global", (2, 1, 0))])
    def test_target_column_of_zero_concepts(self, field, shape):
        with pytest.raises(ConfigError, match=f"^{field} needs n_concepts >= 1, got 0$"):
            dat.Dataset(np.zeros((2, 4, 3)), np.zeros(2, dtype=np.int64),
                        n_concepts=0, **{field: np.zeros(shape)})


class TestDatasetColumns:
    """A Dataset holds one array per field, and refuses at construction any
    column of another shape or dtype, naming it."""

    def dataset(self):
        return dat.gen_synthetic(small_config(samples_per_class=1), seed=0)  # N=3, L=4, C=6

    def test_shape_properties(self):
        ds = self.dataset()
        assert (len(ds), ds.n_inputs, ds.input_dim) == (3, 4, 8)
        assert ds.features.dtype == np.float64 and ds.labels.dtype == np.int64
        assert ds.h_spatial.shape == (3, 4, 6) and ds.h_global.shape == (3, 1, 6)

    @pytest.mark.parametrize("labels", [
        np.array([True, False, True]),   # emb_bytes would write True as class 1
        np.array([0.0, 1.0, 2.0]),
        np.array([[0, 1, 2]]),
        np.array([0, 1]),
        np.array([0, 1, 2], dtype=np.int32),
        [0, 1, 2],
    ], ids=["bool", "float", "2-D", "short", "int32", "list"])
    def test_labels_must_be_int64_one_per_sample(self, labels):
        with pytest.raises(ConfigError, match=r"^labels must be int64 of shape \(3,\), got "):
            dataclasses.replace(self.dataset(), labels=labels)

    def test_features_must_be_three_dimensional(self):
        with pytest.raises(ConfigError, match=r"^features must be float32 or float64 of shape "
                                              r"\(N, L, D\), got float64 of shape \(3, 32\)$"):
            dataclasses.replace(self.dataset(), features=np.zeros((3, 32)))

    @pytest.mark.parametrize("name", ["features", "h_spatial", "h_global"])
    def test_float_columns_are_float32_or_float64(self, name):
        # a parsed dataset holds float32 columns, a generated one float64
        ds = self.dataset()
        column = getattr(ds, name)
        for dtype in (np.float32, np.float64):
            kept = dataclasses.replace(ds, **{name: column.astype(dtype)})
            assert getattr(kept, name).dtype == dtype
        for dtype in (np.float16, np.int64):
            with pytest.raises(ConfigError, match=f"^{name} must be float32 or float64 of shape "
                                                  f".*, got {np.dtype(dtype).name} of shape "):
                dataclasses.replace(ds, **{name: column.astype(dtype)})

    @pytest.mark.parametrize("name,shape", [("h_spatial", (3, 5, 6)), ("h_spatial", (2, 4, 6)),
                                            ("h_spatial", (3, 6)), ("h_global", (3, 4, 6)),
                                            ("h_global", (3, 6))])
    def test_targets_must_match_features_and_concepts(self, name, shape):
        with pytest.raises(ConfigError, match=f"^{name} must be float32 or float64 of shape "):
            dataclasses.replace(self.dataset(), **{name: np.zeros(shape)})

    def test_targets_must_share_their_concept_count(self):
        ds = self.dataset()
        with pytest.raises(ConfigError, match=r"^h_global must be float32 or float64 of shape "
                                              r"\(3, 1, 6\), got float64 of shape \(3, 1, 5\)$"):
            dataclasses.replace(ds, h_global=np.zeros((3, 1, 5)))
        with pytest.raises(ConfigError, match=r"^h_spatial .* got float64 of shape \(3, 4, 5\)$"):
            dataclasses.replace(ds, h_spatial=np.zeros((3, 4, 5)), h_global=np.zeros((3, 1, 5)))

    def test_a_target_for_only_some_samples_is_refused(self):
        ds = self.dataset()
        with pytest.raises(ConfigError,
                           match=r"^h_global must be float32 or float64 of shape .*, got list$"):
            dataclasses.replace(ds, h_global=[ds.h_global[0], None, ds.h_global[2]])

    def test_samples_are_a_read_only_view(self):
        ds = self.dataset()
        rows = ds.samples
        assert [s.label for s in rows] == ds.labels.tolist()
        npt.assert_array_equal(rows[2].features, ds.features[2])
        npt.assert_array_equal(rows[1].h_global, ds.h_global[1])
        with pytest.raises(dataclasses.FrozenInstanceError):
            rows[1].label = 0
        with pytest.raises(ValueError, match="read-only"):
            rows[1].features[0, 0] = 1.0
        ds.features[1, 0, 0] = 5.0  # the columns stay writable
        assert ds.samples[1].features[0, 0] == 5.0


def test_emb_writers_agree(workloads):
    """A file from the benchmark's structured-array writer parses into the
    float32-rounded columns it was built from and is written back unchanged."""
    wl = workloads
    rng = np.random.default_rng(4)
    protos = np.linalg.qr(rng.standard_normal((wl.DIM, wl.N_CONCEPTS)))[0].T
    features, labels, concepts = wl.planted_concepts(rng, protos, 10, 5)
    blob = wl.emb1_bytes(features, labels, concepts)
    ds = dat.parse_emb(blob)
    assert dat.emb_bytes(ds) == blob
    npt.assert_array_equal(ds.features, features.astype(np.float32))
    npt.assert_array_equal(ds.labels, labels)
    one_hot = np.eye(wl.N_CONCEPTS)[concepts][:, None, :]
    npt.assert_array_equal(ds.h_spatial, np.broadcast_to(one_hot, (10, 5, wl.N_CONCEPTS)))
    npt.assert_array_equal(ds.h_global, one_hot)
    assert (ds.n_classes, ds.n_concepts) == (wl.N_CLASSES, wl.N_CONCEPTS)


def poked(ds, *values):
    """The EMB1 bytes of ds with (field, sample, row, column, value) entries
    set in the file, past the writer's checks."""
    blob = bytearray(dat.emb_bytes(ds))
    record = dat._record(ds.n_inputs, ds.input_dim, ds.n_concepts, ds.h_spatial is not None,
                         ds.h_global is not None)
    records = np.frombuffer(blob, record, offset=25)
    for field, i, row, column, value in values:
        records[field][i, row, column] = value
    return bytes(blob)


class TestNonFinitePayload:
    @pytest.mark.parametrize("field", ["features", "h_spatial", "h_global"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_rejected_with_sample_and_field(self, field, value):
        ds = dat.gen_synthetic(small_config(samples_per_class=2), seed=0)
        blob = poked(ds, (field, 3, 0, 1, value))
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
        blob = poked(ds, ("h_global", 2, 0, 0, np.nan), ("features", 1, 1, 0, np.inf))
        with pytest.raises(FormatError, match="sample 1 has non-finite features"):
            dat.parse_emb(blob)


class TestEmbWriterFinite:
    """emb_bytes refuses what its reader would: a value that is NaN or Inf
    once cast to float32, named by its first sample and column, before any
    byte is written."""

    @pytest.mark.parametrize("field,value", [("features", 1e39), ("features", -1e39),
                                             ("h_spatial", np.nan), ("h_global", np.inf)])
    def test_refused_with_sample_and_column(self, tmp_path, field, value):
        ds = dat.gen_synthetic(small_config(samples_per_class=2), seed=0)
        getattr(ds, field)[4, 0, 2] = value
        getattr(ds, field)[5, 0, 0] = value
        text = f"^sample 4 has {field} values that are not finite in float32$"
        with pytest.raises(FormatError, match=text):
            dat.emb_bytes(ds)  # and the cast warns of nothing: warnings are errors here
        with pytest.raises(FormatError, match=text):
            dat.write_emb(ds, str(tmp_path / "x.emb"))
        assert not (tmp_path / "x.emb").exists()

    def test_first_sample_then_first_column(self):
        ds = dat.gen_synthetic(small_config(samples_per_class=2), seed=0)
        ds.h_global[1, 0, 0] = np.nan
        ds.h_spatial[1, 3, 5] = np.nan
        ds.features[2, 0, 0] = 1e39
        with pytest.raises(FormatError, match="^sample 1 has h_spatial values"):
            dat.emb_bytes(ds)

    def test_largest_float32_is_kept(self):
        ds = dat.gen_synthetic(small_config(samples_per_class=2), seed=0)
        ds.features[1, 0, 0] = float(np.finfo(np.float32).max)
        assert dat.parse_emb(dat.emb_bytes(ds)).features[1, 0, 0] == np.finfo(np.float32).max

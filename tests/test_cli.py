import errno
import os

import numpy as np
import pytest

import composed
from concepthead import autodiff as ad
from concepthead import cli
from concepthead import data as dat
from concepthead import head as hd
from concepthead import metrics as mt
from concepthead import trainer as tr
from concepthead.autodiff import Tensor
from concepthead.losses import LossWeights


def run(argv):
    return cli.main(argv)


@pytest.fixture
def tiny_emb(tmp_path):
    path = tmp_path / "train.emb"
    code = run(["gen-data", "--out", str(path), "--seed", "3", "--classes", "2",
                "--concepts", "4", "--features", "3", "--feature-dim", "6",
                "--noise-std", "0.2", "--samples-per-class", "6"])
    assert code == 0
    return str(path)


def train_args(data_path, out_dir, extra=()):
    return ["train", "--data", data_path, "--out", out_dir, "--epochs", "2",
            "--batch-size", "4", "--lr", "1e-3", "--warmup", "2",
            "--slot-dim", "4", "--variant", "sa", "--seed", "5", *extra]


class TestGenData:
    def test_writes_parseable_file(self, tiny_emb):
        ds = dat.read_emb(tiny_emb)
        assert len(ds) == 12
        assert ds.n_concepts == 4
        assert ds.h_spatial is not None

    def test_unknown_flag_exits_2(self, tmp_path):
        assert run(["gen-data", "--out", str(tmp_path / "x.emb"), "--bogus"]) == 2

    def test_missing_required_path_exits_2(self):
        assert run(["gen-data"]) == 2


class TestTrainEvalExplain:
    def test_full_pipeline(self, tiny_emb, tmp_path, capsys):
        from concepthead import metrics as mt
        out_dir = str(tmp_path / "run")
        assert run(train_args(tiny_emb, out_dir)) == 0
        csv_path = os.path.join(out_dir, "metrics.csv")
        lines = open(csv_path).read().splitlines()
        assert lines[0] == mt.METRICS_HEADER
        assert [line.split(",")[0] for line in lines[1:]] == ["1", "2"]  # one row per epoch
        ckpt = os.path.join(out_dir, "model.cctk")
        assert os.path.exists(ckpt)

        assert run(["eval", "--data", tiny_emb, "--checkpoint", ckpt]) == 0
        printed = capsys.readouterr().out
        assert "class_acc=" in printed and "mean_entropy=" in printed

        explain_dir = str(tmp_path / "explain")
        assert run(["explain", "--data", tiny_emb, "--checkpoint", ckpt,
                    "--out", explain_dir, "--topk", "2", "--limit", "3"]) == 0
        assert os.path.exists(os.path.join(explain_dir, "sample_0000.pgm"))
        assert os.path.exists(os.path.join(explain_dir, "sample_0002.csv"))
        topk = open(os.path.join(explain_dir, "topk.csv")).read().splitlines()
        assert topk[0] == "sample_index,rank,concept_index,gamma_value"
        assert len(topk) == 1 + 3 * 2  # three samples, two ranks each

    def test_identical_train_runs_byte_identical_csv(self, tiny_emb, tmp_path):
        out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
        assert run(train_args(tiny_emb, out_a)) == 0
        assert run(train_args(tiny_emb, out_b)) == 0
        csv_a = open(os.path.join(out_a, "metrics.csv"), "rb").read()
        csv_b = open(os.path.join(out_b, "metrics.csv"), "rb").read()
        assert csv_a == csv_b

    @pytest.mark.parametrize("command", ["train", "eval", "explain"])
    def test_empty_dataset_usage_error(self, tmp_path, tiny_emb, capsys, command):
        empty = dat.Dataset(np.zeros((0, 3, 6)), np.zeros(0, dtype=np.int64))
        empty_path = str(tmp_path / "empty.emb")
        dat.write_emb(empty, empty_path)
        out_dir = str(tmp_path / "run")
        assert run(train_args(tiny_emb, out_dir)) == 0
        ckpt = os.path.join(out_dir, "model.cctk")
        argv = (train_args(empty_path, str(tmp_path / "again")) if command == "train"
                else [command, "--data", empty_path, "--checkpoint", ckpt])
        capsys.readouterr()
        assert run(argv) == 2
        assert capsys.readouterr().err == f"error: dataset is empty: {empty_path}\n"

    def test_runtime_failure_exits_1(self, tiny_emb, tmp_path):
        bad_ckpt = tmp_path / "bad.cctk"
        bad_ckpt.write_bytes(b"not a checkpoint")
        assert run(["eval", "--data", tiny_emb, "--checkpoint", str(bad_ckpt)]) == 1

    def test_eval_label_beyond_model_classes_exits_1(self, tiny_emb, tmp_path, capsys):
        wider = str(tmp_path / "wider.emb")
        assert run(["gen-data", "--out", wider, "--seed", "3", "--classes", "3",
                    "--concepts", "4", "--features", "3", "--feature-dim", "6",
                    "--samples-per-class", "6"]) == 0
        out_dir = str(tmp_path / "run")
        assert run(train_args(tiny_emb, out_dir)) == 0  # a two-class model
        ckpt = os.path.join(out_dir, "model.cctk")
        capsys.readouterr()
        assert run(["eval", "--data", wider, "--checkpoint", ckpt]) == 1
        assert "sample 12 has label 2" in capsys.readouterr().err

    def test_heads_below_one_exits_1(self, tiny_emb, tmp_path, capsys):
        assert run(train_args(tiny_emb, str(tmp_path / "run"), ["--heads", "0"])) == 1
        assert "heads must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("flag,value", [("--topk", "0"), ("--topk", "-1"),
                                            ("--limit", "-1")])
    def test_explain_rejects_out_of_range_flag(self, tiny_emb, tmp_path, capsys, flag, value):
        out_dir = str(tmp_path / "run")
        assert run(train_args(tiny_emb, out_dir)) == 0
        capsys.readouterr()
        explain_dir = tmp_path / "explain"
        assert run(["explain", "--data", tiny_emb,
                    "--checkpoint", os.path.join(out_dir, "model.cctk"),
                    "--out", str(explain_dir), flag, value]) == 1
        assert f"{flag} must be >= " in capsys.readouterr().err
        assert not explain_dir.exists()

    def test_missing_dataset_exits_1(self, tmp_path):
        assert run(["train", "--data", str(tmp_path / "missing.emb"),
                    "--out", str(tmp_path)]) == 1

    def test_paper_default_flags(self, tiny_emb, tmp_path):
        # defaults taken by train when flags are omitted
        parser = cli.build_parser()
        args = parser.parse_args(["train", "--data", tiny_emb])
        assert args.lambda_expl == 1.0
        assert args.lambda_sparse == 0.5
        assert args.warmup == 10
        assert args.weight_decay == 1e-3
        assert args.batch_size == 64
        assert args.lr == 5e-5

    def test_main_calls_do_not_share_parsed_values(self, monkeypatch):
        seen = []
        monkeypatch.setitem(cli._COMMANDS, "eval", lambda args: seen.append(args) or 0)
        assert run(["eval", "--data", "a.emb", "--checkpoint", "a.cctk", "--seed", "3"]) == 0
        assert run(["eval", "--data", "b.emb", "--checkpoint", "b.cctk"]) == 0
        first, second = seen
        assert first is not second
        assert (first.data, first.checkpoint, first.seed) == ("a.emb", "a.cctk", 3)
        assert (second.data, second.checkpoint, second.seed) == ("b.emb", "b.cctk", 0)
        assert cli._parser() is cli._parser()

    def test_train_without_hyperparameter_flags_uses_dataclass_defaults(
            self, tiny_emb, tmp_path, monkeypatch):
        seen = []

        def fit(dataset, cfg, on_epoch=None):
            seen.append(cfg)
            return tr.init_train_state(cfg), []

        monkeypatch.setattr(tr, "fit", fit)
        assert run(["train", "--data", tiny_emb, "--out", str(tmp_path)]) == 0
        [cfg] = seen
        assert cfg == tr.TrainConfig(head=cfg.head)
        assert cfg.weights == LossWeights()


def assert_one_error_line(capsys, text):
    err = capsys.readouterr().err
    assert err.splitlines() == [f"error: {text}"], err


class TestBoundaryValues:
    """Out-of-range flag values and unreadable checkpoints end in exit 1 and
    one error line."""

    @pytest.fixture
    def ckpt(self, tiny_emb, tmp_path):
        out_dir = str(tmp_path / "run")
        assert run(train_args(tiny_emb, out_dir)) == 0
        return os.path.join(out_dir, "model.cctk")

    @pytest.mark.parametrize("command,seed", [("gen-data", "-3"), ("train", "-1"),
                                              ("eval", "-2"), ("explain", "-2")])
    def test_negative_seed(self, tiny_emb, ckpt, tmp_path, capsys, command, seed):
        argv = {"gen-data": ["gen-data", "--out", str(tmp_path / "x.emb")],
                "train": train_args(tiny_emb, str(tmp_path / "t")),
                "eval": ["eval", "--data", tiny_emb, "--checkpoint", ckpt],
                "explain": ["explain", "--data", tiny_emb, "--checkpoint", ckpt,
                            "--out", str(tmp_path / "x")]}[command]
        capsys.readouterr()
        assert run(argv + ["--seed", seed]) == 1
        assert_one_error_line(capsys, f"--seed must be >= 0, got {seed}")

    def test_negative_prototype_seed(self, tmp_path, capsys):
        assert run(["gen-data", "--out", str(tmp_path / "x.emb"),
                    "--prototype-seed", "-1"]) == 1
        assert_one_error_line(capsys, "--prototype-seed must be >= 0, got -1")
        assert not (tmp_path / "x.emb").exists()

    @pytest.mark.parametrize("flag,text", [
        ("--lr", "lr must be positive and finite, got nan"),
        ("--weight-decay", "weight_decay must be finite, got nan"),
        ("--lambda-expl", "loss weight lambda_expl must be non-negative and finite, got nan"),
        ("--lambda-sparse",
         "loss weight lambda_sparse must be non-negative and finite, got nan")])
    def test_train_nan_hyperparameter(self, tiny_emb, tmp_path, capsys, flag, text):
        out_dir = tmp_path / "run"
        capsys.readouterr()
        assert run(train_args(tiny_emb, str(out_dir), [flag, "nan"])) == 1
        assert_one_error_line(capsys, text)
        assert not out_dir.exists()

    def test_train_negative_weight_decay(self, tiny_emb, tmp_path, capsys):
        out_dir = tmp_path / "run"
        capsys.readouterr()
        assert run(train_args(tiny_emb, str(out_dir), ["--weight-decay", "-0.5"])) == 1
        assert_one_error_line(capsys, "weight_decay must be >= 0, got -0.5")
        assert not out_dir.exists()

    def test_gen_data_nan_noise(self, tmp_path, capsys):
        assert run(["gen-data", "--out", str(tmp_path / "x.emb"), "--noise-std", "nan"]) == 1
        assert_one_error_line(capsys, "noise_std must be >= 0 and finite, got nan")

    def test_gen_data_noise_beyond_float32(self, tmp_path, capsys):
        out = tmp_path / "x.emb"
        assert run(["gen-data", "--out", str(out), "--noise-std", "1e39"]) == 1
        assert_one_error_line(capsys, "sample 0 has features values that are not finite "
                                      "in float32")
        assert not out.exists()

    def test_gen_data_zero_features(self, tmp_path, capsys):
        out = tmp_path / "x.emb"
        assert run(["gen-data", "--out", str(out), "--features", "0",
                    "--samples-per-class", "2"]) == 1
        assert_one_error_line(capsys, "n_inputs must be >= 1, got 0")
        assert not out.exists()

    def test_eval_non_finite_checkpoint_tensor(self, tiny_emb, ckpt, tmp_path, capsys):
        state, cfg = tr.load_checkpoint(ckpt)
        state.params.spatial.slot.wq.data[1, 2] = np.inf
        bad = str(tmp_path / "inf.cctk")
        with open(bad, "wb") as fh:
            fh.write(composed.unchecked_checkpoint_bytes(state, cfg))
        capsys.readouterr()
        assert run(["eval", "--data", tiny_emb, "--checkpoint", bad]) == 1
        assert_one_error_line(capsys,
                              "checkpoint tensor 'spatial.slot.wq' holds non-finite values")

    @pytest.mark.parametrize("existing", [False, True])
    def test_train_overflowing_step_writes_no_checkpoint(self, tiny_emb, tmp_path, capsys,
                                                         existing):
        """One optimizer step that overflows the parameters (lr 1e200 with
        weight decay) ends train in exit 1 with the reader's text: no
        checkpoint is made, and one already at the path keeps its bytes."""
        out_dir = tmp_path / "run"
        ckpt = out_dir / "model.cctk"
        if existing:
            out_dir.mkdir()
            ckpt.write_bytes(b"kept")
        capsys.readouterr()
        assert run(train_args(tiny_emb, str(out_dir),
                              ["--lr", "1e200", "--epochs", "1", "--batch-size", "12"])) == 1
        assert capsys.readouterr().err.splitlines()[-1] == (
            "error: checkpoint tensor 'spatial.slot.wq' holds non-finite values")
        assert ckpt.read_bytes() == b"kept" if existing else not ckpt.exists()

    def test_eval_identity_mode_checkpoint(self, tiny_emb, ckpt, tmp_path, capsys):
        blob = open(ckpt, "rb").read()
        assert b"\nidentity_mode=0\n" in blob
        bad = tmp_path / "identity.cctk"
        bad.write_bytes(blob.replace(b"\nidentity_mode=0\n", b"\nidentity_mode=1\n"))
        capsys.readouterr()
        assert run(["eval", "--data", tiny_emb, "--checkpoint", str(bad)]) == 1
        assert_one_error_line(capsys, "checkpoint config key 'identity_mode' is '1', expected 0")

    def test_eval_non_utf8_checkpoint(self, tiny_emb, ckpt, tmp_path, capsys):
        blob = bytearray(open(ckpt, "rb").read())
        blob[18] = 0x80  # inside the first tensor name
        bad = tmp_path / "utf8.cctk"
        bad.write_bytes(bytes(blob))
        capsys.readouterr()
        assert run(["eval", "--data", tiny_emb, "--checkpoint", str(bad)]) == 1
        assert_one_error_line(
            capsys, "checkpoint tensor name is not valid UTF-8 (at byte offset 18)")


class TestDatasetModelBoundary:
    """A dataset that does not fit the model fails before the pass, exit 1."""

    @pytest.fixture
    def model(self, tmp_path):
        data = str(tmp_path / "c12.emb")
        assert run(["gen-data", "--out", data, "--seed", "1", "--classes", "4",
                    "--concepts", "12", "--features", "3", "--feature-dim", "16",
                    "--samples-per-class", "2"]) == 0
        out_dir = str(tmp_path / "run")
        assert run(["train", "--data", data, "--out", out_dir, "--epochs", "1",
                    "--slot-dim", "8", "--seed", "2"]) == 0
        return data, os.path.join(out_dir, "model.cctk")

    def gen(self, tmp_path, name, concepts, dim, rows=3):
        path = str(tmp_path / name)
        assert run(["gen-data", "--out", path, "--seed", "4", "--classes", "4",
                    "--concepts", str(concepts), "--features", str(rows),
                    "--feature-dim", str(dim), "--samples-per-class", "2"]) == 0
        return path

    def test_eval_feature_dim_mismatch(self, model, tmp_path, capsys):
        data = self.gen(tmp_path, "d12.emb", 4, 12)
        capsys.readouterr()
        assert run(["eval", "--data", data, "--checkpoint", model[1]]) == 1
        err = capsys.readouterr().err
        assert "sample 0 has features of shape (3, 12), but the model expects (3, 16)" in err

    def test_eval_row_count_mismatch(self, model, tmp_path, capsys):
        data = self.gen(tmp_path, "l4.emb", 12, 16, rows=4)
        capsys.readouterr()
        assert run(["eval", "--data", data, "--checkpoint", model[1]]) == 1
        assert ("sample 0 has features of shape (4, 16), but the model expects (3, 16)"
                in capsys.readouterr().err)

    def test_eval_concept_count_mismatch(self, model, tmp_path, capsys):
        data = self.gen(tmp_path, "c8.emb", 8, 16)
        capsys.readouterr()
        assert run(["eval", "--data", data, "--checkpoint", model[1]]) == 1
        assert ("sample 0 has h_spatial of shape (3, 8), but the model expects (3, 12)"
                in capsys.readouterr().err)

    def test_train_with_fewer_concepts_than_the_targets(self, model, tmp_path, capsys):
        capsys.readouterr()
        assert run(["train", "--data", model[0], "--out", str(tmp_path / "c5"),
                    "--epochs", "1", "--slot-dim", "8", "--concepts", "5"]) == 1
        assert ("sample 0 has h_spatial of shape (3, 12), but the model expects (3, 5)"
                in capsys.readouterr().err)

    def test_explain_checks_only_the_feature_dim(self, model, tmp_path, capsys):
        other_c = self.gen(tmp_path, "c8.emb", 8, 16)
        assert run(["explain", "--data", other_c, "--checkpoint", model[1],
                    "--out", str(tmp_path / "explain")]) == 0
        other_d = self.gen(tmp_path, "d12.emb", 4, 12)
        capsys.readouterr()
        assert run(["explain", "--data", other_d, "--checkpoint", model[1],
                    "--out", str(tmp_path / "explain12")]) == 1
        assert "but the model expects (3, 16)" in capsys.readouterr().err


@pytest.mark.parametrize("variant", hd.VARIANTS)
@pytest.mark.parametrize("pathway", hd.PATHWAYS)
@pytest.mark.parametrize("heads", [1, 4])
def test_explain_bytes_independent_of_chunk_size(tiny_emb, tmp_path, variant, pathway, heads):
    head = hd.HeadConfig(concepts=4, slot_dim=8, input_dim=6, n_inputs=3, n_classes=2,
                         variant=variant, heads=heads, pathway=pathway)
    outputs = []
    for size in (5, 1):
        cfg = tr.TrainConfig(head=head, batch_size=size, seed=3)
        ckpt = str(tmp_path / f"b{size}.cctk")
        tr.save_checkpoint(tr.init_train_state(cfg), cfg, ckpt)
        out_dir = tmp_path / f"explain{size}"
        assert run(["explain", "--data", tiny_emb, "--checkpoint", ckpt,
                    "--out", str(out_dir), "--seed", "7"]) == 0
        outputs.append({p.name: p.read_bytes() for p in out_dir.iterdir()})
    assert len(outputs[0]) == 2 * 12 + 1  # a PGM and a CSV per sample, and topk.csv
    assert outputs[0] == outputs[1]


def reference_topk_rows(dataset, state, cfg, seed, count, topk):
    """The per-sample explain loop: one forward, map mean and argsort per sample."""
    rng = np.random.default_rng(seed)
    rows = []
    for i, features in enumerate(dataset.features[:count]):
        with ad.no_grad():
            out = hd.head_forward(Tensor(features), state.params, cfg.head, rng)
        rel = out.maps()[0].data.mean(axis=0)
        top = np.argsort(-rel, kind="stable")[:topk]
        rows.extend((i, rank + 1, int(c), float(rel[c])) for rank, c in enumerate(top))
    return rows


@pytest.mark.parametrize("n_inputs", [1, 8, 32])
@pytest.mark.parametrize("heads", [1, 4])
@pytest.mark.parametrize("tied", [False, True])
def test_explain_topk_matches_per_sample_reference(tmp_path, n_inputs, heads, tied):
    data = str(tmp_path / "d.emb")
    assert run(["gen-data", "--out", data, "--seed", "2", "--classes", "2", "--concepts", "6",
                "--features", str(n_inputs), "--feature-dim", "8",
                "--samples-per-class", "6"]) == 0
    head = hd.HeadConfig(concepts=6, slot_dim=8, input_dim=8, n_inputs=n_inputs, n_classes=2,
                         variant="sa", heads=heads)
    cfg = tr.TrainConfig(head=head, batch_size=4, seed=1)
    state = tr.init_train_state(cfg)
    if tied:  # zero queries: uniform maps, so every gamma ties and ranks go by concept index
        state.params.spatial.cross.wq.data[...] = 0.0
    ckpt = str(tmp_path / "m.cctk")
    tr.save_checkpoint(state, cfg, ckpt)
    out_dir = tmp_path / "explain"
    assert run(["explain", "--data", data, "--checkpoint", ckpt, "--out", str(out_dir),
                "--seed", "9", "--topk", "4", "--limit", "7"]) == 0  # chunks of 4, then 3
    want = tmp_path / "want.csv"
    mt.write_topk_csv(reference_topk_rows(dat.read_emb(data), state, cfg, 9, 7, 4), str(want))
    assert (out_dir / "topk.csv").read_bytes() == want.read_bytes()


def reference_explain(dataset, state, cfg, seed, count, topk, out_dir):
    """The explain outputs as head_forward gives them: the spatial map of
    each chunk of cfg.batch_size samples, or the global one when that is the
    only pathway, exported with its top-k concepts by relevance."""
    rng = np.random.default_rng(seed)
    rows = []
    for start in range(0, count, cfg.batch_size):
        stop = min(start + cfg.batch_size, count)
        with ad.no_grad():
            out = hd.head_forward(Tensor(dataset.features[start:stop]), state.params,
                                  cfg.head, rng)
        maps = out.maps()[0]
        rel = hd.relevance(maps).data
        mt.export_heatmaps(maps.data, [os.path.join(out_dir, f"sample_{i:04d}.pgm")
                                       for i in range(start, stop)])
        order = np.argsort(-rel, axis=-1, kind="stable")[:, :topk]
        for i, gamma, top in zip(range(start, stop), rel, order):
            rows.extend((i, rank + 1, int(c), float(gamma[c])) for rank, c in enumerate(top))
    mt.write_topk_csv(rows, os.path.join(out_dir, "topk.csv"))


@pytest.mark.parametrize("variant", hd.VARIANTS)
@pytest.mark.parametrize("heads", [1, 4])
def test_dual_explain_matches_head_forward_reference(tiny_emb, tmp_path, variant, heads):
    """A dual explain of more samples than batch_size (chunks of 5, 5 and 2)
    writes the bytes of the head_forward reference."""
    head = hd.HeadConfig(concepts=4, slot_dim=8, input_dim=6, n_inputs=3, n_classes=2,
                         variant=variant, heads=heads, pathway="dual")
    cfg = tr.TrainConfig(head=head, batch_size=5, seed=3)
    state = tr.init_train_state(cfg)
    ckpt = str(tmp_path / "m.cctk")
    tr.save_checkpoint(state, cfg, ckpt)
    out_dir, want_dir = tmp_path / "explain", tmp_path / "want"
    assert run(["explain", "--data", tiny_emb, "--checkpoint", ckpt, "--out", str(out_dir),
                "--seed", "7", "--topk", "2"]) == 0
    want_dir.mkdir()
    reference_explain(dat.read_emb(tiny_emb), state, cfg, 7, 12, 2, str(want_dir))
    got, want = explain_files(out_dir), explain_files(want_dir)
    assert len(want) == 2 * 12 + 1
    assert got == want


def explain_model(tmp_path, name, n_inputs, heads, pathway):
    """A gen-data file of L=n_inputs rows and an untrained checkpoint for it."""
    data = str(tmp_path / f"{name}.emb")
    assert run(["gen-data", "--out", data, "--seed", "4", "--classes", "2", "--concepts", "6",
                "--features", str(n_inputs), "--feature-dim", "8",
                "--samples-per-class", "5"]) == 0
    head = hd.HeadConfig(concepts=6, slot_dim=8, input_dim=8, n_inputs=n_inputs, n_classes=2,
                         variant="sa", heads=heads, pathway=pathway)
    cfg = tr.TrainConfig(head=head, batch_size=4, seed=2)
    ckpt = str(tmp_path / f"{name}.cctk")
    tr.save_checkpoint(tr.init_train_state(cfg), cfg, ckpt)
    return data, ckpt


def explain_files(out_dir):
    return {p.name: p.read_bytes() for p in out_dir.iterdir()}


def test_explain_rerun_into_same_directory(tmp_path):
    """A rerun overwrites the files it writes with the bytes of a fresh run and
    leaves the others as they were."""
    big = explain_model(tmp_path, "big", 32, 4, "spatial")
    small = explain_model(tmp_path, "small", 8, 1, "global")

    def explain(model, out_dir, limit):
        assert run(["explain", "--data", model[0], "--checkpoint", model[1],
                    "--out", str(out_dir), "--seed", "3", "--limit", str(limit)]) == 0

    shared, fresh = tmp_path / "shared", tmp_path / "fresh"
    explain(big, shared, 7)
    first = explain_files(shared)
    explain(small, shared, 3)
    explain(small, fresh, 3)
    second, want = explain_files(shared), explain_files(fresh)
    assert len(first) == 2 * 7 + 1 and sorted(want) == sorted(first)[:6] + ["topk.csv"]
    for name, blob in want.items():
        assert second[name] == blob
        assert len(first[name]) > len(blob)  # each rerun file had to shrink
    assert {n: b for n, b in second.items() if n not in want} == {
        n: b for n, b in first.items() if n not in want}


def test_explain_output_path_is_directory(tiny_emb, tmp_path, capsys):
    out_dir = tmp_path / "explain"
    (out_dir / "sample_0000.csv").mkdir(parents=True)
    cfg = tr.TrainConfig(head=hd.HeadConfig(concepts=4, slot_dim=4, input_dim=6, n_inputs=3,
                                            n_classes=2), batch_size=4)
    ckpt = str(tmp_path / "m.cctk")
    tr.save_checkpoint(tr.init_train_state(cfg), cfg, ckpt)
    capsys.readouterr()
    assert run(["explain", "--data", tiny_emb, "--checkpoint", ckpt,
                "--out", str(out_dir)]) == 1
    assert_one_error_line(capsys, f"[Errno {errno.EISDIR}] {os.strerror(errno.EISDIR)}: "
                                  f"'{out_dir / 'sample_0000.csv'}'")


@pytest.mark.parametrize("variant", hd.VARIANTS)
@pytest.mark.parametrize("pathway", ["spatial", "global"])
def test_explain_sends_every_trained_map_through_the_kernel(tmp_path, monkeypatch, variant,
                                                            pathway):
    """On the golden grid's data and training every exported map lies in
    [1e-4, 1), so each CSV text comes from the vectorized kernel and none from
    the per-value fallback: the fast path cannot go dead while the bytes
    still match."""
    data, train_dir = str(tmp_path / "grid.emb"), str(tmp_path / "train")
    assert run(["gen-data", "--out", data, "--seed", "3", "--samples-per-class", "12",
                "--features", "6", "--feature-dim", "16", "--carrier-fraction", "0.5"]) == 0
    assert run(["train", "--data", data, "--out", train_dir, "--epochs", "2",
                "--batch-size", "16", "--lr", "1e-2", "--slot-dim", "16", "--seed", "5",
                "--variant", variant, "--pathway", pathway, "--heads", "4"]) == 0
    kernel, kernel_shapes, fallback_maps = mt._f17_csv, [], []

    def kernel_spy(maps):
        kernel_shapes.append(maps.shape)
        return kernel(maps)

    monkeypatch.setattr(mt, "_f17_csv", kernel_spy)
    monkeypatch.setattr(mt, "_percent_csv", fallback_maps.append)
    assert run(["explain", "--data", data, "--checkpoint", os.path.join(train_dir, "model.cctk"),
                "--out", str(tmp_path / "explain")]) == 0
    rows = 6 if pathway == "spatial" else 1
    assert kernel_shapes == [(16, rows, 12)] * 3 and fallback_maps == []

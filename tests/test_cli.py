import os

import numpy as np
import pytest

from concepthead import cli
from concepthead import data as dat


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
        assert ds.samples[0].h_spatial is not None

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
        records = mt.parse_metrics_csv(open(csv_path).read())
        assert [r.epoch for r in records] == [1, 2]  # appended once per epoch
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

    def test_eval_empty_dataset_usage_error(self, tmp_path, tiny_emb):
        empty = dat.Dataset(samples=[], n_classes=0, n_concepts=0,
                            n_inputs=3, input_dim=6)
        empty_path = str(tmp_path / "empty.emb")
        dat.write_emb(empty, empty_path)
        out_dir = str(tmp_path / "run")
        assert run(train_args(tiny_emb, out_dir)) == 0
        ckpt = os.path.join(out_dir, "model.cctk")
        assert run(["eval", "--data", empty_path, "--checkpoint", ckpt]) == 2

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

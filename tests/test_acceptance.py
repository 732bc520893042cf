"""Acceptance suite: one test per release criterion, one pass/fail line each.

Criteria 6 and 7 share one synthetic training run; the whole module is
designed to finish in a few minutes on one CPU core. Run with `pytest -s
tests/test_acceptance.py` to see the per-criterion lines as they print.
"""

import contextlib
import math
import os
import time

import numpy as np
import pytest

import composed
from concepthead import autodiff as ad
from concepthead import cli
from concepthead import data as dat
from concepthead import head as hd
from concepthead import losses
from concepthead import metrics as mt
from concepthead import trainer as tr
from concepthead.autodiff import Tensor
from concepthead.losses import LossWeights


@contextlib.contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"[criterion {number}] FAIL - {description}")
        raise
    print(f"[criterion {number}] PASS - {description}")


# --- criterion 1: end-to-end gradient correctness ----------------------------

def test_criterion_1_end_to_end_gradients():
    # dual pathway, 2 heads, learned-query slots, 3 refinement iterations,
    # all three loss terms, 2-sample batch. Loss weights and explanation
    # targets are chosen so every parameter coordinate's gradient stays well
    # above the quantization floor of central differences at h=1e-6.
    cfg = hd.HeadConfig(concepts=3, slot_dim=4, input_dim=4, n_inputs=2,
                        n_classes=2, variant="boqsa", iters=3, heads=2,
                        pathway="dual")
    rng = np.random.default_rng(137)
    params = hd.init_head_params(cfg, rng)
    batch = [(rng.normal(size=(2, 4)), 0), (rng.normal(size=(2, 4)), 1)]
    targets = []
    for e, _ in batch:
        out = hd.head_forward(Tensor(e), params, cfg, np.random.default_rng(1))
        targets.append((np.maximum(out.attn_spatial.data - 0.01, 0.0),
                        np.maximum(out.attn_global.data - 0.01, 0.0)))
    weights = LossWeights(lambda_expl=100.0, lambda_sparse=0.5)

    def batch_loss():
        total = None
        for (e, label), (h_sp, h_gl) in zip(batch, targets):
            out = hd.head_forward(Tensor(e), params, cfg, np.random.default_rng(1))
            expl = ad.add(losses.explanation_loss(out.attn_spatial, h_sp),
                          losses.explanation_loss(out.attn_global, h_gl))
            sparse = ad.scale(ad.add(losses.sparsity_loss(out.attn_spatial),
                                     losses.sparsity_loss(out.attn_global)), 0.5)
            loss = losses.total_loss(losses.cross_entropy(out.logits, label),
                                     expl, sparse, weights)
            total = loss if total is None else ad.add(total, loss)
        return ad.scale(total, 0.5)

    with criterion(1, "end-to-end gradient check, max relative error < 1e-6"):
        started = time.perf_counter()
        report = composed.grad_check(batch_loss, list(params.named()), h=1e-6, tol=1e-6)
        elapsed = time.perf_counter() - started
        assert not report.failures, report.failures
        assert report.max_rel_error < 1e-6, (report.max_rel_error, report.worst)
        assert elapsed < 60.0, f"gradient check took {elapsed:.1f}s"


# --- criterion 2: faithfulness identity ---------------------------------------

def test_criterion_2_faithfulness_identity():
    with criterion(2, "logits decompose exactly into relevance x concept scores"):
        for seed in range(100):
            cfg = hd.HeadConfig(concepts=4, slot_dim=3, input_dim=5, n_inputs=6,
                                n_classes=4, variant="boqsa")
            rng = np.random.default_rng(seed)
            params = hd.init_head_params(cfg, rng)
            e = rng.normal(size=(6, 5))
            slots = hd.refine_slots(Tensor(e), params.spatial.slot, cfg, rng)
            attn, logits = hd.multi_head_cross_attention(Tensor(e), slots,
                                                         params.spatial.cross, cfg)
            decomposed = hd.decomposed_logits(slots, params.spatial.cross,
                                              hd.relevance(attn), cfg)
            gap = np.max(np.abs(decomposed.data - logits.data))
            assert gap <= 1e-9, f"seed {seed}: faithfulness gap {gap:.2e}"


# --- criterion 3: attention invariants ----------------------------------------

def test_criterion_3_attention_invariants():
    with criterion(3, "row-stochastic maps, relevance simplex, permutation invariance"):
        for seed in range(1000):
            cfg = hd.HeadConfig(concepts=3, slot_dim=4, input_dim=4, n_inputs=4,
                                n_classes=3, variant="boqsa", iters=1)
            rng = np.random.default_rng(seed)
            params = hd.init_head_params(cfg, rng)
            e = rng.normal(size=(4, 4))

            inputs = ad.layer_norm(Tensor(e), params.spatial.slot.ln_input_gain,
                                   params.spatial.slot.ln_input_bias)
            _, binder_attn, _ = hd.slot_step(hd.init_slots(params.spatial.slot, cfg, rng),
                                             inputs, params.spatial.slot, cfg, None)
            assert np.max(np.abs(binder_attn.sum(axis=1) - 1.0)) <= 1e-12

            slots = hd.refine_slots(Tensor(e), params.spatial.slot, cfg, rng)
            attn, logits = hd.multi_head_cross_attention(Tensor(e), slots,
                                                         params.spatial.cross, cfg)
            assert np.max(np.abs(attn.data.sum(axis=1) - 1.0)) <= 1e-12

            rel = hd.relevance(attn).data
            assert np.all(rel >= 0) and abs(rel.sum() - 1.0) <= 1e-12

            perm = np.random.default_rng(seed + 1).permutation(4)
            slots_p = hd.refine_slots(Tensor(e[perm]), params.spatial.slot, cfg, rng)
            _, logits_p = hd.multi_head_cross_attention(Tensor(e[perm]), slots_p,
                                                        params.spatial.cross, cfg)
            assert np.max(np.abs(logits_p.data - logits.data)) <= 1e-12


# --- criterion 4: hand-oracle equivalence --------------------------------------

def test_criterion_4_hand_oracles():
    with criterion(4, "hand-computed attention, readback and GRU values to 6 decimals"):
        e = np.array([[1.0], [0.0]])
        s = np.array([[1.0], [0.0]])
        cfg = hd.HeadConfig(concepts=2, slot_dim=1, input_dim=1, n_inputs=2,
                            n_classes=2, variant="boqsa", iters=1)
        rng = np.random.default_rng(0)

        # competitive slot binding on the toy instance, identity q/k/v projections
        slot_p = hd.init_slot_params(cfg, rng)
        for name in ("wq", "wk", "wv"):
            getattr(slot_p, name).data[...] = 1.0
        for name in ("wz", "uz", "bz", "wr", "ur", "br", "wh", "uh", "bh"):
            getattr(slot_p, name).data[...] = 0.0
        slot_p.positions.data[...] = 0.0
        attn, readout = composed.slot_attention(Tensor(e), Tensor(s), slot_p, cfg)
        scores = s @ e.T
        soft = np.exp(scores) / np.exp(scores).sum(axis=0, keepdims=True)
        want_attn = soft / soft.sum(axis=1, keepdims=True)
        assert np.max(np.abs(attn.data - want_attn)) < 1e-6
        assert np.max(np.abs(readout.data - want_attn @ e)) < 1e-6

        # readback on the toy instance, both computation paths
        cross_p = hd.init_cross_params(cfg, rng)
        for name in ("wq", "wk", "wv"):
            getattr(cross_p, name).data[...] = 1.0
        cross_p.out.data[...] = [[1.0, -1.0]]
        ca_attn, logits = hd.multi_head_cross_attention(Tensor(e), Tensor(s), cross_p, cfg)
        ca_scores = e @ s.T
        want_ca = np.exp(ca_scores) / np.exp(ca_scores).sum(axis=1, keepdims=True)
        want_gamma = want_ca.mean(axis=0)
        want_logits = want_gamma @ (s @ cross_p.out.data)
        assert np.max(np.abs(ca_attn.data - want_ca)) < 1e-6
        assert np.max(np.abs(logits.data - want_logits)) < 1e-6
        gamma = hd.relevance(ca_attn)
        decomposed = hd.decomposed_logits(Tensor(s), cross_p, gamma, cfg)
        assert np.max(np.abs(gamma.data - want_gamma)) < 1e-6
        assert np.max(np.abs(decomposed.data - want_logits)) < 1e-6

        # scalar GRU step: z = 0.5, candidate = tanh(1)
        gru_cfg = hd.HeadConfig(concepts=1, slot_dim=1, input_dim=1, n_inputs=1,
                                n_classes=2, variant="boqsa", iters=1)
        gru_p = hd.init_slot_params(gru_cfg, np.random.default_rng(0))
        for name in ("wz", "uz", "bz", "wr", "ur", "br", "wh", "uh", "bh"):
            getattr(gru_p, name).data[...] = 0.0
        gru_p.wh.data[...] = 1.0
        stepped = composed.gru_update(Tensor([[2.0]]), Tensor([[1.0]]), gru_p)
        assert abs(stepped.data[0, 0] - (1.0 + 0.5 * math.tanh(1.0))) < 1e-6


# --- criterion 5: slot-initialization variant contracts ------------------------

def test_criterion_5_variant_contracts():
    with criterion(5, "sampled/implicit variants forward-equal; learned queries stable"):
        base = dict(concepts=3, slot_dim=4, input_dim=5, n_inputs=4, n_classes=3)
        e = np.random.default_rng(11).normal(size=(4, 5))

        for iters in (1, 2, 3):
            p = hd.init_slot_params(hd.HeadConfig(variant="sa", iters=iters, **base),
                                    np.random.default_rng(0))
            out_sa = hd.refine_slots(Tensor(e), p,
                                     hd.HeadConfig(variant="sa", iters=iters, **base),
                                     np.random.default_rng(5))
            out_isa = hd.refine_slots(Tensor(e), p,
                                      hd.HeadConfig(variant="isa", iters=iters, **base),
                                      np.random.default_rng(5))
            assert np.array_equal(out_sa.data, out_isa.data)

        grads = {}
        for variant in ("sa", "isa"):
            cfg = hd.HeadConfig(variant=variant, iters=3, **base)
            p = hd.init_slot_params(cfg, np.random.default_rng(0))
            slots = hd.refine_slots(Tensor(e), p, cfg, np.random.default_rng(5))
            ad.backward(ad.reduce_sum(ad.mul(slots, slots)))
            grads[variant] = (np.zeros_like(p.mu.data) if p.mu.grad is None
                              else p.mu.grad.copy())
        assert np.max(np.abs(grads["sa"] - grads["isa"])) > 1e-12

        cfg_b = hd.HeadConfig(variant="boqsa", **base)
        p_b = hd.init_slot_params(cfg_b, np.random.default_rng(0))
        first = hd.refine_slots(Tensor(e), p_b, cfg_b, np.random.default_rng(1))
        second = hd.refine_slots(Tensor(e), p_b, cfg_b, np.random.default_rng(2))
        assert np.array_equal(first.data, second.data)


# --- criteria 6 and 7: synthetic planted-concept recovery ----------------------

SYNTH = dat.SynthConfig(n_classes=4, n_concepts=12,
                        concepts_per_class=dat.block_concept_map(4, 12),
                        n_inputs=8, input_dim=32, noise_std=0.3,
                        samples_per_class=500)
PROTOTYPE_SEED = 7


def recovery_config(lambda_expl, lambda_sparse):
    head = hd.HeadConfig(concepts=12, slot_dim=32, input_dim=32, n_inputs=8,
                         n_classes=4, variant="sa", pathway="spatial")
    return tr.TrainConfig(head=head, epochs=25, batch_size=64, lr=2e-3,
                          warmup_iters=10, weight_decay=1e-3, seed=0,
                          weights=LossWeights(lambda_expl, lambda_sparse))


@pytest.fixture(scope="module")
def synth_datasets():
    train = dat.gen_synthetic(SYNTH, seed=0, prototype_seed=PROTOTYPE_SEED)
    held_out = dat.gen_synthetic(SYNTH, seed=1, prototype_seed=PROTOTYPE_SEED)
    return train, held_out


@pytest.fixture(scope="module")
def recovery_run(synth_datasets):
    train, held_out = synth_datasets
    cfg = recovery_config(lambda_expl=1.0, lambda_sparse=0.5)
    started = time.perf_counter()
    state, _ = tr.fit(train, cfg)
    record = tr.evaluate(held_out, state.params, cfg, seed=0)
    return record, time.perf_counter() - started


def test_criterion_6_synthetic_concept_recovery(recovery_run):
    record, elapsed = recovery_run
    with criterion(6, "held-out class acc >= 0.95 and concept acc >= 0.90"):
        assert record.class_acc >= 0.95, f"class accuracy {record.class_acc:.4f}"
        assert record.concept_top1_acc >= 0.90, \
            f"concept accuracy {record.concept_top1_acc:.4f}"
        assert elapsed < 300.0, f"run took {elapsed:.0f}s"


def test_criterion_7_sparsity_effect(synth_datasets, recovery_run):
    train, held_out = synth_datasets
    base_record, _ = recovery_run
    with criterion(7, "sparsity strictly lowers attention entropy; accuracy holds"):
        results = {}
        for lambda_sparse in (0.5, 0.0):
            cfg = recovery_config(lambda_expl=0.0, lambda_sparse=lambda_sparse)
            state, _ = tr.fit(train, cfg)
            results[lambda_sparse] = tr.evaluate(held_out, state.params, cfg, seed=0)
        assert results[0.5].mean_entropy < results[0.0].mean_entropy, \
            (results[0.5].mean_entropy, results[0.0].mean_entropy)
        for lambda_sparse, record in results.items():
            assert record.class_acc >= base_record.class_acc - 0.03, \
                f"lambda_sparse={lambda_sparse}: accuracy {record.class_acc:.4f}"


# --- criterion 8: determinism and persistence -----------------------------------

def test_criterion_8_determinism_and_persistence(tmp_path):
    with criterion(8, "byte-identical reruns, resumable training, stable file format"):
        # identical CLI training runs produce byte-identical metrics CSVs
        emb = str(tmp_path / "train.emb")
        assert cli.main(["gen-data", "--out", emb, "--seed", "3", "--classes", "2",
                         "--concepts", "4", "--features", "3", "--feature-dim", "6",
                         "--samples-per-class", "8"]) == 0
        argv = ["train", "--data", emb, "--epochs", "3", "--batch-size", "4",
                "--lr", "1e-3", "--warmup", "2", "--slot-dim", "4",
                "--variant", "sa", "--seed", "5"]
        out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
        assert cli.main(argv + ["--out", out_a]) == 0
        assert cli.main(argv + ["--out", out_b]) == 0
        csv_a = open(os.path.join(out_a, "metrics.csv"), "rb").read()
        csv_b = open(os.path.join(out_b, "metrics.csv"), "rb").read()
        assert csv_a == csv_b

        # mid-training save/resume reproduces the remaining rows byte for byte
        ds = dat.read_emb(emb)
        head = hd.HeadConfig(concepts=4, slot_dim=4, input_dim=6, n_inputs=3,
                             n_classes=2, variant="sa", pathway="spatial")
        cfg = tr.TrainConfig(head=head, epochs=4, batch_size=4, lr=1e-3,
                             warmup_iters=2, weight_decay=1e-3, seed=9)
        _, full_records = tr.fit(ds, cfg)
        state, head_records = tr.fit(ds, cfg, epochs=2)
        ckpt = str(tmp_path / "mid.cctk")
        tr.save_checkpoint(state, cfg, ckpt)
        resumed_state, resumed_cfg = tr.load_checkpoint(ckpt)
        _, tail_records = tr.fit(ds, resumed_cfg, state=resumed_state)
        full_rows = [mt.format_metrics_row(r) for r in full_records]
        split_rows = [mt.format_metrics_row(r) for r in head_records + tail_records]
        assert full_rows == split_rows

        # embedding files round-trip byte-identically
        rng = np.random.default_rng(0)
        for _ in range(1000):
            n, rows, dim = (int(rng.integers(0, 4)), int(rng.integers(1, 4)),
                            int(rng.integers(1, 4)))
            concepts = int(rng.integers(1, 4))
            flavor = int(rng.integers(4))
            features, labels = np.empty((n, rows, dim)), np.empty(n, dtype=np.int64)
            h_spatial = np.empty((n, rows, concepts)) if flavor in (1, 3) else None
            h_global = np.empty((n, 1, concepts)) if flavor in (2, 3) else None
            for i in range(n):  # the draws of one sample, in sample order
                features[i] = rng.normal(size=(rows, dim))
                labels[i] = rng.integers(6)
                if h_spatial is not None:
                    h_spatial[i] = rng.uniform(size=(rows, concepts))
                if h_global is not None:
                    h_global[i] = rng.uniform(size=(1, concepts))
            blob = dat.emb_bytes(dat.Dataset(features, labels, h_spatial, h_global,
                                             n_classes=6, n_concepts=concepts))
            assert dat.emb_bytes(dat.parse_emb(blob)) == blob


# --- criterion 9: exact loss unit values ----------------------------------------

def test_criterion_9_loss_unit_values():
    with criterion(9, "exact unit values of the three losses"):
        ce = losses.cross_entropy(Tensor([0.0, 0.0], requires_grad=True), 0)
        assert abs(float(ce.data) - math.log(2)) <= 1e-12

        uniform = Tensor(np.full((3, 4), 0.25), requires_grad=True)
        sparse = losses.sparsity_loss(uniform)
        assert abs(float(sparse.data) - math.log(4) / 4) <= 1e-12

        attn = Tensor(np.random.default_rng(0).dirichlet(np.ones(4), size=3),
                      requires_grad=True)
        expl = losses.explanation_loss(attn, attn.data.copy())
        assert abs(float(expl.data)) <= 1e-12

"""Mutation fuzz of the two binary readers: every truncated or bit-flipped
EMB1 or CCTK blob either parses or raises a ConceptHeadError."""

import numpy as np
import pytest

from concepthead import data as dat
from concepthead import head as hd
from concepthead import trainer as tr
from concepthead.errors import ConceptHeadError

MUTANTS = 1000


def emb_blob():
    cfg = dat.SynthConfig(n_classes=2, n_concepts=4,
                          concepts_per_class=dat.block_concept_map(2, 4),
                          n_inputs=3, input_dim=6, noise_std=0.2, samples_per_class=2)
    return dat.emb_bytes(dat.gen_synthetic(cfg, 1))


def cctk_blob():
    head = hd.HeadConfig(concepts=4, slot_dim=4, input_dim=6, n_inputs=3, n_classes=2,
                         variant="boqsa")
    cfg = tr.TrainConfig(head=head, seed=3)
    return tr.checkpoint_bytes(tr.init_train_state(cfg), cfg)


def mutants(blob, rng):
    """MUTANTS blobs: even ones cut at a random length, odd ones with one
    random bit flipped."""
    for k in range(MUTANTS):
        if k % 2 == 0:
            yield blob[:int(rng.integers(len(blob)))]
        else:
            flipped = bytearray(blob)
            bit = int(rng.integers(8 * len(blob)))
            flipped[bit // 8] ^= 1 << (bit % 8)
            yield bytes(flipped)


@pytest.mark.parametrize("blob,parse", [(emb_blob, dat.parse_emb),
                                        (cctk_blob, tr.parse_checkpoint)],
                         ids=["emb1", "cctk"])
def test_every_mutant_parses_or_raises_a_typed_error(blob, parse):
    outcomes = {"parsed": 0, "rejected": 0}
    escaped = []
    for k, mutant in enumerate(mutants(blob(), np.random.default_rng(2024))):
        try:
            parse(mutant)
            outcomes["parsed"] += 1
        except ConceptHeadError:
            outcomes["rejected"] += 1
        except Exception as err:  # noqa: BLE001 - any other type is the failure
            escaped.append(f"mutant {k}: {type(err).__name__}: {err}")
    assert not escaped, "\n".join(escaped[:5])
    assert outcomes["rejected"] >= MUTANTS // 2  # every truncation is rejected
    assert outcomes["parsed"] > 0

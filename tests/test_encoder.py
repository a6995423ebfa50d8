"""Encoder forward/backward, determinism, and checkpoint tests."""

import numpy as np
import pytest

from chemspan.checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from chemspan.config import PipelineConfig
from chemspan.encoder import (
    SPECIAL_SYMBOLS,
    Adam,
    TinyEncoder,
    _softmax_rows,
    encoder_grad_check,
    grad_check,
    surface_bucket,
)
from chemspan.errors import NonFiniteError, OverLengthError
from chemspan.ner import NerModel

from oracles import central_difference

TOKENS = ["Contribution", "of", "the", "Na", "+", "cotransporter"]
TINY = {"dim": 8, "blocks": 2, "ffn_dim": 16, "buckets": 13, "max_len": 32}


def tiny():
    return TinyEncoder(**TINY, seed=3)


def test_output_has_one_vector_per_symbol():
    enc = tiny()
    h = enc.encode(TOKENS)
    assert h.shape == (6, 8)
    assert np.isfinite(h).all()


def test_empty_input_encodes_to_empty_output():
    assert tiny().encode([]).shape == (0, 8)


def test_encoding_is_deterministic():
    a = tiny().encode(TOKENS)
    b = tiny().encode(TOKENS)
    np.testing.assert_array_equal(a, b)


def test_seed_changes_parameters():
    a = TinyEncoder(dim=8, blocks=1, ffn_dim=16, buckets=13, max_len=32, seed=0)
    b = TinyEncoder(dim=8, blocks=1, ffn_dim=16, buckets=13, max_len=32, seed=1)
    assert not np.array_equal(a.params["tok_emb"], b.params["tok_emb"])


def test_positions_matter():
    enc = tiny()
    swapped = list(TOKENS)
    swapped[0], swapped[1] = swapped[1], swapped[0]
    assert not np.allclose(enc.encode(TOKENS), enc.encode(swapped))


def test_over_length_input_is_rejected():
    enc = tiny()
    with pytest.raises(OverLengthError):
        enc.encode(["x"] * 33)


def test_surface_hash_is_stable():
    assert surface_bucket("aspirin", 2048) == surface_bucket("aspirin", 2048)
    assert 0 <= surface_bucket("aspirin", 7) < 7


def test_marker_symbols_use_dedicated_rows():
    enc = tiny()
    # zero the hashed table; marker embeddings must be unaffected
    enc.params["tok_emb"][:] = 0.0
    h = enc.encode([SPECIAL_SYMBOLS[1]])
    enc2 = tiny()
    enc2.params["special_emb"][:] = 0.0
    h2 = enc2.encode([SPECIAL_SYMBOLS[1]])
    assert not np.allclose(h, h2)


def test_bucket_and_marker_rows_are_one_table_drawn_as_before():
    enc = TinyEncoder(**dict(TINY, blocks=0), seed=3)
    buckets, markers = TINY["buckets"], len(SPECIAL_SYMBOLS)
    table = enc.params["tok_emb"].base
    assert table is not None and table.shape == (buckets + markers, TINY["dim"])
    assert enc.params["special_emb"].base is table
    assert np.shares_memory(enc.params["tok_emb"], table[:buckets])
    assert np.shares_memory(enc.params["special_emb"], table[buckets:])
    for grads in (enc.zero_grads(), NerModel(PipelineConfig(), seed=0).zero_grads()):
        assert grads["special_emb"].base is grads["tok_emb"].base
        assert len(grads["tok_emb"].base) == len(grads["tok_emb"]) + markers
    # without blocks, the output is the symbol's table row plus its position
    for i, marker in enumerate(SPECIAL_SYMBOLS):
        np.testing.assert_array_equal(enc.encode([marker])[0], table[buckets + i]
                                      + enc.params["pos_emb"][0])
    rng = np.random.default_rng(3)
    for name, rows in (("tok_emb", buckets), ("special_emb", markers),
                       ("pos_emb", TINY["max_len"])):
        np.testing.assert_array_equal(enc.params[name], rng.normal(0.0, 0.1, (rows, TINY["dim"])))


def test_unknown_surfaces_are_accepted():
    h = tiny().encode(["zxqv-never-seen-before", "ψ"])
    assert h.shape == (2, 8)


# ---------------------------------------------------------------------------
# gradients


def test_in_place_softmax_equals_the_allocating_formula_bitwise():
    rng = np.random.default_rng(0)
    shapes = [(1,), (6,), (1, 1), (3, 6), (17, 3), (64, 64), (286, 286), (2, 5, 7)]
    shapes += [tuple(rng.integers(1, 40, size=rng.integers(1, 3))) for _ in range(35)]
    for shape in shapes:
        scores = rng.normal(0.0, 10.0 ** rng.uniform(-3, 3), shape)
        given = scores.copy()
        shifted = scores - scores.max(axis=-1, keepdims=True)
        e = np.exp(shifted)
        assert np.array_equal(_softmax_rows(scores), e / e.sum(axis=-1, keepdims=True)), shape
        assert np.array_equal(scores, given), shape  # the input is left alone


def test_analytic_gradients_match_finite_differences():
    enc = tiny()
    err = encoder_grad_check(enc, ["Na", "+", "binds", "NKCC", "1"], epsilon=1e-4)
    assert err < 1e-3


def test_gradients_match_on_sequence_with_markers():
    enc = tiny()
    symbols = ["[CLS]", "[S:CHEM]", "Na", "[\\S:CHEM]", "to"]
    err = encoder_grad_check(enc, symbols, epsilon=1e-4)
    assert err < 1e-3


def test_spot_check_against_independent_central_difference():
    enc = tiny()
    symbols = ["Na", "+", "x"]
    rng = np.random.default_rng(5)
    probe = rng.normal(size=(3, 8))

    def loss_fn():
        return float((enc.encode(symbols) * probe).sum())

    h, cache = enc.forward(symbols)
    grads = enc.zero_grads()
    enc.backward(cache, probe, grads)
    w = enc.params["b0.wq"]
    for index in [(0, 0), (3, 5), (7, 7)]:
        fd = central_difference(loss_fn, w, index, 1e-5)
        assert grads["b0.wq"][index] == pytest.approx(fd, rel=1e-4, abs=1e-7)


def test_constant_loss_checks_out_with_zero_error():
    enc = tiny()
    err = grad_check(lambda: 1.5, lambda: enc.zero_grads(), enc.params, 1e-4,
                     keys=["b0.bq"])
    assert err == 0.0


def test_zero_epsilon_is_a_precondition_error():
    enc = tiny()
    with pytest.raises(ValueError):
        grad_check(lambda: 0.0, enc.zero_grads, enc.params, 0.0)


def test_non_finite_loss_is_reported():
    enc = tiny()
    with pytest.raises(NonFiniteError):
        grad_check(lambda: float("nan"), enc.zero_grads, enc.params, 1e-4)


def test_adam_moves_parameters_toward_lower_loss():
    enc = tiny()
    symbols = ["Na", "+", "K", "+"]
    target = np.zeros((4, 8))
    opt = Adam(enc.params, lr=5e-3)

    def loss_value():
        h = enc.encode(symbols)
        return float(((h - target) ** 2).mean())

    first = loss_value()
    for _ in range(100):
        h, cache = enc.forward(symbols)
        d = 2.0 * (h - target) / h.size
        grads = enc.zero_grads()
        enc.backward(cache, d, grads)
        opt.step(grads)
    assert loss_value() < 0.1 * first


# ---------------------------------------------------------------------------
# checkpoints


def test_checkpoint_round_trip(tmp_path):
    enc = tiny()
    path = tmp_path / "enc.ckpt"
    save_checkpoint(path, "encoder", enc.dim, enc.blocks, 3, TINY, enc.params)
    kind, config, (dim, blocks, seed), params = load_checkpoint(path)
    assert (kind, dim, blocks, seed) == ("encoder", 8, 2, 3)
    assert config["buckets"] == 13
    assert sorted(params) == sorted(enc.params)
    for key in params:
        np.testing.assert_array_equal(params[key], enc.params[key])


def test_checkpoint_rejects_bad_magic(tmp_path):
    path = tmp_path / "junk.ckpt"
    path.write_bytes(b"NOTACKPT" + b"\x00" * 40)
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def test_checkpoint_rejects_truncation(tmp_path):
    enc = tiny()
    path = tmp_path / "enc.ckpt"
    save_checkpoint(path, "encoder", enc.dim, enc.blocks, 3, TINY, enc.params)
    data = path.read_bytes()
    path.write_bytes(data[:-5])
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def test_checkpoint_rejects_wrong_version(tmp_path):
    enc = tiny()
    path = tmp_path / "enc.ckpt"
    save_checkpoint(path, "encoder", enc.dim, enc.blocks, 3, TINY, enc.params)
    data = bytearray(path.read_bytes())
    data[8] = 99  # first byte of the little-endian version field
    path.write_bytes(bytes(data))
    with pytest.raises(CheckpointError):
        load_checkpoint(path)

"""The checkpoint contract: a corrupt file loads as a model or raises CheckpointError.

The CLI turns CheckpointError into exit status 2 and one `error:` line.
"""

import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chemspan.checkpoint import (
    CheckpointError,
    load_checkpoint,
    load_ner_model,
    load_re_model,
    save_checkpoint,
    save_ner_model,
    save_re_model,
)
from chemspan.cli import main
from chemspan.config import EncoderConfig, NerConfig, PipelineConfig, RelationConfig
from chemspan.corpus import save_corpus
from chemspan.microcorpus import build_micro_corpus
from chemspan.ner import NerModel
from chemspan.relation import RelationModel

BLOB_LENGTH_AT = 28  # magic (8) + version, dim, blocks (3 x u32) + seed (i64)
SEED_AT = 20  # magic (8) + version, dim, blocks (3 x u32)


def tiny_cfg():
    return PipelineConfig(
        encoder=EncoderConfig(dim=8, blocks=1, ffn_dim=16, buckets=64, max_len=64),
        ner=NerConfig(context_window=10, max_span_width=4, width_dim=5),
        relation=RelationConfig(context_window=10, head_hidden=8))


def valid_bytes(tmp_path, kind):
    path = tmp_path / f"valid-{kind}.ckpt"
    if kind == "ner":
        save_ner_model(path, NerModel(tiny_cfg(), seed=0))
    else:
        save_re_model(path, RelationModel(tiny_cfg(), seed=0))
    return path.read_bytes()


def blob_end(raw):
    (n,) = struct.unpack_from("<I", raw, BLOB_LENGTH_AT)
    return BLOB_LENGTH_AT + 4 + n


def with_blob(raw, blob):
    return (raw[:BLOB_LENGTH_AT] + struct.pack("<I", len(blob)) + blob
            + raw[blob_end(raw):])


def with_meta(raw, edit):
    start = BLOB_LENGTH_AT + 4
    meta = json.loads(raw[start:blob_end(raw)])
    edit(meta)
    return with_blob(raw, json.dumps(meta, sort_keys=True).encode("utf-8"))


def first_array_shape_at(raw):
    at = blob_end(raw) + 4  # past the array count
    (name_len,) = struct.unpack_from("<H", raw, at)
    return at + 2 + name_len + 1


def patched(raw, at, packed):
    return raw[:at] + packed + raw[at + len(packed):]


CORRUPTIONS = {
    "non-utf8-blob": lambda raw: patched(raw, BLOB_LENGTH_AT + 5, b"\xff"),
    "malformed-json": lambda raw: with_blob(raw, raw[BLOB_LENGTH_AT + 4:blob_end(raw) - 1]),
    "missing-kind": lambda raw: with_meta(raw, lambda m: m.pop("kind")),
    "missing-config": lambda raw: with_meta(raw, lambda m: m.pop("config")),
    "unknown-config-key": lambda raw: with_meta(
        raw, lambda m: m["config"]["encoder"].update(width=3)),
    "non-integer-size": lambda raw: with_meta(
        raw, lambda m: m["config"]["encoder"].update(max_len=64.0)),
    "zero-size": lambda raw: with_meta(
        raw, lambda m: m["config"]["encoder"].update(ffn_dim=0)),
    "bad-variant": lambda raw: with_meta(
        raw, lambda m: m["config"]["relation"].update(variant="Z")),
    "header-dim-disagrees": lambda raw: patched(raw, 12, struct.pack("<I", 9)),
    "header-blocks-disagree": lambda raw: patched(raw, 16, struct.pack("<I", 2)),
    "negative-header-seed": lambda raw: patched(raw, SEED_AT, struct.pack("<q", -5)),
    "array-past-end-of-file": lambda raw: patched(
        raw, first_array_shape_at(raw), struct.pack("<I", 0xFFFFFFFF)),
    "non-utf8-array-name": lambda raw: patched(raw, blob_end(raw) + 6, b"\xff"),
}


# the span model never reads the relation variant, so that case is relation-only
CASES = [(case, kind) for case in sorted(CORRUPTIONS) for kind in ("ner", "re")
         if (case, kind) != ("bad-variant", "ner")]


@pytest.mark.parametrize("case, kind", CASES)
def test_corrupt_checkpoint_is_one_error_line(tmp_path, capsys, case, kind):
    corpus = tmp_path / "corpus"
    save_corpus(build_micro_corpus()[:1], corpus)
    ckpt = tmp_path / "corrupt.ckpt"
    ckpt.write_bytes(CORRUPTIONS[case](valid_bytes(tmp_path, kind)))
    with pytest.raises(CheckpointError):
        (load_ner_model if kind == "ner" else load_re_model)(ckpt)
    rc = main([f"predict-{kind}", "--ckpt", str(ckpt), "--corpus", str(corpus),
               "--out", str(tmp_path / "out.tsv")])
    assert rc == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:"), err


@pytest.mark.parametrize("kind", ["ner", "re"])
def test_oversized_config_blob_is_a_checkpoint_error(tmp_path, kind):
    ckpt = tmp_path / "oversized.ckpt"
    ckpt.write_bytes(with_meta(valid_bytes(tmp_path, kind),
                               lambda m: m["config"]["encoder"].update(buckets=10 ** 12)))
    with pytest.raises(CheckpointError, match="encoder.buckets"):
        (load_ner_model if kind == "ner" else load_re_model)(ckpt)


@pytest.mark.parametrize("kind", ["ner", "re"])
def test_checkpoint_from_before_seeds_was_removed_loads(tmp_path, kind):
    # checkpoints written while the config had a `seeds` setting carry it in the blob
    model = (NerModel if kind == "ner" else RelationModel)(tiny_cfg(), seed=3)
    path = tmp_path / "old.ckpt"
    (save_ner_model if kind == "ner" else save_re_model)(path, model)
    path.write_bytes(with_meta(path.read_bytes(), lambda m: m["config"].update(seeds=5)))
    loaded = (load_ner_model if kind == "ner" else load_re_model)(path)
    assert loaded.seed == 3 and loaded.config == model.config
    saved, restored = model.parameters(), loaded.parameters()
    assert saved.keys() == restored.keys()
    assert all(np.array_equal(saved[name], restored[name]) for name in saved)


@pytest.fixture(scope="module")
def valid_checkpoints(tmp_path_factory):
    directory = tmp_path_factory.mktemp("checkpoints")
    return directory, {kind: valid_bytes(directory, kind) for kind in ("ner", "re")}


@settings(max_examples=400, deadline=None)
@given(kind=st.sampled_from(["ner", "re"]), data=st.data())
def test_one_flipped_byte_loads_or_raises_checkpoint_error(valid_checkpoints, kind, data):
    directory, raws = valid_checkpoints
    raw = raws[kind]
    # most bytes are float data; bias half the draws toward header, blob and names
    at = data.draw(st.one_of(st.integers(0, blob_end(raw) + 64),
                             st.integers(0, len(raw) - 1)), label="offset")
    flip = data.draw(st.integers(1, 255), label="xor")
    path = directory / "flipped.ckpt"
    path.write_bytes(patched(raw, at, bytes([raw[at] ^ flip])))
    loader = load_ner_model if kind == "ner" else load_re_model
    try:
        loader(path)
    except CheckpointError:
        pass


# ---------------------------------------------------------------------------
# non-finite weights and unstorable seeds


def non_finite_checkpoint(tmp_path, kind, value):
    """A checkpoint of the tiny model with ``value`` in its last head bias."""
    model = (NerModel if kind == "ner" else RelationModel)(tiny_cfg(), seed=0)
    name = "ner.b" if kind == "ner" else "re.b2"
    model.head[name][0] = value
    path = tmp_path / f"non-finite-{kind}.ckpt"
    (save_ner_model if kind == "ner" else save_re_model)(path, model)
    return path, name


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")],
                         ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("kind", ["ner", "re"])
def test_non_finite_weights_are_refused_at_load(tmp_path, kind, value):
    path, name = non_finite_checkpoint(tmp_path, kind, value)
    with pytest.raises(CheckpointError, match=f"array {name} holds NaN or infinity"):
        (load_ner_model if kind == "ner" else load_re_model)(path)


def test_the_first_non_finite_array_is_named(tmp_path):
    model = NerModel(tiny_cfg(), seed=0)
    model.head["ner.w"][0, 0] = float("inf")
    model.encoder.params["tok_emb"][0, 0] = float("nan")
    model.head["ner.b"][0] = float("nan")
    path = tmp_path / "ner.ckpt"
    save_ner_model(path, model)
    with pytest.raises(CheckpointError, match="array ner.b holds"):
        load_ner_model(path)


@pytest.mark.parametrize("value", [float("nan"), float("inf")], ids=["nan", "inf"])
@pytest.mark.parametrize("command", ["predict-ner", "predict-e2e"])
def test_predicting_with_non_finite_weights_is_one_error_line(tmp_path, capsys, command, value):
    corpus = tmp_path / "corpus"
    save_corpus(build_micro_corpus()[:1], corpus)
    ner_path, name = non_finite_checkpoint(tmp_path, "ner", value)
    out = tmp_path / "out.tsv"
    if command == "predict-ner":
        argv = ["predict-ner", "--ckpt", str(ner_path), "--corpus", str(corpus),
                "--out", str(out)]
    else:
        re_path = tmp_path / "re.ckpt"
        save_re_model(re_path, RelationModel(tiny_cfg(), seed=0))
        argv = ["predict-e2e", "--ner-ckpt", str(ner_path), "--re-ckpt", str(re_path),
                "--corpus", str(corpus), "--out-rels", str(out)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and f"array {name}" in err[0], err
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("kind", ["ner", "re"])
def test_a_negative_header_seed_is_a_header_error(tmp_path, kind):
    path = tmp_path / "seed.ckpt"
    path.write_bytes(patched(valid_bytes(tmp_path, kind), SEED_AT, struct.pack("<q", -5)))
    with pytest.raises(CheckpointError, match=r"header seed -5 is outside \[0, 2\*\*63\)") as info:
        load_checkpoint(path)
    assert "config blob" not in str(info.value)
    with pytest.raises(CheckpointError, match="header seed -5"):
        (load_ner_model if kind == "ner" else load_re_model)(path)


def test_a_seed_the_header_cannot_hold_leaves_no_file(tmp_path):
    model = NerModel(tiny_cfg(), seed=0)
    path = tmp_path / "seed.ckpt"
    with pytest.raises(struct.error):
        save_checkpoint(path, "ner", 8, 1, 2 ** 63, model.config.to_dict(), model.parameters())
    assert not path.exists()


@pytest.mark.parametrize("kind", ["ner", "re"])
def test_saving_a_model_of_the_other_kind_is_refused(tmp_path, kind):
    save, model, other = ((save_ner_model, RelationModel(tiny_cfg(), seed=0), "re")
                          if kind == "ner" else
                          (save_re_model, NerModel(tiny_cfg(), seed=0), "ner"))
    path = tmp_path / "wrong.ckpt"
    with pytest.raises(CheckpointError,
                       match=f"model is a '{other}' model, expected '{kind}'"):
        save(path, model)
    assert not path.exists()

"""The config size bound really bounds the models it lets through.

`PipelineConfig` refuses a config whose upper bound on either model's
float64 parameters exceeds `MAX_PARAMETERS`, and it states both models'
parameter layout by hand to do so. Here the limit is lowered to a few
thousand and seeded small configs are drawn across every variant, zero
to three blocks and a zero-wide width embedding among them: every config
accepted builds a span model and a relation model within the limit, and
some configs are refused.
"""

import random

import chemspan.config
from chemspan.config import (
    _VARIANT_SEGMENTS,
    EncoderConfig,
    NerConfig,
    PipelineConfig,
    RelationConfig,
)
from chemspan.errors import ConfigError
from chemspan.ner import NerModel
from chemspan.relation import RelationModel

LIMIT = 3000
CASES = 200


def draw(rng: random.Random) -> PipelineConfig:
    return PipelineConfig(
        EncoderConfig(dim=rng.randint(1, 10), blocks=rng.randint(0, 3),
                      ffn_dim=rng.randint(1, 64), buckets=rng.randint(1, 80),
                      max_len=rng.randint(1, 80)),
        NerConfig(max_span_width=rng.randint(1, 24), width_dim=rng.choice([0, 0, 1, 3, 8])),
        RelationConfig(variant=rng.choice(sorted(_VARIANT_SEGMENTS)),
                       head_hidden=rng.randint(1, 64)))


def test_every_config_accepted_builds_models_within_the_limit(monkeypatch):
    monkeypatch.setattr(chemspan.config, "MAX_PARAMETERS", LIMIT)
    rng = random.Random(24)
    accepted, refused = [], 0
    for _ in range(CASES):
        try:
            cfg = draw(rng)
        except ConfigError as exc:
            assert f"over the limit of {LIMIT}" in str(exc)
            refused += 1
            continue
        accepted.append(cfg)
        for model_class in (NerModel, RelationModel):
            model = model_class(cfg, seed=0)
            count = sum(value.size for value in model.parameters().values())
            assert count <= LIMIT, (model_class.__name__, cfg, count)
    assert refused and accepted
    assert {cfg.relation.variant for cfg in accepted} == set(_VARIANT_SEGMENTS)
    assert {cfg.encoder.blocks for cfg in accepted} == {0, 1, 2, 3}
    assert any(cfg.ner.width_dim == 0 for cfg in accepted)

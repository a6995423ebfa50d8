"""Pipeline configuration with the published defaults.

Everything the trainers and CLI read lives here: encoder size, span
enumeration limit, context window budgets, epoch counts, and the tuned
optimizer settings for the built-in encoder. Config files are plain JSON
holding any subset of these keys, grouped by section.
"""

import dataclasses
import json
import math
from dataclasses import dataclass
from typing import Dict, Optional

from .errors import ConfigError


def _check_fields(section: str, values, minimums: Dict[str, int]) -> None:
    """Raise ConfigError naming the first bad field of a config object.

    Integer fields must hold ints (not bools or floats) of at least their
    minimum; float fields must be finite numbers above zero.
    """
    for f in dataclasses.fields(values):
        key = f"{section}.{f.name}"
        value = getattr(values, f.name)
        if f.type is int and (isinstance(value, bool) or not isinstance(value, int)):
            raise ConfigError(f"{key} must be an integer, got {value!r}")
        if f.type is int and value < minimums[f.name]:
            raise ConfigError(f"{key} must be at least {minimums[f.name]}, got {value}")
        if f.type is float and (isinstance(value, bool) or not isinstance(value, (int, float))
                                or not 0 < value < math.inf):
            raise ConfigError(f"{key} must be a finite number above 0, got {value!r}")


def _json_object(what: str, value) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{what} must be a JSON object, got {type(value).__name__}")
    return value


@dataclass
class EncoderConfig:
    dim: int = 64
    blocks: int = 2
    ffn_dim: int = 128
    buckets: int = 2048
    max_len: int = 512

    def __post_init__(self):
        _check_fields("encoder", self, {"dim": 1, "blocks": 0, "ffn_dim": 1,
                                        "buckets": 1, "max_len": 1})


@dataclass
class NerConfig:
    max_span_width: int = 16        # candidate spans run from width 1 to this
    width_dim: int = 25             # learned width embedding size
    context_window: int = 300       # token budget shared by both sides
    epochs: int = 50
    batch_size: int = 16
    lr: float = 3e-3

    def __post_init__(self):
        _check_fields("ner", self, {"max_span_width": 1, "width_dim": 0, "context_window": 0,
                                    "epochs": 0, "batch_size": 1})


# relation representation layouts: which pooled pieces are concatenated, in order
_VARIANT_SEGMENTS = {
    "A": ("s_open", "o_open"),
    "B": ("cls", "s_open", "o_open"),
    "C": ("s_open", "mid", "o_open"),
    "D": ("cls", "s_open", "mid", "o_open"),
    "E": ("s_open", "s_close", "mid", "o_open", "o_close"),
    "F": ("cls", "s_open", "s_close", "mid", "o_open", "o_close"),
}


@dataclass
class RelationConfig:
    variant: str = "C"              # which representation layout to use
    head_hidden: int = 64
    context_window: int = 100
    epochs: int = 10
    batch_size: int = 16
    lr: float = 3e-3

    def __post_init__(self):
        if not isinstance(self.variant, str) or self.variant not in _VARIANT_SEGMENTS:
            raise ConfigError(f"relation.variant must be one of A-F, got {self.variant!r}")
        _check_fields("relation", self, {"head_hidden": 1, "context_window": 0,
                                         "epochs": 0, "batch_size": 1})


# ~260 times the bound at the default sizes. Training adds one more copy, its
# gradients, and Adam's two moments only at the rows it steps: dense for the packed
# buffer and positions, but for the embedding table only at the hashed and marker
# rows until the hashed rows fill half the buckets. Adam's two scratch arrays are
# the size of the largest selection stepped: the packed buffer, or the whole table.
MAX_PARAMETERS = 2 ** 26

_SECTIONS = {"encoder": EncoderConfig, "ner": NerConfig, "relation": RelationConfig}


@dataclass
class PipelineConfig:
    encoder: EncoderConfig = dataclasses.field(default_factory=EncoderConfig)
    ner: NerConfig = dataclasses.field(default_factory=NerConfig)
    relation: RelationConfig = dataclasses.field(default_factory=RelationConfig)

    def __post_init__(self):
        e, n, r = self.encoder, self.ner, self.relation
        widest = max(map(len, _VARIANT_SEGMENTS.values()))
        # an upper bound on the float64 parameters either model allocates, a zero-wide row as one
        bound = (e.dim * (e.buckets + e.max_len + 8)                       # embeddings
                 + e.blocks * (e.dim + 1) * (4 * e.dim + 2 * e.ffn_dim + 8)  # blocks
                 + (n.max_span_width + 3) * max(n.width_dim, 1) + 6 * e.dim + 3  # span head
                 + (widest * e.dim + 7) * r.head_hidden + 6)                # relation head
        if bound > MAX_PARAMETERS:
            raise ConfigError(
                f"config sizes allow up to {bound} float64 parameters per model, over "
                f"the limit of {MAX_PARAMETERS}: encoder.dim={e.dim}, "
                f"encoder.buckets={e.buckets}, encoder.max_len={e.max_len}, "
                f"encoder.blocks={e.blocks}, encoder.ffn_dim={e.ffn_dim}, "
                f"ner.max_span_width={n.max_span_width}, ner.width_dim={n.width_dim}, "
                f"relation.head_hidden={r.head_hidden}")

    @classmethod
    def from_dict(cls, data) -> "PipelineConfig":
        """Build each section through its constructor; unknown keys are errors."""
        kwargs = {}
        for name, value in _json_object("config", data).items():
            if name not in _SECTIONS:
                raise ConfigError(f"unknown config key {name}")
            known = {f.name for f in dataclasses.fields(_SECTIONS[name])}
            for key in _json_object(f"config section {name}", value):
                if key not in known:
                    raise ConfigError(f"unknown config key {name}.{key}")
            kwargs[name] = _SECTIONS[name](**value)
        return cls(**kwargs)

    @classmethod
    def from_json(cls, path) -> "PipelineConfig":
        with open(path, "rb") as fh:
            raw = fh.read()
        try:
            data = json.loads(raw.decode("utf-8"))
        except ValueError as exc:  # UnicodeDecodeError or JSONDecodeError
            raise ConfigError(f"{path}: not a UTF-8 JSON file ({exc})") from None
        return cls.from_dict(data)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


def load_config(path: Optional[str]) -> PipelineConfig:
    return PipelineConfig() if path is None else PipelineConfig.from_json(path)

import math
from dataclasses import fields

import pytest
from hypothesis import given, settings, strategies as st

from sbp.config import TrainConfig, config_to_text, default_config, parse_config
from sbp.errors import ConfigurationError


class TestParse:
    def test_defaults_from_empty(self):
        cfg = parse_config("")
        assert cfg.model.kind == "mlp"
        assert cfg.sbp.keep_ratio == 0.5
        assert cfg.train.batch_size == 16

    def test_overrides_and_comments(self):
        cfg = parse_config("""
        # a comment
        model.kind = vit
        model.grid = 4x4
        sbp.mode = query_only
        train.lr = 0.25
        sbp.resample_each_step = false
        """)
        assert cfg.model.kind == "vit"
        assert cfg.model.grid == (4, 4)
        assert cfg.sbp.mode == "query_only"
        assert cfg.train.lr == 0.25
        assert cfg.sbp.resample_each_step is False

    def test_unknown_section_is_error(self):
        with pytest.raises(ConfigurationError, match="unknown section"):
            parse_config("optimizer.lr = 0.1")

    def test_unknown_key_is_error(self):
        with pytest.raises(ConfigurationError, match="unknown key"):
            parse_config("model.depthh = 3")

    def test_missing_section_prefix(self):
        with pytest.raises(ConfigurationError, match="section prefix"):
            parse_config("kind = vit")

    def test_missing_equals(self):
        with pytest.raises(ConfigurationError):
            parse_config("model.kind vit")

    def test_bad_int_value(self):
        with pytest.raises(ConfigurationError, match="bad value"):
            parse_config("train.steps = soon")

    def test_bad_bool_value(self):
        with pytest.raises(ConfigurationError, match="bad value"):
            parse_config("sbp.enabled = yes")

    def test_error_includes_line_number(self):
        with pytest.raises(ConfigurationError, match="line 2"):
            parse_config("model.kind = mlp\nbogus.key = 1")


class TestValidate:
    @pytest.mark.parametrize("line", [
        "model.kind = resnet",
        "sbp.mode = rows",
        "sbp.sampler = halton",
        "sbp.sharing = both",
        "sbp.schedule = sawtooth",
        "sbp.keep_ratio = 0.0",
        "sbp.keep_ratio = 1.5",
        "train.steps = 0",
        "train.lr = -0.1",
        "model.grid = 4x4x4",
        "model.grid = 0x4",
        "model.grid = 4x0",
        "model.in_channels = 0",
        "model.width = 0",
        "model.embed = 0",
        "model.heads = 0",
        "model.mlp_ratio = 0",
        "model.channels = 0",
        "model.kernel = 0",
        "model.n_classes = 0",
        "model.depth = -2",
        "model.kind = conv\nmodel.depth = 0",
        "model.sbp_fraction = -0.1",
        "model.sbp_fraction = 1.5",
        "data.count = 0",
        "gradsim.batches = -2",
        "train.lr = nan",
        "train.lr = inf",
        "data.noise = nan",
        "data.noise = -inf",
        "train.seed = -5",
        "data.seed = -1",
    ])
    def test_invalid_values_rejected(self, line):
        with pytest.raises(ConfigurationError):
            parse_config(line)


class TestRoundtrip:
    def test_text_roundtrip(self):
        cfg = parse_config("model.kind = conv\nmodel.grid = 6x4\ntrain.seed = 9\n")
        back = parse_config(config_to_text(cfg))
        assert back == cfg

    def test_default_roundtrip(self):
        cfg = default_config()
        assert parse_config(config_to_text(cfg)) == cfg


KNOWN_KEYS = [f"{section.name}.{key.name}" for section in fields(default_config())
              for key in fields(getattr(default_config(), section.name))]

config_values = st.one_of(
    st.text(max_size=12),
    st.integers(-3, 20).map(str),
    st.sampled_from(["0.5", "1e309", "nan", "inf", "-inf", "true", "false", "4x4", "0x4", "x",
                     "qkv", "head", "grid", "shared", "vit", "conv"]))

FLOAT_KEYS = [f"{section.name}.{key.name}" for section in fields(default_config())
              for key in fields(getattr(default_config(), section.name))
              if isinstance(getattr(getattr(default_config(), section.name), key.name), float)]

config_lines = st.one_of(
    st.builds(lambda key, value: f"{key} = {value}",
              st.sampled_from(KNOWN_KEYS) | st.text(max_size=12), config_values),
    st.builds(lambda key, value: f"{key} = {value}",
              st.sampled_from(FLOAT_KEYS), st.sampled_from(["nan", "inf", "-inf", "1e309"])),
    st.text(max_size=20))


@settings(max_examples=300, deadline=None)
@given(lines=st.lists(config_lines, max_size=6))
def test_arbitrary_text_parses_or_raises_configuration_error(lines):
    try:
        cfg = parse_config("\n".join(lines))
    except ConfigurationError:
        return
    assert isinstance(cfg, TrainConfig)
    assert all(math.isfinite(v) for section in vars(cfg).values()
               for v in vars(section).values() if isinstance(v, float))
    assert cfg.train.seed >= 0 and cfg.data.seed >= 0

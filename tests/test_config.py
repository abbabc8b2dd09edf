import dataclasses

import pytest

from invlab.config import _SCHEMA, ConfigError, RunConfig, config_echo, parse_config
from invlab.dynamics import ModelKind

MINIMAL = """
model = singular-scalar
ic = singular-cos
t_end = 0.5
"""


class TestParsing:
    def test_minimal_config_gets_defaults(self):
        cfg = parse_config(MINIMAL)
        assert cfg.model is ModelKind.SINGULAR_SCALAR
        assert cfg.nx == 256 and cfg.ny == 256
        assert cfg.cfl == 0.4
        assert cfg.dt is None
        assert cfg.series_interval == 0.01

    def test_every_field_has_exactly_one_key(self):
        # a knob removed from one of the two but not the other fails here
        targets = [name for _, name in _SCHEMA.values()]
        assert sorted(targets) == sorted(f.name for f in dataclasses.fields(RunConfig))

    def test_minimal_config_equals_the_dataclass_defaults(self):
        cfg = parse_config(MINIMAL)
        expected = RunConfig(ModelKind.SINGULAR_SCALAR, "singular-cos", 0.5)
        for f in dataclasses.fields(RunConfig):
            assert getattr(cfg, f.name) == getattr(expected, f.name), f.name

    def test_comments_and_blank_lines(self):
        cfg = parse_config("# a comment\n\nmodel = boussinesq  # inline\nic = expr: sin(x2)\nic_omega = expr: sin(x1)\nt_end = 1\n")
        assert cfg.model is ModelKind.BOUSSINESQ

    def test_missing_required_key_named(self):
        with pytest.raises(ConfigError, match="'ic'"):
            parse_config("model = boussinesq\nt_end = 1\n")

    def test_duplicate_key_cites_both_lines(self):
        text = "model = boussinesq\nic = x\nmodel = boussinesq\nt_end = 1\n"
        with pytest.raises(ConfigError, match=r"line 3.*line 1"):
            parse_config(text)

    def test_unknown_key_with_line_number(self):
        with pytest.raises(ConfigError, match="line 2.*'colour'"):
            parse_config("model = boussinesq\ncolour = blue\n")

    def test_type_mismatch_with_line_number(self):
        with pytest.raises(ConfigError, match="line 4"):
            parse_config("model = singular-scalar\nic = singular-cos\nt_end = 0.5\nnx = many\n")

    def test_unknown_model_listed(self):
        with pytest.raises(ConfigError, match="unknown model"):
            parse_config("model = navier\nic = x\nt_end = 1\n")

    def test_malformed_line(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config("just words\n")

    @pytest.mark.parametrize(
        "overrides, message",
        [
            (["=1"], "override: empty key"),
            ([""], "override: expected 'key = value', got ''"),
            (["ic=a\rb"], "override: the value of 'ic' holds '#' or a line break"),
        ],
    )
    def test_override_errors(self, overrides, message):
        with pytest.raises(ConfigError) as err:
            parse_config(MINIMAL, overrides)
        assert str(err.value) == message

    def test_dotted_output_keys(self):
        cfg = parse_config(MINIMAL + "output.dir = results\noutput.snapshot_interval = 0.1\n")
        assert cfg.output_dir == "results"
        assert cfg.snapshot_interval == 0.1

    def test_diagnostics_list(self):
        cfg = parse_config(MINIMAL + "diagnostics = conservation, symmetry\n")
        assert cfg.diagnostics == ("conservation", "symmetry")
        with pytest.raises(ConfigError, match="unknown diagnostic"):
            parse_config(MINIMAL + "diagnostics = spectra\n")


class TestValidation:
    def test_odd_grid_rejected(self):
        with pytest.raises(ConfigError, match="nx"):
            parse_config(MINIMAL + "nx = 33\n")

    def test_bad_cfl_rejected(self):
        with pytest.raises(ConfigError, match="cfl"):
            parse_config(MINIMAL + "cfl = 1.5\n")

    def test_negative_t_end_rejected(self):
        with pytest.raises(ConfigError, match="t_end"):
            parse_config("model = singular-scalar\nic = singular-cos\nt_end = -1\n")

    @pytest.mark.parametrize("key", ["output.series_interval", "output.snapshot_interval"])
    def test_negative_output_interval_rejected(self, key):
        with pytest.raises(ConfigError) as err:
            parse_config(MINIMAL + f"{key} = -0.1\n")
        assert str(err.value) == "output intervals must be nonnegative"

    def test_empty_key_rejected(self):
        with pytest.raises(ConfigError) as err:
            parse_config(MINIMAL + " = 1\n")
        assert str(err.value) == "line 5: empty key"

    def test_dt_zero_means_cfl_chosen(self):
        cfg = parse_config(MINIMAL + "dt = 0\n")
        assert cfg.dt is None


FULL = """
model = modified-boussinesq
ic = expr: sin(x2)*(1 + 0.5*cos(x1))
ic_omega = expr: sin(x2)*cos(x1)
nx = 64
ny = 32
dt = 0.0025
cfl = 0.3
t_end = 1.5
max_grad = 1e4
output.dir = results/run-1
output.snapshot_interval = 0.1
output.series_interval = 0.007
diagnostics = conservation, symmetry
"""


class TestEcho:
    # meta.txt opens with this text, so its layout is pinned line for line
    @pytest.mark.parametrize(
        "text, echo",
        [
            (
                FULL,
                "model = modified-boussinesq\n"
                "ic = expr: sin(x2)*(1 + 0.5*cos(x1))\n"
                "ic_omega = expr: sin(x2)*cos(x1)\n"
                "nx = 64\n"
                "ny = 32\n"
                "dt = 0.0025000000000000001\n"
                "cfl = 0.29999999999999999\n"
                "t_end = 1.5\n"
                "max_grad = 10000\n"
                "output.dir = results/run-1\n"
                "output.snapshot_interval = 0.10000000000000001\n"
                "output.series_interval = 0.0070000000000000001\n"
                "diagnostics = conservation, symmetry\n",
            ),
            (
                MINIMAL,
                "model = singular-scalar\n"
                "ic = singular-cos\n"
                "nx = 256\n"
                "ny = 256\n"
                "dt = 0\n"
                "cfl = 0.40000000000000002\n"
                "t_end = 0.5\n"
                "max_grad = 1000000\n"
                "output.dir = out\n"
                "output.snapshot_interval = 0\n"
                "output.series_interval = 0.01\n",
            ),
        ],
        ids=["every-key", "defaults"],
    )
    def test_echo_text_is_pinned(self, text, echo):
        assert config_echo(parse_config(text)) == echo

    def test_every_key_is_set_in_the_full_config(self):
        assert {line.split(" = ", 1)[0] for line in FULL.strip().splitlines()} == set(_SCHEMA)

    def test_roundtrip_through_echo(self):
        cfg = parse_config(MINIMAL + "dt = 0.002\nnx = 64\nny = 64\n")
        again = parse_config(config_echo(cfg))
        assert again == cfg

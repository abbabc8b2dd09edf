import math

import numpy as np
import pytest

from invlab import oracles, presets
from invlab.config import ConfigError, parse_config
from invlab.dynamics import ModelKind
from invlab.spectral import Grid2D, forward, inverse

GRID = Grid2D(32, 16)

# expressions of the README, the test configs and the benchmark's initial data
DOCUMENTED = [
    "cos(x1)*cos(x2)",
    "sin(x1)*cos(x2)",
    "sin(x1)*sin(x2)",
    "sin(x2)",
    # the benchmark's initial data
    "cos(x1 + 2.718281828459045)*cos(x2)",
    "sin(x2)*(1 + 0.5*cos(x1 + 0.8853386244618939))",
    "sin(x2)*cos(x1 + 0.8853386244618939)",
    "-x1**2/3 + 2*pi*tanh(x2) - exp(-x2**2)*sqrt(abs(x1))*sign(x2)",
]


def python_eval(expr):
    """The expression as Python itself evaluates it, names bound to the same values."""
    x1, x2 = GRID.mesh()
    ns = dict(presets._NAMESPACE, x1=x1, x2=x2, pi=math.pi)
    values = eval(expr, {"__builtins__": {}}, ns)
    return np.broadcast_to(np.asarray(values, dtype=np.float64), GRID.shape)


class TestExpressions:
    @pytest.mark.parametrize("expr", DOCUMENTED)
    def test_fields_match_python_evaluation_bit_for_bit(self, expr):
        field = presets._eval_expr(" " + expr, GRID)
        assert field.tobytes() == python_eval(expr).tobytes()

    @pytest.mark.parametrize("expr", DOCUMENTED[4:7] + ["1", "x1", "sin(x2)"])
    def test_sparse_coordinates_give_writable_full_arrays(self, expr):
        # the expression sees broadcast (nx, 1) and (1, ny) coordinates
        field = presets._eval_expr(expr, GRID)
        assert field.shape == GRID.shape
        assert field.flags.writeable
        assert np.array_equal(field, python_eval(expr))

    def test_constant_expression_fills_the_grid(self):
        assert np.all(presets._eval_expr("2**-1*pi", GRID) == 0.5 * math.pi)

    @pytest.mark.parametrize(
        "expr, node",
        [
            ("().__class__.__base__.__subclasses__()", "Attribute"),
            ("x1.T", "Attribute"),
            ("(lambda: 1)()", "Lambda"),
            ("lambda: x1", "Lambda"),
            ("[x for x in (x1, x2)]", "ListComp"),
            ("__import__('os')", "'__import__'"),
            ("x1 // 2", "FloorDiv"),
            ("x1 if x2 else 0", "IfExp"),
            ("'a'", "Constant"),
            ("y", "Name 'y'"),
            ("sin(x=x1)", "keyword"),
        ],
    )
    def test_anything_else_is_rejected_by_node(self, expr, node):
        with pytest.raises(ConfigError, match=node):
            presets._eval_expr(expr, GRID)

    def test_powers_are_taken_in_floats(self):
        # so a tower such as 9**9**9**9 overflows at once instead of growing an integer
        with pytest.raises(ConfigError, match="range"):
            presets._eval_expr("2**2**20", GRID)


class TestOracleRegistry:
    @pytest.mark.parametrize(
        "family, first",
        [("wedge", "sin"), ("moving-domain", "identity"), ("modified", "linear"), ("stationary", "const")],
    )
    def test_no_preset_means_the_first_one(self, family, first):
        assert next(iter(oracles.FAMILIES[family][2])) == first
        assert presets.oracle_solution(family) == presets.oracle_solution(family, first)


class TestInitialState:
    @pytest.mark.parametrize("model", list(ModelKind), ids=lambda m: m.value)
    def test_fields_are_the_band_projection_of_the_sampled_data(self, model):
        text = f"model = {model.value}\nt_end = 1\nnx = 32\nny = 16\n"
        if model is ModelKind.SINGULAR_SCALAR:
            text += "ic = singular-cos\n"
            exprs = ["cos(x1)*cos(x2)"]
        else:
            text += "ic = expr: sin(x2)*(1 + 0.5*cos(x1))\nic_omega = expr: sin(x2)*cos(x1)\n"
            exprs = ["sin(x2)*(1 + 0.5*cos(x1))", "sin(x2)*cos(x1)"]
        cfg = parse_config(text)
        grid = presets.grid_for(cfg)
        state = presets.build_initial_state(cfg, grid)
        assert len(state.fields) == len(exprs)
        for field, expr in zip(state.fields, exprs):
            band = forward(grid, presets._eval_expr(expr, grid))
            assert field.hat.shape == (grid.nx, grid.ny // 3 + 1)
            assert np.array_equal(field.hat, band)
            assert np.array_equal(field.values, inverse(grid, band))

    @pytest.mark.parametrize(
        "omega, mean", [("1 + sin(x2)", "1.000e+00"), ("1e9*(1 + sin(x2))", "1.000e+09")], ids=["unit", "large"]
    )
    @pytest.mark.parametrize("model", [ModelKind.BOUSSINESQ, ModelKind.MODIFIED_BOUSSINESQ], ids=lambda m: m.value)
    def test_rejects_vorticity_with_nonzero_mean(self, model, omega, mean):
        # the periodic Poisson problem Delta psi = omega needs zero-mean omega
        cfg = parse_config(
            f"model = {model.value}\nt_end = 1\nnx = 32\nny = 16\nic = expr: sin(x2)\nic_omega = expr: {omega}\n"
        )
        with pytest.raises(ConfigError) as err:
            presets.build_initial_state(cfg, presets.grid_for(cfg))
        assert str(err.value) == (
            f"vorticity has nonzero mean {mean}; the periodic Poisson problem is not solvable"
        )

    def test_roundoff_mean_of_large_zero_mean_vorticity_is_accepted(self):
        # the band mean of this zero-mean data is roundoff of its 2.5e8 coefficients
        # (6.9e-10 with numpy's pocketfft), far above an absolute 1e-10
        cfg = parse_config(
            "model = boussinesq\nt_end = 1\nnx = 64\nny = 64\nic = expr: sin(x2)\n"
            "ic_omega = expr: 1e9*sin(3*x2 + 0.3)*cos(5*x1 + 0.7)\n"
        )
        omega = presets.build_initial_state(cfg, presets.grid_for(cfg)).omega
        assert abs(omega.hat[0, 0].real) < 1e-8

    @pytest.mark.parametrize(
        "model, lines, message",
        [
            (
                "boussinesq",
                "ic = singular-cos\nic_omega = expr: sin(x2)\n",
                "ic preset 'singular-cos' belongs to model singular-scalar, config says boussinesq",
            ),
            ("boussinesq", "ic = expr: sin(x2)\n", "model boussinesq needs an ic_omega expression"),
            (
                "modified-boussinesq",
                "ic = expr: sin(x2)\nic_omega = sin(x2)\n",
                "ic_omega must be an 'expr: ...' expression",
            ),
            ("singular-scalar", "ic = singular-cos\nic_omega = expr: sin(x2)\n", "the scalar model takes no ic_omega"),
        ],
        ids=["preset-of-another-model", "missing-ic-omega", "ic-omega-without-expr", "scalar-with-ic-omega"],
    )
    def test_rejects_initial_data_the_model_cannot_take(self, model, lines, message):
        cfg = parse_config(f"model = {model}\nt_end = 1\nnx = 32\nny = 16\n" + lines)
        with pytest.raises(ConfigError) as err:
            presets.build_initial_state(cfg, presets.grid_for(cfg))
        assert str(err.value) == message

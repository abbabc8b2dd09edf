import ctypes
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import invlab
from invlab import cli
from invlab.cli import EXIT_BLOWUP, EXIT_ERROR, EXIT_OK, EXIT_ORACLE_FAIL, EXIT_VALIDATION, main
from invlab.snapshots import read_snapshot
from invlab.spectral import Grid2D

SMALL_RUN = ["--set", "nx=32", "--set", "ny=32", "--set", "t_end=0.05", "--set", "dt=0.002"]


# the (family, preset) pairs of the benchmark's oracles workload; paper-printed must fail
ORACLE_PAIRS = (
    ("wedge", "sin"),
    ("moving-domain", "identity"),
    ("modified", "linear"),
    ("modified", "oscillatory"),
    ("modified", "paper-printed"),
    ("stationary", "const"),
)


def glibc_mallopt() -> bool:
    """Whether this process runs on glibc and can call its mallopt."""
    try:
        return bool(os.confstr("CS_GNU_LIBC_VERSION")) and hasattr(ctypes.CDLL(None), "mallopt")
    except (ValueError, OSError, TypeError):
        return False


def run_cli(*argv):
    return main(list(argv))


def fresh_interpreter(*args: str) -> subprocess.CompletedProcess:
    """A new interpreter that imports this checkout's invlab, run with `args`."""
    src = str(Path(invlab.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env, timeout=120)


def run_fresh_interpreter(script: str) -> str:
    """stdout of `script` run by a new interpreter that imports this checkout's invlab."""
    proc = fresh_interpreter("-c", script)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


class TestRun:
    def test_preset_run_writes_artifacts(self, tmp_path):
        out = tmp_path / "run"
        code = run_cli("run", "singular-cos", *SMALL_RUN, "--output", str(out))
        assert code == EXIT_OK
        series = (out / "series.csv").read_text().splitlines()
        assert series[0] == "t,l2_theta,linf_theta,sup_grad_theta,min_axis_slope"
        assert len(series) >= 6  # t = 0 plus interval rows plus final
        assert (out / "meta.txt").read_text().count("blowup = none") == 1
        t, fields, _ = read_snapshot(out / "snapshot-0000.bin")
        assert t == 0.0 and "theta" in fields

    def test_reruns_are_bit_identical(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        run_cli("run", "singular-cos", *SMALL_RUN, "--output", str(out1))
        run_cli("run", "singular-cos", *SMALL_RUN, "--output", str(out2))
        assert (out1 / "series.csv").read_bytes() == (out2 / "series.csv").read_bytes()
        assert (out1 / "snapshot-0001.bin").read_bytes() == (out2 / "snapshot-0001.bin").read_bytes()

    def test_t_end_zero_single_row(self, tmp_path):
        out = tmp_path / "zero"
        code = run_cli("run", "singular-cos", "--set", "nx=32", "--set", "ny=32",
                       "--set", "t_end=0", "--output", str(out))
        assert code == EXIT_OK
        rows = (out / "series.csv").read_text().splitlines()
        assert len(rows) == 2  # header + initial row
        snaps = sorted(p.name for p in out.glob("snapshot-*.bin"))
        assert snaps == ["snapshot-0000.bin"]

    def test_blowup_exit_code_and_partial_artifacts(self, tmp_path):
        out = tmp_path / "blow"
        code = run_cli("run", "singular-cos", "--set", "nx=32", "--set", "ny=32",
                       "--set", "t_end=0.5", "--set", "dt=0.005",
                       "--set", "max_grad=1.05", "--output", str(out))
        assert code == EXIT_BLOWUP
        meta = (out / "meta.txt").read_text()
        assert "blowup = signalled" in meta
        assert "blowup.reason = gradient-ceiling" in meta
        assert (out / "series.csv").exists()

    def test_config_file_with_diagnostics(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "model = singular-scalar\nic = singular-cos\nt_end = 0.02\n"
            "nx = 32\nny = 32\ndt = 0.002\ndiagnostics = conservation, symmetry\n"
        )
        out = tmp_path / "diag"
        assert run_cli("run", str(cfg), "--output", str(out)) == EXIT_OK
        assert (out / "conservation.csv").exists()
        assert (out / "symmetry.csv").exists()

    def test_a_rerun_into_a_used_directory_leaves_no_earlier_artifact(self, tmp_path):
        base = "model = singular-scalar\nic = singular-cos\nnx = 16\nny = 16\ndt = 0.005\n"
        first, second = tmp_path / "first.cfg", tmp_path / "second.cfg"
        first.write_text(base + "t_end = 0.02\noutput.snapshot_interval = 0.005\ndiagnostics = conservation\n")
        second.write_text(base + "t_end = 0.01\n")
        out = tmp_path / "out"
        assert run_cli("run", str(first), "--output", str(out)) == EXIT_OK
        assert (out / "snapshot-0004.bin").exists()
        (out / "notes.txt").write_text("kept")
        assert run_cli("run", str(second), "--output", str(out)) == EXIT_OK
        assert sorted(p.name for p in out.iterdir()) == [
            "meta.txt", "notes.txt", "series.csv", "snapshot-0000.bin", "snapshot-0001.bin"
        ]
        assert read_snapshot(out / "snapshot-0001.bin")[0] == pytest.approx(0.01, abs=1e-12)

    def test_unknown_preset_or_path(self, capsys):
        assert run_cli("run", "no-such-thing") == EXIT_VALIDATION
        assert "preset" in capsys.readouterr().err

    def test_bad_override(self, capsys):
        assert run_cli("run", "singular-cos", "--set", "nx") == EXIT_VALIDATION

    def test_documented_preset_completes_at_128_within_budget(self, tmp_path):
        import time

        start = time.perf_counter()
        code = run_cli("run", "singular-cos", "--set", "nx=128", "--set", "ny=128",
                       "--output", str(tmp_path / "p128"))
        wall = time.perf_counter() - start
        assert code == EXIT_OK
        assert wall < 60.0, f"preset run took {wall:.1f}s"

    def test_boussinesq_expression_config(self, tmp_path):
        cfg = tmp_path / "bous.cfg"
        cfg.write_text(
            "model = boussinesq\nic = expr: sin(x1)*cos(x2)\nic_omega = expr: sin(x1)*sin(x2)\n"
            "t_end = 0.05\nnx = 32\nny = 32\ndt = 0.005\n"
        )
        out = tmp_path / "bous"
        assert run_cli("run", str(cfg), "--output", str(out)) == EXIT_OK
        _, fields, _ = read_snapshot(out / "snapshot-0001.bin")
        assert set(fields) == {"theta", "omega"}
        # vorticity models report no axis slope
        last = (out / "series.csv").read_text().splitlines()[-1]
        assert last.endswith("nan")

    # x1-independent or x2-independent families whose advection terms vanish
    # and whose fields are linear in t, so RK4 reproduces them to roundoff
    EXACT_FAMILIES = {
        # theta = sin x1, omega = t cos x1
        "boussinesq": ("sin(x1)", "0*x1", lambda x1, x2: np.sin(x1), lambda x1, x2, t: t * np.cos(x1)),
        # theta = sin x2, omega = sin x2 - t sin 2x2
        "modified-boussinesq": (
            "sin(x2)",
            "sin(x2)",
            lambda x1, x2: np.sin(x2),
            lambda x1, x2, t: np.sin(x2) - t * np.sin(2 * x2),
        ),
    }

    @pytest.mark.parametrize("model", sorted(EXACT_FAMILIES))
    def test_vorticity_run_matches_the_exact_family(self, tmp_path, model):
        # config -> presets -> runner -> snapshots, checked against the closed form
        ic, ic_omega, theta_exact, omega_exact = self.EXACT_FAMILIES[model]
        cfg = tmp_path / "exact.cfg"
        cfg.write_text(
            f"model = {model}\nic = expr: {ic}\nic_omega = expr: {ic_omega}\n"
            "t_end = 0.5\nnx = 32\nny = 32\ndt = 0.01\n"
        )
        out = tmp_path / "out"
        assert run_cli("run", str(cfg), "--output", str(out)) == EXIT_OK
        meta = (out / "meta.txt").read_text().splitlines()
        assert "steps = 50" in meta and "blowup = none" in meta
        t, fields, _ = read_snapshot(sorted(out.glob("snapshot-*.bin"))[-1])
        assert t == pytest.approx(0.5, abs=1e-12)
        x1, x2 = Grid2D(32, 32).mesh()
        assert np.max(np.abs(fields["theta"] - theta_exact(x1, x2))) <= 1e-12
        assert np.max(np.abs(fields["omega"] - omega_exact(x1, x2, t))) <= 1e-12

    def test_vorticity_with_nonzero_mean_exits_2(self, tmp_path, capsys):
        # no periodic stream function has a vorticity of nonzero mean
        cfg = tmp_path / "mean.cfg"
        cfg.write_text(
            "model = boussinesq\nic = expr: sin(x2)\nic_omega = expr: 1 + sin(x2)\n"
            "t_end = 0.05\nnx = 16\nny = 16\ndt = 0.005\n"
        )
        out = tmp_path / "out"
        assert run_cli("run", str(cfg), "--output", str(out)) == EXIT_VALIDATION
        assert capsys.readouterr().err == (
            "error: vorticity has nonzero mean 1.000e+00; the periodic Poisson problem is not solvable\n"
        )
        assert not out.exists()  # rejected with the initial data, before any artifact

    @pytest.mark.parametrize("expr", ["().__class__.__base__.__subclasses__()", "[x1 for _ in ()]"])
    def test_expression_outside_the_grammar_exits_2(self, tmp_path, capsys, expr):
        cfg = tmp_path / "escape.cfg"
        cfg.write_text(f"model = singular-scalar\nic = expr: {expr}\nt_end = 0.01\nnx = 16\nny = 16\n")
        assert run_cli("run", str(cfg), "--output", str(tmp_path / "out")) == EXIT_VALIDATION
        assert "not allowed" in capsys.readouterr().err

    @pytest.mark.parametrize("ic", ["nope", "expr: foo(x1)"])
    def test_rejected_initial_data_leaves_no_directory(self, tmp_path, capsys, ic):
        out = tmp_path / "out"
        assert run_cli("run", "singular-cos", "--set", f"ic={ic}", "--output", str(out)) == EXIT_VALIDATION
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    @pytest.mark.parametrize("via", ["file", "override"])
    @pytest.mark.parametrize(
        "key, value",
        [("dealias", "false"), ("project_symmetry", "true"), ("hyperviscosity", "0.1"), ("lx", "6.0"), ("ly", "6.0")],
    )
    def test_removed_step_keys_are_unknown(self, tmp_path, capsys, key, value, via):
        cfg = tmp_path / "removed.cfg"
        text = "model = singular-scalar\nic = singular-cos\nt_end = 0.01\nnx = 16\nny = 16\n"
        override = []
        if via == "file":
            text += f"{key} = {value}\n"
        else:
            override = ["--set", f"{key}={value}"]
        cfg.write_text(text)
        assert run_cli("run", str(cfg), *override, "--output", str(tmp_path / "out")) == EXIT_VALIDATION
        assert f"unknown key {key!r}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("via", ["file", "override"])
    def test_empty_output_dir_exits_2(self, tmp_path, monkeypatch, capsys, via):
        # an empty output.dir would write every artifact into the working directory
        monkeypatch.chdir(tmp_path)
        text = "model = singular-scalar\nic = singular-cos\nt_end = 0.01\nnx = 16\nny = 16\n"
        override = ["--set", "output.dir="] if via == "override" else []
        if via == "file":
            text += "output.dir =\n"
        (tmp_path / "run.cfg").write_text(text)
        assert run_cli("run", "run.cfg", *override) == EXIT_VALIDATION
        assert capsys.readouterr().err == "error: output.dir must not be empty\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.cfg"]

    @pytest.mark.skipif(not glibc_mallopt(), reason="needs glibc's mallopt")
    def test_second_run_in_a_process_takes_few_page_faults(self, tmp_path):
        # a run keeps the memory it frees, so a second identical run reuses
        # those pages instead of faulting in fresh ones (about 28,000 faults
        # at 256^2 with glibc's default thresholds)
        script = (
            "import resource\n"
            "from invlab import runner\n"
            "from invlab.config import parse_config\n"
            "cfg = parse_config('model = singular-scalar\\nic = singular-cos\\nt_end = 0.02\\n'\n"
            "                   'nx = 256\\nny = 256\\ndt = 0.001\\n')\n"
            f"runner.run(cfg, {str(tmp_path / 'first')!r})\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            f"runner.run(cfg, {str(tmp_path / 'second')!r})\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
        )
        faults = int(run_fresh_interpreter(script).splitlines()[-1])
        assert faults < 1000

    def test_unexpected_error_exits_1_with_one_line(self, monkeypatch, capsys):
        def failing_run(cfg, output_dir=None):
            raise RuntimeError("solver crashed")

        monkeypatch.setattr(cli, "run", failing_run)
        assert run_cli("run", "singular-cos") == EXIT_ERROR
        assert capsys.readouterr().err == "error: RuntimeError: solver crashed\n"

    @pytest.mark.parametrize(
        "lines, message",
        [
            ("model = singular-scalar\nic = expr: log(x1)\n", "ic: non-finite field value -inf"),
            (
                "model = boussinesq\nic = expr: sin(x2)\nic_omega = expr: sqrt(-1 + 0*x1)\n",
                "ic_omega: non-finite field value nan",
            ),
        ],
        ids=["ic", "ic_omega"],
    )
    def test_non_finite_initial_data_exits_2_with_one_line_naming_the_key(self, tmp_path, lines, message):
        # a fresh interpreter, so that a numpy warning would reach stderr as it does for users
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(lines + "t_end = 0.01\nnx = 16\nny = 16\n")
        out = tmp_path / "out"
        proc = fresh_interpreter("-m", "invlab.cli", "run", str(cfg), "--output", str(out))
        assert proc.returncode == EXIT_VALIDATION
        assert proc.stderr == f"error: {message} at node (0, 0), x = (0, 0)\n"
        assert not out.exists()

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("key", ["dt", "max_grad", "t_end", "cfl"])
    def test_non_finite_value_exits_2(self, tmp_path, capsys, key, value):
        code = run_cli("run", "singular-cos", "--set", "nx=16", "--set", "ny=16",
                       "--set", f"{key}={value}", "--output", str(tmp_path / "out"))
        assert code == EXIT_VALIDATION
        assert f"{key} must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "model_lines",
        [
            "model = singular-scalar\nic = singular-cos\n",
            "model = boussinesq\nic = expr: sin(x2)*(1 + 0.5*cos(x1))\nic_omega = expr: sin(x2)*cos(x1)\n",
            "model = modified-boussinesq\nic = expr: sin(x2)*(1 + 0.5*cos(x1))\n"
            "ic_omega = expr: sin(x2)*cos(x1)\n",
        ],
        ids=["singular-scalar", "boussinesq", "modified-boussinesq"],
    )
    def test_no_run_path_does_a_complex_transform(self, tmp_path, monkeypatch, model_lines):
        # every spectrum is a half (rfft2) spectrum; numpy's real transforms
        # do not go through these package attributes, so they keep working
        def refuse(*args, **kwargs):
            raise AssertionError("complex FFT called")

        for name in ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn"):
            monkeypatch.setattr(np.fft, name, refuse)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            model_lines + "t_end = 0.05\nnx = 16\nny = 16\ndt = 0.01\n"
            "output.snapshot_interval = 0.02\ndiagnostics = conservation, symmetry\n"
        )
        out = tmp_path / "out"
        assert run_cli("run", str(cfg), "--output", str(out)) == EXIT_OK
        assert (out / "snapshot-0002.bin").exists()
        assert len((out / "symmetry.csv").read_text().splitlines()) == 7  # header, t = 0 .. 0.05

    def test_tiny_output_intervals_make_every_state_due_once(self, tmp_path):
        # a step spanning ~1e10 (or ~1e298) output intervals advances the schedule in one jump
        out = tmp_path / "out"
        code = run_cli("run", "singular-cos", "--set", "nx=16", "--set", "ny=16", "--set", "t_end=0.01",
                       "--set", "dt=0.005", "--set", "output.series_interval=1e-12",
                       "--set", "output.snapshot_interval=1e-300", "--output", str(out))
        assert code == EXIT_OK
        rows = (out / "series.csv").read_text().splitlines()[1:]
        assert [float(row.split(",")[0]) for row in rows] == pytest.approx([0.0, 0.005, 0.01], abs=1e-12)
        snaps = sorted(p.name for p in out.glob("snapshot-*.bin"))
        assert snaps == ["snapshot-0000.bin", "snapshot-0001.bin", "snapshot-0002.bin"]
        assert [read_snapshot(out / name)[0] for name in snaps] == pytest.approx([0.0, 0.005, 0.01], abs=1e-12)

    def test_run_has_no_deterministic_flag(self):
        # runs are always serial and bit-identical
        with pytest.raises(SystemExit) as exc:
            run_cli("run", "singular-cos", "--deterministic")
        assert exc.value.code == 2

    def test_run_loads_no_scipy(self, tmp_path):
        # a solver run needs numpy only, and no thread pool is loaded either
        cfg = tmp_path / "tiny.cfg"
        cfg.write_text("model = singular-scalar\nic = singular-cos\nt_end = 0.02\nnx = 16\nny = 16\ndt = 0.01\n")
        script = (
            "import sys\n"
            "from invlab import cli\n"
            f"assert cli.main(['run', {str(cfg)!r}, '--output', {str(tmp_path / 'out')!r}]) == cli.EXIT_OK\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] in ('scipy', 'concurrent')))\n"
        )
        assert run_fresh_interpreter(script).splitlines()[-1] == "[]"

    def test_oracle_checks_load_no_scipy(self, tmp_path):
        # every oracle family needs numpy only; the sigma quadrature builds its
        # nodes on first use, so importing the CLI loads no numpy.polynomial
        script = (
            "import sys\n"
            "from invlab import cli\n"
            "print(sorted(m for m in sys.modules if m.startswith('numpy.polynomial')))\n"
            f"for family, preset in {ORACLE_PAIRS!r}:\n"
            "    expected = cli.EXIT_ORACLE_FAIL if preset == 'paper-printed' else cli.EXIT_OK\n"
            f"    code = cli.main(['oracle-check', family, preset, '--output', {str(tmp_path)!r}])\n"
            "    assert code == expected, (family, preset, code)\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        )
        lines = run_fresh_interpreter(script).splitlines()
        assert lines[0] == "[]"
        assert lines[-1] == "[]"

    def test_diagnostic_csvs_share_the_series_rows(self, tmp_path):
        cfg = tmp_path / "both.cfg"
        cfg.write_text(
            "model = modified-boussinesq\nic = expr: sin(x2)*(1 + 0.5*cos(x1))\n"
            "ic_omega = expr: sin(x2)*cos(x1)\nt_end = 0.05\nnx = 16\nny = 16\ndt = 0.005\n"
            "diagnostics = conservation, symmetry\n"
        )
        out = tmp_path / "out"
        assert run_cli("run", str(cfg), "--output", str(out)) == EXIT_OK
        tables = {}
        for name in ("series", "conservation", "symmetry"):
            header, *rows = (out / f"{name}.csv").read_text().splitlines()
            columns = header.split(",")
            tables[name] = {c: [row.split(",")[i] for row in rows] for i, c in enumerate(columns)}
        assert len(tables["series"]["t"]) == 6  # t = 0, then one row every 0.01
        assert tables["conservation"]["t"] == tables["series"]["t"] == tables["symmetry"]["t"]
        for column in ("l2_theta", "linf_theta"):
            assert tables["conservation"][column] == tables["series"][column]

    def test_crash_keeps_the_rows_written_so_far(self, tmp_path, monkeypatch, capsys):
        from invlab import runner

        integrate = runner.integrate

        def crashing_integrate(state, ctrl, t_end, observers=()):
            calls = []

            def observe(s):
                for obs in observers:
                    obs(s)
                calls.append(s.t)
                if len(calls) == 2:
                    raise RuntimeError("solver crashed")

            return integrate(state, ctrl, t_end, observers=[observe])

        monkeypatch.setattr(runner, "integrate", crashing_integrate)
        cfg = tmp_path / "crash.cfg"
        cfg.write_text(
            "model = singular-scalar\nic = singular-cos\nt_end = 0.1\nnx = 16\nny = 16\n"
            "dt = 0.01\ndiagnostics = conservation, symmetry\n"
        )
        out = tmp_path / "out"
        assert run_cli("run", str(cfg), "--output", str(out)) == EXIT_ERROR
        assert "error: RuntimeError: solver crashed" in capsys.readouterr().err
        for name in ("series", "conservation", "symmetry"):
            rows = (out / f"{name}.csv").read_text().splitlines()
            assert len(rows) == 4, name  # header, t = 0 and the two steps observed
            assert float(rows[-1].split(",")[0]) == pytest.approx(0.02, abs=1e-12)


class TestOracleCheck:
    def test_wedge_passes(self, tmp_path):
        assert run_cli("oracle-check", "wedge", "sin", "--output", str(tmp_path)) == EXIT_OK
        env = (tmp_path / "wedge-sin-envelope.csv").read_text().splitlines()
        assert env[0] == "t,sup_dtheta_dx2,sup_domega_dx2"

    def test_no_preset_names_the_first_one(self, tmp_path, capsys):
        # the report line and the envelope file name the preset that ran
        default, explicit = tmp_path / "default", tmp_path / "explicit"
        assert run_cli("oracle-check", "wedge", "--npoints", "20", "--output", str(default)) == EXIT_OK
        assert "family wedge preset sin:" in capsys.readouterr().out
        assert run_cli("oracle-check", "wedge", "sin", "--npoints", "20", "--output", str(explicit)) == EXIT_OK
        name = "wedge-sin-envelope.csv"
        assert [p.name for p in default.iterdir()] == [p.name for p in explicit.iterdir()] == [name]
        assert (default / name).read_bytes() == (explicit / name).read_bytes()

    def test_conflicting_presets_exit_2(self, tmp_path, capsys):
        code = run_cli("oracle-check", "modified", "linear", "--preset", "oscillatory", "--output", str(tmp_path))
        assert code == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.err == "error: conflicting presets 'linear' and --preset 'oscillatory'\n"
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == []

    def test_the_same_preset_twice_is_valid(self, capsys):
        assert run_cli("oracle-check", "modified", "linear", "--preset", "linear", "--npoints", "20") == EXIT_OK
        assert "family modified preset linear:" in capsys.readouterr().out

    def test_all_consistent_presets_pass(self):
        assert run_cli("oracle-check", "moving-domain", "identity", "--npoints", "60") == EXIT_OK
        assert run_cli("oracle-check", "modified", "linear", "--npoints", "60") == EXIT_OK
        assert run_cli("oracle-check", "modified", "oscillatory", "--npoints", "60") == EXIT_OK
        assert run_cli("oracle-check", "stationary", "const", "--npoints", "20") == EXIT_OK

    def test_modified_linear_envelope_fits_rate_two(self, tmp_path):
        from invlab.diagnostics import TimeSeries, fit_growth_rate

        assert run_cli("oracle-check", "modified", "linear", "--npoints", "60",
                       "--output", str(tmp_path)) == EXIT_OK
        data = np.genfromtxt(tmp_path / "modified-linear-envelope.csv", delimiter=",", names=True)
        series = TimeSeries(data["t"], data["sup_domega_dx2"])
        fit = fit_growth_rate(series, (4.0, 6.0))
        assert fit.rate == pytest.approx(2.0, abs=0.01)

    def test_printed_pairing_fails(self, capsys):
        code = run_cli("oracle-check", "modified", "--preset", "paper-printed", "--npoints", "60")
        assert code == EXIT_ORACLE_FAIL
        out = capsys.readouterr().out
        assert "FAIL" in out

    def test_unknown_family(self, capsys):
        assert run_cli("oracle-check", "vortex-sheet") == EXIT_VALIDATION
        assert capsys.readouterr().err == (
            "error: unknown oracle family 'vortex-sheet'; known: modified, moving-domain, stationary, wedge\n"
        )

    @pytest.mark.parametrize(
        "family, known",
        [
            ("wedge", "sin"),
            ("moving-domain", "identity"),
            ("modified", "linear, oscillatory, paper-printed"),
            ("stationary", "const"),
        ],
    )
    def test_unknown_preset_lists_the_family_presets(self, capsys, family, known):
        assert run_cli("oracle-check", family, "x") == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.err == f"error: unknown {family} preset 'x'; known: {known}\n"
        assert captured.out == ""

    @pytest.mark.parametrize("family, preset", [("wedge", "sin"), ("modified", "paper-printed")])
    def test_zero_points_exits_2(self, family, preset, capsys):
        # a check of no points checks nothing, so it can neither pass nor fail
        assert run_cli("oracle-check", family, preset, "--npoints", "0") == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert "npoints must be at least 1, got 0" in captured.err
        assert "PASS" not in captured.out


class TestConvergence:
    def test_too_few_levels_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "conv.cfg"
        cfg.write_text("model = singular-scalar\nic = singular-cos\nt_end = 0.1\nnx = 32\nny = 32\n")
        assert run_cli("convergence", str(cfg), "--levels", "1") == EXIT_VALIDATION

    def test_requires_axis_oracle_config(self, tmp_path):
        cfg = tmp_path / "conv.cfg"
        cfg.write_text("model = boussinesq\nic = expr: sin(x2)\nic_omega = expr: sin(x2)\nt_end = 0.1\n")
        assert run_cli("convergence", str(cfg), "--levels", "3") == EXIT_VALIDATION

    def test_small_temporal_study(self, tmp_path, capsys):
        cfg = tmp_path / "conv.cfg"
        cfg.write_text(
            "model = singular-scalar\nic = singular-cos\nt_end = 0.1\nnx = 32\nny = 32\ndt = 0.01\n"
        )
        assert run_cli("convergence", str(cfg), "--levels", "3") == EXIT_OK
        out = capsys.readouterr().out
        assert "axis error" in out
        assert len(out.strip().splitlines()) == 4

    def test_convergence_has_no_deterministic_flag(self, tmp_path):
        # the levels always run one after another
        cfg = tmp_path / "conv.cfg"
        cfg.write_text("model = singular-scalar\nic = singular-cos\nt_end = 0.1\nnx = 32\nny = 32\n")
        with pytest.raises(SystemExit) as exc:
            run_cli("convergence", str(cfg), "--levels", "3", "--deterministic")
        assert exc.value.code == 2


class TestSeriesTools:
    @pytest.fixture()
    def series_csv(self, tmp_path):
        path = tmp_path / "series.csv"
        t = np.linspace(0.0, 0.8, 33)
        rows = ["t,l2_theta,linf_theta,sup_grad_theta,min_axis_slope"]
        for ti in t:
            rows.append(f"{ti},1.0,1.0,{np.exp(2 * ti)},{-1 / (1 - ti)}")
        path.write_text("\n".join(rows) + "\n")
        return path

    def test_fit_growth(self, series_csv, capsys):
        assert run_cli("fit-growth", str(series_csv), "--column", "sup_grad_theta",
                       "--window", "0,0.8") == EXIT_OK
        out = capsys.readouterr().out
        rate = float(out.splitlines()[0].split("=")[1])
        assert rate == pytest.approx(2.0, abs=1e-9)

    def test_blowup_est_default_column(self, series_csv, capsys):
        assert run_cli("blowup-est", str(series_csv), "--window", "0,0.8") == EXIT_OK
        out = capsys.readouterr().out
        t_est = float(out.splitlines()[0].split("=")[1])
        assert t_est == pytest.approx(1.0, abs=1e-8)

    def test_missing_column(self, series_csv, capsys):
        assert run_cli("fit-growth", str(series_csv), "--column", "enstrophy") == EXIT_VALIDATION
        assert "enstrophy" in capsys.readouterr().err

    def test_column_takes_a_name_not_an_index(self, series_csv, capsys):
        assert run_cli("fit-growth", str(series_csv), "--column", "3") == EXIT_VALIDATION
        assert capsys.readouterr().err == (
            f"error: {series_csv}: no column '3'; "
            "available: t, l2_theta, linf_theta, sup_grad_theta, min_axis_slope\n"
        )

    def test_bad_window_format(self, series_csv):
        assert run_cli("fit-growth", str(series_csv), "--window", "0.8") == EXIT_VALIDATION

    @pytest.mark.parametrize("command", ["fit-growth", "blowup-est"])
    def test_nan_window_is_not_increasing(self, series_csv, capsys, command):
        assert run_cli(command, str(series_csv), "--window", "nan,nan") == EXIT_VALIDATION
        assert capsys.readouterr().err == "error: window must be increasing, got 'nan,nan'\n"

    # a vorticity run writes nan in every min_axis_slope cell; a header alone has no cells
    @pytest.mark.parametrize("rows", ["0,1,1,1,nan\n0.01,1,1,1.1,nan\n", ""], ids=["nan", "header-only"])
    @pytest.mark.parametrize("command", ["fit-growth", "blowup-est"])
    def test_column_without_finite_values_exits_2(self, tmp_path, capsys, command, rows):
        path = tmp_path / "series.csv"
        path.write_text("t,l2_theta,linf_theta,sup_grad_theta,min_axis_slope\n" + rows)
        assert run_cli(command, str(path), "--column", "min_axis_slope") == EXIT_VALIDATION
        assert capsys.readouterr().err == f"error: {path}: column 'min_axis_slope' has no finite values\n"

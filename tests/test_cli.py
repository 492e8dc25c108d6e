"""Command line: config merging, subcommands, exit codes."""

import os
import pathlib
from dataclasses import fields

import numpy as np
import pytest

from isork import diagnostics
from isork.cli import (
    ConfigError,
    RunConfig,
    build_parser,
    dump_config,
    main,
    parse_config_file,
)
from isork.diagnostics import read_csv
from isork.integrator import StepperConfig
from isork.tableau import BUILTIN_TABLEAUS


@pytest.fixture(autouse=True)
def _no_env_seed(monkeypatch):
    monkeypatch.delenv("ISORK_SEED", raising=False)


class TestConfigFile:
    def test_grammar(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text(
            "# comment line\n"
            "\n"
            "system = toda   # trailing comment\n"
            "h = 0.05\n"
            "steps = 12\n"
            "inertia = 1.0, 2.0, 4.0\n"
            "forward_laplacian = true\n"
            "h = 0.025\n"  # later duplicate wins
        )
        values = parse_config_file(path)
        assert values == {
            "system": "toda",
            "h": 0.025,
            "steps": 12,
            "inertia": (1.0, 2.0, 4.0),
            "forward_laplacian": True,
        }

    def test_unknown_key_reports_location(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("system = toda\nstep_size = 0.1\n")
        with pytest.raises(ConfigError, match=r"bad.cfg:2.*step_size"):
            parse_config_file(path)

    def test_bad_value_reports_location(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("steps = soon\n")
        with pytest.raises(ConfigError, match=r"bad.cfg:1"):
            parse_config_file(path)

    @pytest.mark.parametrize(
        "line, match",
        [("inertia = 1.0, two, 3.0", "expected comma-separated numbers"), ("forward_laplacian = maybe", "expected a boolean")],
        ids=["list", "boolean"],
    )
    def test_bad_list_or_boolean_reports_location(self, line, match, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text(f"system = zeitlin\n{line}\n")
        with pytest.raises(ConfigError, match=rf"bad.cfg:2: {match}"):
            parse_config_file(path)
        assert main(["dump-config", "--config", str(path)]) == 2
        assert f"bad.cfg:2: {match}" in capsys.readouterr().err

    def test_missing_equals_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("just some words\n")
        with pytest.raises(ConfigError, match="key = value"):
            parse_config_file(path)


class TestPrecedence:
    def _parse(self, argv):
        return build_parser().parse_args(argv)

    def test_flags_override_file(self, tmp_path):
        from isork.cli import build_config

        path = tmp_path / "exp.cfg"
        path.write_text("system = toda\nh = 0.5\nseed = 7\n")
        args = self._parse(["run", "--config", str(path), "--h", "0.25"])
        config = build_config(args)
        assert config.system == "toda"  # from file
        assert config.h == 0.25  # flag wins
        assert config.seed == 7  # file beats default
        assert config.steps == 1000  # untouched default

    def test_env_seed_is_strongest(self, tmp_path, monkeypatch):
        from isork.cli import build_config

        path = tmp_path / "exp.cfg"
        path.write_text("seed = 7\n")
        monkeypatch.setenv("ISORK_SEED", "99")
        args = self._parse(["run", "--config", str(path), "--seed", "13"])
        assert build_config(args).seed == 99

    def test_env_seed_must_be_integer(self, monkeypatch):
        from isork.cli import build_config

        monkeypatch.setenv("ISORK_SEED", "soon")
        with pytest.raises(ConfigError, match="ISORK_SEED"):
            build_config(self._parse(["run"]))

    @pytest.mark.parametrize(
        "kw,match",
        [
            ({"system": "pendulum"}, "system"),
            ({"method": "euler"}, "method"),
            ({"method": "custom"}, "custom_b"),
            ({"h": -0.1}, "h must be positive"),
            ({"steps": 0}, "steps"),
            ({"solver_tol": 0.0}, "solver_tol"),
            ({"solver_max_iters": 0}, "solver_max_iters"),
            ({"system": "toda", "n": 2}, "n must be"),
            ({"system": "zeitlin", "N": 1}, "N must be"),
            ({"inertia": (1.0, 2.0)}, "inertia"),
            ({"inertia": (1.0, -2.0, 3.0)}, "inertia"),
            ({"scale": 0.0}, "scale"),
            ({"variant": "middle"}, "variant"),
            ({"update_form": "exp"}, "update_form"),
            ({"h": float("nan")}, "h must be positive"),
            ({"h": float("inf")}, "h must be positive"),
            ({"scale": float("nan")}, "scale"),
            ({"solver_tol": float("nan")}, "solver_tol"),
            ({"inertia": (1.0, float("nan"), 3.0)}, "inertia"),
            ({"inertia": (1e-320, 1.0, 1.0)}, "inertia"),
            ({"solver_tol": 1e-320}, "solver_tol"),
        ],
    )
    def test_validation(self, kw, match):
        from isork.cli import _validate

        with pytest.raises(ConfigError, match=match):
            _validate(RunConfig(**kw))


class TestDumpConfig:
    def test_defaults_agree_with_stepper_config(self):
        # dump-config prints RunConfig's defaults; the stepper's are the same values.
        run, stepper = RunConfig(), StepperConfig()
        for f in fields(StepperConfig):
            if f.name != "tableau":
                assert getattr(run, f.name) == getattr(stepper, f.name)
        assert BUILTIN_TABLEAUS[run.method] == stepper.tableau

    def test_round_trips_through_parser(self, tmp_path):
        config = RunConfig(system="zeitlin", N=5, h=0.0125, steps=7, custom_b=(0.5, 0.5))
        path = tmp_path / "dumped.cfg"
        path.write_text(dump_config(config))
        assert RunConfig(**parse_config_file(path)) == config

    def test_cli_round_trip(self, tmp_path, capsys):
        assert main(["dump-config", "--system", "toda", "--h", "0.125", "--steps", "3"]) == 0
        text = capsys.readouterr().out
        path = tmp_path / "echo.cfg"
        path.write_text(text)
        values = parse_config_file(path)
        assert values["system"] == "toda"
        assert values["h"] == 0.125
        assert values["steps"] == 3

    def test_writes_file_with_out(self, tmp_path, capsys):
        out = tmp_path / "cfg.txt"
        assert main(["dump-config", "--out", str(out)]) == 0
        assert "system = rigidbody" in out.read_text()

    def test_every_field_has_a_round_tripping_flag(self, tmp_path, capsys):
        # A non-default value for every RunConfig field, given by its
        # flag, comes back from dump-config through the config parser.
        out = tmp_path / "all.cfg"
        values = {
            "system": "zeitlin", "method": "custom", "custom_b": (0.25, 0.75), "h": 0.125,
            "steps": 3, "seed": 7, "variant": "right", "update_form": "dcay",
            "solver_tol": 1e-12, "solver_max_iters": 50, "n": 5, "N": 9,
            "inertia": (2.0, 3.0, 5.0), "scale": 0.5, "forward_laplacian": True, "out": str(out),
        }
        assert set(values) == {f.name for f in fields(RunConfig)}
        argv = ["dump-config"]
        for name, value in values.items():
            default = getattr(RunConfig(), name)
            assert value != default, name
            flag = "--" + name.replace("_", "-")
            if value is True:
                argv.append(flag)
            elif isinstance(value, tuple):
                argv += [flag, ",".join(repr(x) for x in value)]
            else:
                argv += [flag, str(value)]
        assert main(argv) == 0
        assert RunConfig(**parse_config_file(out)) == RunConfig(**values)

    @pytest.mark.parametrize("out", ["run#1.cfg", " run.cfg", "run.cfg ", "run\n.cfg"])
    def test_value_the_grammar_cannot_hold_is_config_error(self, out, tmp_path, capsys, monkeypatch):
        # A '#' starts a comment and the parser strips each value, so such
        # an out would not re-parse as written; no file is written either.
        monkeypatch.chdir(tmp_path)
        with pytest.raises(ConfigError, match="^out = "):
            dump_config(RunConfig(out=out))
        assert main(["dump-config", "--out", out]) == 2
        assert "config error: out = " in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_run_output_path_may_hold_a_hash(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["run", "--steps", "2", "--out", "a#b.csv"]) == 0
        assert len(read_csv(tmp_path / "a#b.csv")) == 3


class TestRunCommand:
    def test_writes_csv_and_summary(self, tmp_path, capsys):
        out = tmp_path / "traj.csv"
        code = main(
            ["run", "--system", "rigidbody", "--h", "0.05", "--steps", "20",
             "--seed", "3", "--out", str(out)]
        )
        assert code == 0
        records = read_csv(out)
        assert len(records) == 21
        assert records[-1].step == 20
        summary = capsys.readouterr().out
        assert "max spectral drift" in summary
        assert "solver iterations" in summary
        assert f"wrote {out}" in summary

    def test_golden_run_has_no_non_finite_step(self, tmp_path, capsys):
        out = tmp_path / "golden.csv"
        argv = ["run", "--system", "rigidbody", "--h", "0.01", "--steps", "100", "--seed", "42", "--out", str(out)]
        assert main(argv) == 0
        assert "first non-finite step: none" in capsys.readouterr().out.splitlines()
        assert out.read_bytes() == (pathlib.Path(__file__).parent / "data" / "rigidbody-midpoint-seed42.csv").read_bytes()

    def test_default_output_name(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["run", "--steps", "2", "--h", "0.01"]) == 0
        assert (tmp_path / "rigidbody-midpoint.csv").exists()

    def test_custom_method(self, tmp_path):
        out = tmp_path / "c.csv"
        code = main(
            ["run", "--method", "custom", "--custom-b", "0.5,0.5",
             "--steps", "3", "--h", "0.02", "--out", str(out)]
        )
        assert code == 0
        # Two stages per step at the default tolerance.
        assert all(r.solver_iters_total >= 2 for r in read_csv(out)[1:])

    def test_zeitlin_run(self, tmp_path):
        out = tmp_path / "z.csv"
        code = main(
            ["run", "--system", "zeitlin", "--N", "5", "--h", "0.01",
             "--steps", "5", "--out", str(out)]
        )
        assert code == 0
        records = read_csv(out)
        assert len(records[0].casimir_values) == 4
        assert records[-1].spectral_drift < 1e-12


class TestExitCodes:
    def test_usage_error(self, capsys):
        assert main(["run", "--system", "pendulum"]) == 2
        assert "usage" in capsys.readouterr().err

    def test_config_error(self, capsys):
        assert main(["run", "--h", "-1.0"]) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--h", "--scale", "--solver-tol"])
    def test_non_finite_value_is_config_error(self, flag, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["run", "--steps", "2", flag, "nan"]) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "argv, field",
        [
            (["run", "--inertia", "1e-320,1,1"], "inertia"),
            (["run", "--scale", "1e200"], "scale"),
            (["run", "--system", "toda", "--scale", "1e200"], "scale"),
            (["run", "--system", "zeitlin", "--N", "9", "--scale", "1e200"], "scale"),
            (["compare", "--scale", "1e200", "--methods", "midpoint"], "scale"),
            (["convergence", "--scale", "1e200", "--h-list", "0.2,0.1,0.05", "--t-final", "0.2"], "scale"),
            (["run", "--solver-tol", "1e-320"], "solver_tol"),
        ],
        ids=["inertia", "scale", "scale-toda", "scale-zeitlin", "scale-compare", "scale-convergence", "solver-tol"],
    )
    def test_unsteppable_input_is_config_error(self, argv, field, tmp_path, capsys, monkeypatch):
        # A subnormal moment has an infinite inverse, at scale 1e200 the
        # initial energy overflows, and no stage meets a tolerance below
        # roundoff: no step size can help, so these are config errors
        # naming the field, reached without a warning.
        monkeypatch.chdir(tmp_path)
        assert main([*argv, "--steps", "2"]) == 2
        assert f"config error: {field}" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "--method", "custom", "--custom-b", "nan"],
            ["compare", "--methods", "custom", "--custom-b", "inf,-inf"],
        ],
        ids=["run-nan", "compare-inf"],
    )
    def test_non_finite_custom_weights_are_config_error(self, argv, tmp_path, capsys, monkeypatch):
        # SdirkTableau rejects them where it is built, before any stage
        # solve could report a NaN residual as a solver failure.
        monkeypatch.chdir(tmp_path)
        assert main([*argv, "--steps", "2"]) == 2
        assert "config error: custom_b" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_negative_leading_custom_weight_needs_equals_form(self, tmp_path, capsys, monkeypatch):
        # argparse reads a value starting with '-' as an option unless it is
        # joined to its flag by '='.
        monkeypatch.chdir(tmp_path)
        assert main(["run", "--method", "custom", "--custom-b=-0.5,1.5", "--steps", "2"]) == 0
        capsys.readouterr()
        assert main(["run", "--method", "custom", "--custom-b", "-0.5,1.5", "--steps", "2"]) == 2
        err = capsys.readouterr().err
        assert "usage" in err and "--custom-b: expected one argument" in err
        assert "Traceback" not in err

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("h", ["1e300", "1e150"])
    def test_gawlik_overflow_is_solver_error_without_warning(self, h, tmp_path, capsys, monkeypatch):
        # The explicit side overflows at 1e300 and the tolerance scale at
        # 1e150; the stage solve reports the non-finite residual alone.
        monkeypatch.chdir(tmp_path)
        assert main(["compare", "--methods", "gawlik", "--h", h, "--steps", "2"]) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("solver error: ")

    def test_size_of_unselected_system_is_unused(self, capsys):
        assert main(["dump-config", "--n", "2", "--N", "1"]) == 0
        assert main(["dump-config", "--system", "toda", "--n", "2"]) == 2
        assert "n must be at least 3, got 2" in capsys.readouterr().err

    def test_system_too_large_for_memory_is_config_error(self, capsys):
        # The first N x N complex allocation exceeds any address space.
        assert main(["run", "--system", "zeitlin", "--N", "10000000", "--steps", "1"]) == 2
        assert "config error: zeitlin system of this size does not fit in memory" in capsys.readouterr().err

    def test_missing_subcommand(self, capsys):
        assert main([]) == 2

    def test_nonconvergence(self, tmp_path, capsys):
        code = main(
            ["run", "--h", "8.0", "--scale", "4.0", "--steps", "2",
             "--out", str(tmp_path / "x.csv")]
        )
        assert code == 3
        assert "solver error" in capsys.readouterr().err

    @pytest.mark.filterwarnings("error")
    def test_overflow_prints_no_warnings(self, tmp_path, capsys, monkeypatch):
        # RK4 on Toda at h = 0.3 overflows; the summary names the step
        # and numpy's overflow warnings stay silent.
        monkeypatch.chdir(tmp_path)
        argv = ["compare", "--system", "toda", "--h", "0.3", "--steps", "40", "--methods", "classical-rk4"]
        assert main(argv + ["--out", "rk4"]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        assert "first non-finite step (classical-rk4): 4\n" in out

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "--steps", "2", "--h", "0.01"],
            ["compare", "--steps", "2", "--h", "0.01", "--methods", "midpoint,gawlik"],
            ["convergence", "--h-list", "0.2,0.1,0.05", "--t-final", "0.2"],
        ],
        ids=["run", "compare", "convergence"],
    )
    def test_io_error(self, argv, tmp_path, capsys):
        # An --out (a prefix for compare) in a missing directory is found
        # when the first file is opened, after stepping: exit 4, no file.
        missing = tmp_path / "no" / "such" / "dir" / "x.csv"
        code = main(argv + ["--out", str(missing)])
        assert code == 4
        assert "i/o error" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_unreadable_config(self, tmp_path, capsys):
        code = main(["run", "--config", str(tmp_path / "absent.cfg")])
        assert code == 4

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "--steps", "2"],
            ["convergence", "--h-list", "0.2,0.1,0.05", "--t-final", "0.2"],
            ["compare", "--steps", "2", "--methods", "midpoint"],
        ],
        ids=["run", "convergence", "compare"],
    )
    def test_numerical_breakdown(self, argv, tmp_path, capsys, monkeypatch):
        # LinAlgError is a ValueError, yet a singular solve while stepping
        # is neither a config error nor a traceback.
        def singular(*args):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr("isork.diagnostics.isospectral_sdirk_step", singular)
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 5
        assert "numerical error at step 0: Singular matrix" in capsys.readouterr().err

    def test_compare_names_the_failing_method(self, tmp_path, capsys, monkeypatch):
        # classical-rk4 finishes, midpoint's Toda stage diverges at step 3
        # at h = 0.3, and gawlik never runs; no CSV is written before all finish,
        # but the finished method's table rows are printed, without a wrote line.
        monkeypatch.chdir(tmp_path)
        argv = ["compare", "--system", "toda", "--h", "0.3", "--steps", "40"]
        assert main(argv + ["--methods", "classical-rk4,midpoint,gawlik", "--out", "cmp"]) == 3
        out, err = capsys.readouterr()
        assert out == (
            "compare: system=toda h=0.3 steps=40 seed=42\n"
            "method           max spectral drift      ratio vs classical-rk4\n"
            "classical-rk4                   nan                         nan\n"
            "first non-finite step (classical-rk4): 4\n"
        )
        assert err == (
            "solver error: stage solve did not converge at step 3 stage 0: "
            "residual inf after 14 iterations (for method midpoint)\n"
        )
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "argv, member",
        [
            (["--system", "toda", "--h-list", "0.4,0.2,0.1", "--t-final", "0.8"], "h = 0.4"),
            (["--h-list", "1e300,2e300,4e300", "--t-final", "4e300"], "reference_h = 1.25e+299"),
        ],
        ids=["h", "reference"],
    )
    def test_convergence_names_the_failing_step_size(self, argv, member, capsys):
        assert main(["convergence"] + argv) == 3
        out, err = capsys.readouterr()
        [err] = err.splitlines()
        assert err.startswith("solver error: stage solve did not converge at step 0 stage 0: ")
        assert err.endswith(f" (for {member})")
        assert out == ""  # no step size finished

    def test_convergence_prints_the_finished_step_sizes(self, capsys, monkeypatch):
        # A singular solve in the h = 0.1 run, after the reference and the h = 0.2 run.
        argv = ["convergence", "--h-list", "0.2,0.1,0.05", "--t-final", "1.0"]
        assert main(argv) == 0
        full = capsys.readouterr().out.splitlines()
        real_step = diagnostics.isospectral_sdirk_step

        def singular_at_h_0_1(mu, system, cfg, h):
            if h == 0.1:
                raise np.linalg.LinAlgError("Singular matrix")
            return real_step(mu, system, cfg, h)

        monkeypatch.setattr(diagnostics, "isospectral_sdirk_step", singular_at_h_0_1)
        assert main(argv) == 5
        out, err = capsys.readouterr()
        assert out.splitlines() == full[:2] and full[0] == "h,error"
        assert err == "numerical error at step 0: Singular matrix (for h = 0.1)\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "--system", "toda", "--h", "0.2", "--steps", "50"],
            ["compare", "--system", "toda", "--h", "0.2", "--methods", "midpoint"],
        ],
        ids=["run", "compare"],
    )
    def test_toda_at_h_0_2_converges(self, argv, tmp_path, monkeypatch):
        # Plain Picard iteration needs more than the default 200 sweeps
        # for the first Toda stage at h = 0.2 (exit 3); with mixing the
        # stages of a 1,000-step compare run need at most 35.
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 0


class TestBuildOnce:
    """_validate builds the system and stepper config; the subcommands reuse them."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "--steps", "2"],
            ["convergence", "--h-list", "0.2,0.1,0.05", "--t-final", "0.2"],
            ["compare", "--steps", "2", "--methods", "midpoint,custom,gawlik", "--custom-b", "0.5,0.5"],
        ],
        ids=["run", "convergence", "compare"],
    )
    def test_system_is_built_once(self, argv, tmp_path, capsys, monkeypatch):
        from isork import cli

        calls = []
        real = cli._system_for

        def counted(config):
            calls.append(config)
            return real(config)

        monkeypatch.setattr(cli, "_system_for", counted)
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 0
        assert len(calls) == 1

    def test_validate_returns_what_it_builds(self):
        from isork.cli import _validate
        from isork.systems import ZeitlinSphere

        system, cfg = _validate(RunConfig(system="zeitlin", N=5, method="custom", custom_b=(0.25, 0.75)))
        assert isinstance(system, ZeitlinSphere) and system.N == 5
        assert cfg.tableau.b == (0.25, 0.75) and cfg.tableau.name == "custom"


class TestConvergenceCommand:
    def test_prints_table_and_slope(self, tmp_path, capsys):
        out = tmp_path / "conv.csv"
        code = main(
            ["convergence", "--system", "rigidbody", "--h-list", "0.2,0.1,0.05",
             "--t-final", "1.0", "--out", str(out)]
        )
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "h,error"
        slope_line = [ln for ln in lines if ln.startswith("fitted slope:")][0]
        assert 1.8 < float(slope_line.split(":")[1]) < 2.2
        assert out.read_text() == "\n".join(lines[:4]) + "\n"

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("system", ["rigidbody", "toda"])
    def test_zero_errors_print_a_nan_slope_without_warning(self, system, capsys):
        # At scale 1e-300 every step size reproduces the reference exactly.
        argv = ["convergence", "--system", system, "--h-list", "0.2,0.1,0.05", "--t-final", "1", "--scale", "1e-300"]
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert captured.out.splitlines()[1:] == ["0.2,0.0", "0.1,0.0", "0.05,0.0", "fitted slope: nan"]
        assert captured.err == ""

    def test_needs_three_points(self, capsys):
        code = main(["convergence", "--h-list", "0.2,0.1", "--t-final", "1.0"])
        assert code == 2
        assert "3 step sizes" in capsys.readouterr().err

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("h_list", ["0.1,0.1,0.1", "0.2,0.1,0.1"])
    def test_repeated_step_sizes_count_once(self, h_list, capsys):
        code = main(["convergence", "--system", "rigidbody", "--h-list", h_list, "--t-final", "0.5"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "3 step sizes" in captured.err and "Warning" not in captured.err

    def test_non_divisible_h_is_config_error(self, capsys):
        code = main(["convergence", "--h-list", "0.3,0.2,0.1", "--t-final", "1.0"])
        assert code == 2

    def test_non_divisible_h_of_a_small_t_final_is_config_error(self, capsys):
        # 1e-10 / 4e-11 rounds to 3 steps, which end at 1.2e-10.
        argv = ["convergence", "--system", "rigidbody", "--h-list", "4e-11,2e-11,1e-11", "--t-final", "1e-10"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "is not an integer multiple of h = 4e-11" in captured.err

    def test_infinite_t_final_is_config_error(self, capsys):
        code = main(["convergence", "--h-list", "0.2,0.1,0.05", "--t-final", "inf"])
        assert code == 2
        assert "t_final must be positive and finite" in capsys.readouterr().err

    def test_subnormal_h_is_config_error(self, capsys):
        code = main(["convergence", "--h-list", "1e-320,2e-320,4e-320", "--t-final", "1"])
        assert code == 2
        assert "not finite" in capsys.readouterr().err


class TestCompareCommand:
    def test_methods_share_initial_state(self, tmp_path, capsys):
        prefix = tmp_path / "cmp"
        code = main(
            ["compare", "--system", "rigidbody", "--h", "0.1", "--steps", "30",
             "--methods", "isospectral-midpoint,gawlik,classical-rk4",
             "--out", str(prefix)]
        )
        assert code == 0
        iso = read_csv(f"{prefix}-isospectral-midpoint.csv")
        gaw = read_csv(f"{prefix}-gawlik.csv")
        rk4 = read_csv(f"{prefix}-classical-rk4.csv")
        assert iso[0].energy == gaw[0].energy == rk4[0].energy
        drift = {"iso": iso[-1].spectral_drift, "gaw": gaw[-1].spectral_drift}
        assert drift["iso"] < 1e-12 < drift["gaw"]
        table = capsys.readouterr().out
        assert "ratio vs isospectral-midpoint" in table

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nan_drift_propagates_to_table(self, tmp_path, capsys):
        # RK4 on Toda at h = 0.3 blows up: the drift is NaN from step 5
        # on, after finite values the builtin max() would return.
        code = main(
            ["compare", "--system", "toda", "--h", "0.3", "--steps", "12",
             "--methods", "classical-rk4", "--out", str(tmp_path / "n")]
        )
        assert code == 0
        row = [ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("classical-rk4")]
        assert row[0].split()[1:] == ["nan", "nan"]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_first_non_finite_step_per_method(self, tmp_path, capsys):
        # RK4 on Toda at h = 0.3: casimir_4 overflows at step 4, a step
        # before the spectral drift turns NaN; midpoint stays finite.
        code = main(
            ["compare", "--system", "toda", "--h", "0.3", "--steps", "40",
             "--methods", "classical-rk4", "--out", str(tmp_path / "n")]
        )
        assert code == 0
        assert "first non-finite step (classical-rk4): 4" in capsys.readouterr().out.splitlines()
        code = main(
            ["compare", "--h", "0.05", "--steps", "5", "--methods", "midpoint,classical-rk4",
             "--out", str(tmp_path / "f")]
        )
        lines = capsys.readouterr().out.splitlines()
        assert "first non-finite step (midpoint): none" in lines
        assert "first non-finite step (classical-rk4): none" in lines

    def test_reference_defaults_to_first_method(self, tmp_path, capsys):
        code = main(
            ["compare", "--h", "0.05", "--steps", "5", "--methods", "gawlik,classical-rk4",
             "--out", str(tmp_path / "c")]
        )
        assert code == 0
        assert "ratio vs gawlik" in capsys.readouterr().out

    def test_tableau_labels_allowed(self, tmp_path):
        code = main(
            ["compare", "--h", "0.05", "--steps", "4", "--methods", "midpoint,yoshida4",
             "--out", str(tmp_path / "t")]
        )
        assert code == 0

    def test_unknown_method_is_config_error(self, tmp_path, capsys):
        code = main(
            ["compare", "--h", "0.05", "--steps", "4", "--methods", "leapfrog",
             "--out", str(tmp_path / "u")]
        )
        assert code == 2

    def test_bad_label_writes_no_file(self, tmp_path, capsys, monkeypatch):
        # Every label is resolved before the first method runs.
        monkeypatch.chdir(tmp_path)
        assert main(["compare", "--h", "0.05", "--steps", "4", "--methods", "midpoint,leapfrog"]) == 2
        assert "unknown compare method 'leapfrog'" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_bad_custom_weights_is_config_error(self, tmp_path, capsys):
        code = main(
            ["compare", "--h", "0.05", "--steps", "4", "--methods", "custom",
             "--custom-b", "0.3,0.3", "--out", str(tmp_path / "b")]
        )
        assert code == 2
        assert "custom_b" in capsys.readouterr().err

    def test_custom_without_weights_is_config_error(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["compare", "--h", "0.05", "--steps", "4", "--methods", "custom"]) == 2
        assert "config error: custom_b: empty weight list" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_repeated_label_is_config_error(self, tmp_path, capsys, monkeypatch):
        # Rejected while the labels are resolved, before any method steps.
        monkeypatch.chdir(tmp_path)
        assert main(["compare", "--steps", "3", "--methods", "midpoint,gawlik,midpoint"]) == 2
        assert "config error: compare method 'midpoint' is listed more than once" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_csv_suffix_is_stripped_from_prefix(self, tmp_path, capsys):
        code = main(
            ["compare", "--h", "0.05", "--steps", "2", "--methods", "midpoint,gawlik",
             "--out", str(tmp_path / "x.csv")]
        )
        assert code == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == ["x-gawlik.csv", "x-midpoint.csv"]

    def test_empty_methods_is_config_error(self, tmp_path):
        code = main(
            ["compare", "--h", "0.05", "--steps", "4", "--methods", " ,",
             "--out", str(tmp_path / "e")]
        )
        assert code == 2

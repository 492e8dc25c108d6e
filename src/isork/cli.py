"""Experiment command line: trajectory runs, convergence sweeps, comparisons.

A thin shell over the library: every subcommand builds a RunConfig
from defaults, an optional flat key = value config file, command-line
flags, and the ISORK_SEED environment variable (strongest, in that
order).  _validate checks it and builds the system and the stepper
config it names, once; the subcommand drives the recorded runners on
those and writes CSV.  _tableau_for is the one place that turns a
method name into a tableau, for run and for every compare label.

Config file grammar: one `key = value` per line, keys named like the
RunConfig fields, `#` comments and blank lines ignored, list values
as comma-separated numbers, booleans as true/false.  `dump-config`
prints the effective configuration in exactly this grammar, so its
output re-parses to the same configuration; a value the grammar cannot
hold (an `out` path with `#`, say) is a configuration error.

Exit codes: 0 success, 2 configuration or usage error, 3 stage solver
non-convergence, 4 I/O failure, 5 numerical breakdown (a linear
algebra failure, such as a singular Cayley solve, while stepping).
The exit-3 and exit-5 lines name the step and stage and, for compare
and convergence, end in the failing method or step size; those two
first print the stdout lines of the members that finished.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import dataclass, fields, replace

import numpy as np

from .diagnostics import convergence_study, run_recorded, write_csv
from .integrator import _UPDATE_FORMS, _VARIANT_SIGNS, NonConvergenceError, StepperConfig, _located
from .quadlie import _count, _real
from .systems import RigidBody, TodaExtended, ZeitlinSphere
from .tableau import BUILTIN_TABLEAUS, SdirkTableau

__all__ = ["RunConfig", "ConfigError", "main"]


class ConfigError(ValueError):
    """Invalid configuration value or combination; exits with status 2."""


_SYSTEMS = ("rigidbody", "toda", "zeitlin")
_METHODS = tuple(BUILTIN_TABLEAUS) + ("custom",)
# Compare labels that are not tableau names, with the run_recorded method each selects.
_COMPARE_BASELINES = {"isospectral-midpoint": "isospectral", "gawlik": "gawlik", "classical-rk4": "rk4"}


@dataclass(frozen=True)
class RunConfig:
    """Flat experiment configuration; field names double as config-file keys."""

    system: str = "rigidbody"
    method: str = "midpoint"
    custom_b: tuple[float, ...] | None = None
    h: float = 0.01
    steps: int = 1000
    seed: int = 42
    variant: str = StepperConfig.variant
    update_form: str = StepperConfig.update_form
    solver_tol: float = StepperConfig.solver_tol
    solver_max_iters: int = StepperConfig.solver_max_iters
    n: int = 4
    N: int = 17
    inertia: tuple[float, ...] = (1.0, 2.0, 3.0)
    scale: float = 1.0
    forward_laplacian: bool = False
    out: str | None = None


def _parse_float_list(text: str) -> tuple[float, ...]:
    items = [piece.strip() for piece in text.split(",") if piece.strip()]
    try:
        return tuple(float(piece) for piece in items)
    except ValueError:
        raise ConfigError(f"expected comma-separated numbers, got {text!r}") from None


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "1", "yes", "on"):
        return True
    if lowered in ("false", "0", "no", "off"):
        return False
    raise ConfigError(f"expected a boolean, got {text!r}")


# Config-file keys and command-line flags both come from the RunConfig
# fields; each value parser is chosen by the field's (string) annotation.
_COERCERS = {
    f.name: _parse_float_list if f.type.startswith("tuple")
    else {"bool": _parse_bool, "int": int, "float": float}.get(f.type, str)
    for f in fields(RunConfig)
}
# Per-field argparse extras; every other flag takes one value parsed like its config-file value.
_FLAG_OPTIONS = {
    "system": {"choices": _SYSTEMS},
    "method": {"choices": _METHODS},
    "custom_b": {
        "metavar": "B1,B2,...",
        "help": "weights for method=custom; join a negative first weight with '=': --custom-b=-0.5,1.5",
    },
    "h": {"help": "macro step size"},
    "variant": {"choices": tuple(_VARIANT_SIGNS)},
    "update_form": {"choices": _UPDATE_FORMS},
    "n": {"help": "Toda lattice size"},
    "N": {"help": "Zeitlin truncation size"},
    "inertia": {"metavar": "I1,I2,I3"},
    "scale": {"help": "initial state scale"},
    "forward_laplacian": {
        "action": "store_const", "const": True,
        "help": "use the forward Laplacian as the Zeitlin stream operator",
    },
    "out": {"help": "output path (run/convergence) or prefix (compare)"},
}


def parse_config_file(path: str) -> dict:
    """Read the flat key = value grammar; later duplicates win, like flags."""
    values = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key = value, got {raw.strip()!r}")
            key, _, value = line.partition("=")
            key, value = key.strip(), value.strip()
            if key not in _COERCERS:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
            try:
                values[key] = _COERCERS[key](value)
            except ConfigError as exc:
                raise ConfigError(f"{path}:{lineno}: {exc}") from None
            except ValueError:
                raise ConfigError(f"{path}:{lineno}: bad value for {key}: {value!r}") from None
    return values


def dump_config(config: RunConfig) -> str:
    """Canonical config-file text for the given configuration.

    A value that would not read back as written, one holding `#` or a
    line break or starting or ending with whitespace, is a ConfigError.
    """
    lines = []
    for f in fields(RunConfig):
        value = getattr(config, f.name)
        if value is None:
            continue
        if isinstance(value, bool):
            text = "true" if value else "false"
        elif isinstance(value, tuple):
            text = ",".join(repr(float(x)) for x in value)
        elif isinstance(value, float):
            text = repr(value)
        else:
            text = str(value)
        if "#" in text or len(text.splitlines()) > 1 or text != text.strip():
            raise ConfigError(f"{f.name} = {text!r} cannot be written to a config file: it holds '#' or a "
                              "line break, or starts or ends with whitespace")
        lines.append(f"{f.name} = {text}")
    return "\n".join(lines) + "\n"


def build_config(args: argparse.Namespace) -> RunConfig:
    """Merge defaults, config file, flags, and ISORK_SEED; _validate checks the result."""
    values = {}
    if getattr(args, "config", None):
        values.update(parse_config_file(args.config))
    for f in fields(RunConfig):
        flag = getattr(args, f.name, None)
        if flag is not None:
            values[f.name] = flag
    env_seed = os.environ.get("ISORK_SEED")
    if env_seed is not None:
        try:
            values["seed"] = int(env_seed)
        except ValueError:
            raise ConfigError(f"ISORK_SEED must be an integer, got {env_seed!r}") from None
    return RunConfig(**values)


def _validate(config: RunConfig):
    """Build what config names, (system, stepper config); ConfigError on a bad value."""
    try:
        _real(config.h, "h", "positive and finite")
        _count(config.steps, 1, "steps")
        _real(config.scale, "scale", "positive and finite")
        # The selected system's constructor holds its size rule; other systems' sizes go unchecked.
        system = _system_for(config)
        cfg = StepperConfig(
            variant=config.variant, update_form=config.update_form, solver_tol=config.solver_tol,
            solver_max_iters=config.solver_max_iters, tableau=_tableau_for(config.method, config),
        )
    except MemoryError:
        raise ConfigError(f"{config.system} system of this size does not fit in memory") from None
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    return system, cfg


def _tableau_for(method: str, config: RunConfig) -> SdirkTableau:
    """The tableau a method name selects, for run and each compare label; SdirkTableau checks custom_b."""
    if method == "custom":
        try:
            return SdirkTableau(config.custom_b, "custom")
        except ValueError as exc:
            raise ConfigError(f"custom_b: {exc}") from None
    if method not in BUILTIN_TABLEAUS:
        raise ConfigError(f"method must be one of {_METHODS}, got {method!r}")
    return BUILTIN_TABLEAUS[method]


def _system_for(config: RunConfig):
    if config.system == "rigidbody":
        return RigidBody(inertia=config.inertia)
    if config.system == "toda":
        return TodaExtended(n=config.n)
    if config.system == "zeitlin":
        return ZeitlinSphere(N=config.N, forward_laplacian=config.forward_laplacian)
    raise ValueError(f"system must be one of {_SYSTEMS}, got {config.system!r}")


def _initial_state(system, config: RunConfig):
    """The seeded initial state at config.scale; a config error when it or its energy is not finite."""
    mu0 = system.initial_state(config.seed, config.scale)
    if not (np.isfinite(mu0).all() and math.isfinite(system.hamiltonian(mu0))):
        raise ConfigError(f"scale = {config.scale!r} gives an initial state or energy that is not finite")
    return mu0


def _max_of(values) -> float:
    """Maximum that is NaN when any value is NaN, unlike the builtin max()."""
    return float(np.max(list(values)))


def _first_non_finite(records) -> str:
    """The step of the first record with a non-finite field after step and t, or "none"."""
    return next((str(r.step) for r in records if not all(map(math.isfinite, r.row()[2:]))), "none")


def _print_run_summary(config: RunConfig, tableau, records, path: str) -> None:
    final = records[-1]
    max_spectral = _max_of(r.spectral_drift for r in records)
    max_energy = _max_of(abs(r.energy_drift) for r in records)
    max_membership = _max_of(r.membership_residual for r in records)
    total_iters = sum(r.solver_iters_total for r in records)
    stage_count = config.steps * tableau.s
    max_step = max(r.solver_iters_total for r in records[1:])
    print(
        f"run: system={config.system} method={config.method} h={config.h!r} "
        f"steps={config.steps} seed={config.seed}"
    )
    print(f"final energy drift: {final.energy_drift:.6e}")
    print(f"max |energy drift|: {max_energy:.6e}")
    print(f"final spectral drift: {final.spectral_drift:.6e}")
    print(f"max spectral drift: {max_spectral:.6e}")
    print(f"max membership residual: {max_membership:.6e}")
    print(f"first non-finite step: {_first_non_finite(records)}")
    print(
        f"solver iterations: total={total_iters} "
        f"mean/stage={total_iters / stage_count:.2f} max/step={max_step}"
    )
    print(f"wrote {path}")


def cmd_run(config: RunConfig, system, cfg: StepperConfig) -> int:
    mu0 = _initial_state(system, config)
    records = run_recorded(system, mu0, cfg, config.h, config.steps)
    path = config.out or f"{config.system}-{cfg.tableau.name}.csv"
    write_csv(records, path)
    _print_run_summary(config, cfg.tableau, records, path)
    return 0


def _error_table(report) -> str:
    return "h,error\n" + "".join(f"{h!r},{err!r}\n" for h, err in zip(report.h_values, report.errors))


def cmd_convergence(config: RunConfig, system, cfg: StepperConfig, h_list, t_final: float, reference_h) -> int:
    distinct = len(set(h_list))
    if distinct < 3:
        repeats = " distinct" if distinct < len(h_list) else ""
        raise ConfigError(f"need at least 3 step sizes for a slope fit, got {distinct}{repeats}")
    mu0 = _initial_state(system, config)
    try:
        report = convergence_study(system, h_list, t_final, reference_h, mu0=mu0, cfg=cfg)
    except (NonConvergenceError, np.linalg.LinAlgError) as exc:
        # A stepping failure, not a config error, though a LinAlgError is also a ValueError.
        if exc.partial.errors:
            sys.stdout.write(_error_table(exc.partial))
        raise
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    table = _error_table(report)
    sys.stdout.write(table)
    print(f"fitted slope: {report.fitted_slope:.4f}")
    if config.out:
        with open(config.out, "w", newline="") as fh:
            fh.write(table)
        print(f"wrote {config.out}")
    return 0


def _compare_runner(label: str, config: RunConfig):
    """Resolve a compare method label to (stepper kind, tableau)."""
    if label in _COMPARE_BASELINES:
        return _COMPARE_BASELINES[label], BUILTIN_TABLEAUS["midpoint"]
    if label in _METHODS:
        return "isospectral", _tableau_for(label, config)
    known = ", ".join(tuple(_COMPARE_BASELINES) + _METHODS)
    raise ConfigError(f"unknown compare method {label!r}; known: {known}")


def cmd_compare(config: RunConfig, system, cfg: StepperConfig, methods) -> int:
    if not methods:
        raise ConfigError("compare needs at least one method")
    runners = {}
    for label in methods:
        if label in runners:
            raise ConfigError(f"compare method {label!r} is listed more than once")
        runners[label] = _compare_runner(label, config)
    mu0 = _initial_state(system, config)
    prefix = config.out or f"compare-{config.system}"
    if prefix.endswith(".csv"):
        prefix = prefix[: -len(".csv")]
    runs = {}
    for label, (kind, tableau) in runners.items():
        try:
            runs[label] = run_recorded(system, mu0, replace(cfg, tableau=tableau), config.h, config.steps, kind)
        except (NonConvergenceError, np.linalg.LinAlgError) as exc:
            if runs:
                _print_comparison(config, runs, {})
            raise _located(exc, member=f"method {label}")
    # Every method has finished before the first CSV is written, so a failing compare leaves none.
    paths = {label: f"{prefix}-{label}.csv" for label in runs}
    for label, records in runs.items():
        write_csv(records, paths[label])
    _print_comparison(config, runs, paths)
    return 0


def _print_comparison(config: RunConfig, runs, paths) -> None:
    """The drift table of the finished runs, each one's first non-finite step and, if written, its path."""
    drifts = {label: _max_of(r.spectral_drift for r in records) for label, records in runs.items()}
    reference = "isospectral-midpoint" if "isospectral-midpoint" in drifts else next(iter(drifts))
    width = max(map(len, drifts))
    print(f"compare: system={config.system} h={config.h!r} steps={config.steps} seed={config.seed}")
    print(f"{'method'.ljust(width)}  {'max spectral drift':>20}  {'ratio vs ' + reference:>26}")
    for label, drift in drifts.items():
        ratio = drift / drifts[reference] if drifts[reference] != 0 else float("inf")
        print(f"{label.ljust(width)}  {drift:>20.6e}  {ratio:>26.3e}")
    for label, records in runs.items():
        print(f"first non-finite step ({label}): {_first_non_finite(records)}")
        if label in paths:
            print(f"wrote {paths[label]}")


def cmd_dump_config(config: RunConfig) -> int:
    text = dump_config(config)
    if config.out:
        with open(config.out, "w", newline="") as fh:
            fh.write(text)
        print(f"wrote {config.out}")
    else:
        sys.stdout.write(text)
    return 0


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", metavar="FILE", help="flat key = value config file")
    for f in fields(RunConfig):
        options = _FLAG_OPTIONS.get(f.name, {})
        if "action" not in options:
            options = {"type": _COERCERS[f.name], **options}
        parser.add_argument("--" + f.name.replace("_", "-"), dest=f.name, **options)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="isork",
        description="Isospectral symplectic SDIRK experiments on matrix Lie-Poisson systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="integrate one trajectory and write CSV diagnostics")
    _add_config_flags(p_run)

    p_conv = sub.add_parser("convergence", help="self-convergence sweep and order fit")
    _add_config_flags(p_conv)
    p_conv.add_argument(
        "--h-list", dest="h_list", type=_parse_float_list, required=True, metavar="H1,H2,..."
    )
    p_conv.add_argument("--t-final", dest="t_final", type=float, required=True)
    p_conv.add_argument("--reference-h", dest="reference_h", type=float, default=None)

    p_cmp = sub.add_parser("compare", help="run several methods from identical initial data")
    _add_config_flags(p_cmp)
    p_cmp.add_argument(
        "--methods", type=lambda s: tuple(p.strip() for p in s.split(",") if p.strip()),
        required=True, metavar="M1,M2,...",
    )

    p_dump = sub.add_parser("dump-config", help="print the effective configuration")
    _add_config_flags(p_dump)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse usage errors exit 2, --help exits 0
        return int(exc.code or 0)
    try:
        # Overflow shows as a config error, a solver error or a first non-finite step, not a warning.
        with np.errstate(over="ignore", invalid="ignore"):
            config = build_config(args)
            system, cfg = _validate(config)
            if args.command == "run":
                return cmd_run(config, system, cfg)
            if args.command == "convergence":
                return cmd_convergence(config, system, cfg, args.h_list, args.t_final, args.reference_h)
            if args.command == "compare":
                return cmd_compare(config, system, cfg, args.methods)
            return cmd_dump_config(config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NonConvergenceError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4
    except np.linalg.LinAlgError as exc:  # "numerical error at step n stage i: ...", where known
        print(_located(exc), file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())

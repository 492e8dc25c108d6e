"""One rule for every real argument of the public entry points."""

import math
import re

import numpy as np
import pytest

from isork.cli import main
from isork.diagnostics import convergence_study, run_recorded
from isork.integrator import (
    StepperConfig,
    classical_rk4_step,
    cotangent_lift,
    cotangent_sdirk_step,
    gawlik_step,
    isospectral_sdirk_step,
)
from isork.quadlie import random_algebra_element, special_unitary_structure
from isork.systems import RigidBody, TodaExtended, ZeitlinSphere
from isork.tableau import SdirkTableau

# A small state keeps every stage solve easy, even at a step size of 16.
_SYS = RigidBody()
_MU0 = 1e-3 * _SYS.initial_state(0)

# (argument, the name its message starts with, a call that takes the value, an integral value it accepts)
_ARGUMENTS = [
    ("isospectral h", "step size", lambda v: isospectral_sdirk_step(_MU0, _SYS, StepperConfig(), v), 1),
    ("cotangent h", "step size", lambda v: cotangent_sdirk_step(cotangent_lift(_MU0), _SYS, StepperConfig(), v), 1),
    ("gawlik h", "step size", lambda v: gawlik_step(_MU0, v, _SYS), 1),
    ("rk4 h", "step size", lambda v: classical_rk4_step(_MU0, v, _SYS), 1),
    ("run_recorded h", "step size", lambda v: run_recorded(_SYS, _MU0, StepperConfig(), v, 2), 1),
    ("solver_tol", "solver_tol", lambda v: StepperConfig(solver_tol=v), 1),
    ("t_final", "t_final", lambda v: convergence_study(_SYS, [16.0, 8.0], v, mu0=_MU0), 16),
    ("h_list", "h_list step size", lambda v: convergence_study(_SYS, [v, 8.0], 16.0, mu0=_MU0), 16),
    ("reference_h", "reference_h", lambda v: convergence_study(_SYS, [16.0, 8.0], 16.0, v, mu0=_MU0), 1),
    ("inertia", "inertia moment", lambda v: RigidBody((v, 2.0, 3.0)), 1),
    ("weights", "weight", lambda v: SdirkTableau((v, 1.0, -1.0)), 1),
    ("rigid body scale", "scale", lambda v: RigidBody().initial_state(0, v), 2),
    ("toda scale", "scale", lambda v: TodaExtended(4).initial_state(0, v), 2),
    ("zeitlin scale", "scale", lambda v: ZeitlinSphere(5).initial_state(0, v), 2),
    ("algebra element scale", "scale", lambda v: random_algebra_element(special_unitary_structure(3), 0, v), 2),
]
_IDS = [row[0] for row in _ARGUMENTS]

_BAD = {"str": "0.1", "complex": 1j, "np-complex": np.complex128(1), "none": None, "array": np.array([0.1, 0.2]),
        "nan": math.nan}
# None is reference_h's default, min(h_list)/8.
_BAD_CASES = [
    pytest.param(name, call, value, id=f"{argument}-{kind}")
    for argument, name, call, _ in _ARGUMENTS
    for kind, value in _BAD.items()
    if not (argument == "reference_h" and value is None)
]


@pytest.mark.parametrize("name, call, value", _BAD_CASES)
def test_bad_real_is_a_value_error_naming_the_argument(name, call, value):
    with pytest.raises(ValueError) as info:
        call(value)
    assert type(info.value) is ValueError
    assert re.match(rf"{name} must be (a real number|[a-z ]*finite[a-z ]*), got ", str(info.value)), info.value


@pytest.mark.parametrize("wrap", [np.float64, np.int64, np.array], ids=["float64", "int64", "0-d array"])
@pytest.mark.parametrize("argument, name, call, good", _ARGUMENTS, ids=_IDS)
def test_numpy_reals_are_accepted(argument, name, call, good, wrap):
    call(wrap(good))


@pytest.mark.parametrize("text", ["1j", "(1+0j)", "None", "0.1,0.2", "nan"])
@pytest.mark.parametrize("flag", ["h", "scale"])
def test_cli_bad_real_exits_2_naming_the_flag(flag, text, capsys, monkeypatch):
    monkeypatch.delenv("ISORK_SEED", raising=False)
    assert main(["dump-config", f"--{flag}", text]) == 2
    err = capsys.readouterr().err
    assert f"argument --{flag}: invalid float value" in err or err.startswith(f"config error: {flag} must be"), err


@pytest.mark.parametrize("flag", ["h", "scale"])
def test_cli_real_is_accepted(flag, capsys, monkeypatch):
    monkeypatch.delenv("ISORK_SEED", raising=False)
    assert main(["dump-config", f"--{flag}", "2"]) == 0
    assert f"{flag} = 2.0\n" in capsys.readouterr().out

"""Diagonal tableau definitions, weight checks, and substep schedules."""

import numpy as np
import pytest

from isork import integrator
from isork.integrator import StepperConfig, cotangent_lift, cotangent_sdirk_step, isospectral_sdirk_step
from isork.systems import RigidBody
from isork.tableau import (
    BUILTIN_TABLEAUS,
    SdirkTableau,
    builtin,
    order_conditions,
)


def test_builtin_inventory():
    assert set(BUILTIN_TABLEAUS) == {"midpoint", "sdirk2", "yoshida4", "suzuki4"}
    assert builtin("midpoint").b == (1.0,)
    assert builtin("sdirk2").b == (0.5, 0.5)
    assert builtin("yoshida4").s == 3
    assert builtin("suzuki4").s == 5


def test_builtin_rejects_unknown():
    with pytest.raises(ValueError, match="midpoint"):
        builtin("rk4")


def test_weights_sum_to_one():
    for tab in BUILTIN_TABLEAUS.values():
        assert abs(sum(tab.b) - 1.0) < 1e-15


def test_fourth_order_compositions_have_negative_middle_weight():
    w1 = 1.0 / (2.0 - 2.0 ** (1.0 / 3.0))
    yoshida = builtin("yoshida4")
    assert np.allclose(yoshida.b, (w1, 1.0 - 2.0 * w1, w1))
    assert yoshida.b[1] < 0
    assert builtin("suzuki4").b[2] < 0


def test_order_conditions():
    first, third = order_conditions(builtin("midpoint"))
    assert first == 0.0 and abs(third - 1.0) < 1e-15

    first, third = order_conditions(builtin("sdirk2"))
    assert first < 1e-15 and abs(third - 0.25) < 1e-15

    for name in ("yoshida4", "suzuki4"):
        first, third = order_conditions(builtin(name))
        assert first < 1e-12 and third < 1e-12


class TestTableauChecksWeights:
    """The weight rules hold for every SdirkTableau, however its weights were obtained."""

    @pytest.mark.parametrize(
        "b, match",
        [
            ((), "empty"),
            ((0.0, 1.0), "zero"),
            ((0.5, 0.6), "sum"),
            # A non-finite weight is named before any sum is formed.
            ((float("nan"),), r"^weight must be finite and nonzero, got nan$"),
            ((float("inf"), float("-inf")), r"^weight must be finite and nonzero, got inf$"),
        ],
        ids=["empty", "zero", "bad-sum", "nan", "inf"],
    )
    def test_rejects_bad_weights(self, b, match):
        with pytest.raises(ValueError, match=match):
            SdirkTableau(b)

    def test_builtins_unchanged(self):
        w1 = 1.0 / (2.0 - 2.0 ** (1.0 / 3.0))
        v = 1.0 / (4.0 - 4.0 ** (1.0 / 3.0))
        assert {name: tab.b for name, tab in BUILTIN_TABLEAUS.items()} == {
            "midpoint": (1.0,),
            "sdirk2": (0.5, 0.5),
            "yoshida4": (w1, 1.0 - 2.0 * w1, w1),
            "suzuki4": (v, v, 1.0 - 4.0 * v, v, v),
        }
        assert all(tab.name == name for name, tab in BUILTIN_TABLEAUS.items())
        assert all(type(w) is float for tab in BUILTIN_TABLEAUS.values() for w in tab.b)

    def test_weights_are_stored_as_a_tuple_of_floats(self):
        # A list or an array of weights gives the same, hashable tableau as a tuple.
        assert SdirkTableau([0.5, 0.5], "x") == SdirkTableau((0.5, 0.5), "x")
        assert hash(SdirkTableau([0.5, 0.5], "x")) == hash(SdirkTableau((0.5, 0.5), "x"))
        hash(StepperConfig(tableau=SdirkTableau([0.5, 0.5])))
        b = SdirkTableau(np.array([0.5, 0.5])).b
        assert b == (0.5, 0.5) and all(type(w) is float for w in b)


class TestSchedule:
    """The substeps a macro step takes: h * b_i over cfg.tableau, in order."""

    @pytest.fixture
    def taken(self, monkeypatch):
        sizes = []
        real = integrator.solve_stage

        def spy(mu_prev, h_i, system, cfg):
            sizes.append(h_i)
            return real(mu_prev, h_i, system, cfg)

        monkeypatch.setattr(integrator, "solve_stage", spy)
        return sizes

    def _step(self, tab, h):
        sys = RigidBody()
        return isospectral_sdirk_step(sys.initial_state(0), sys, StepperConfig(tableau=tab), h)

    def test_substeps_partition_the_step(self, taken):
        h = 0.3
        for tab in BUILTIN_TABLEAUS.values():
            taken.clear()
            self._step(tab, h)
            assert taken == [h * w for w in tab.b]
            assert abs(sum(taken) - h) < 1e-15
            assert order_conditions(tab)[0] <= 1e-15

    def test_negative_weight_gives_backward_substep(self, taken):
        self._step(builtin("yoshida4"), 0.1)
        assert taken[1] < 0 < taken[0]

    def test_negative_h_allowed(self, taken):
        self._step(builtin("midpoint"), -0.2)
        assert taken == [-0.2]

    def test_zero_h_rejected(self):
        sys = RigidBody()
        cfg = StepperConfig()
        mu = sys.initial_state(0)
        with pytest.raises(ValueError, match="nonzero"):
            isospectral_sdirk_step(mu, sys, cfg, 0.0)
        with pytest.raises(ValueError, match="nonzero"):
            cotangent_sdirk_step(cotangent_lift(mu), sys, cfg, 0.0)


def test_tableau_is_frozen():
    tab = SdirkTableau((1.0,))
    with pytest.raises(Exception):
        tab.b = (0.5, 0.5)

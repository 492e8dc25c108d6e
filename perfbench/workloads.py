"""The three benchmark workloads and the seeded inputs they feed the library.

Each workload follows the path `isork run` takes: construct the system,
build the seeded initial state, `run_recorded`, `write_csv`.  The
benchmark seed is never passed to the library as such; it only picks
the trajectory seeds below, and the library receives the states they
generate.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from isork import (
    RigidBody,
    SplitMix64,
    StepperConfig,
    TodaExtended,
    ZeitlinSphere,
    builtin,
    toda_lax_matrices,
)

# Relative size of the Toda perturbation around the alternating-sign
# Lax data.  At +-10% one of 850 scanned seeds needed 203 Picard sweeps
# in the middle yoshida4 stage, past the default limit of 200, and
# raised NonConvergenceError; at +-5% the worst of 550 needed 167.
TODA_JITTER = 0.05


def toda_state(system, seed: int) -> np.ndarray:
    """Lax data within +-TODA_JITTER of the alternating-sign state.

    `TodaExtended.initial_state` ignores its seed, so the draw is made
    here with the library's SplitMix64 and assembled by
    `toda_lax_matrices`.
    """
    signs = (-1.0) ** np.arange(1, system.n + 1)
    u = SplitMix64(seed).uniform((2, system.n))
    a = signs * (1.0 + TODA_JITTER * u[0])
    b = signs * (1.0 + TODA_JITTER * u[1])
    lax, _ = toda_lax_matrices(a, b)
    return lax


def library_state(system, seed: int) -> np.ndarray:
    return system.initial_state(seed)


@dataclass(frozen=True)
class Workload:
    """One benchmark configuration.

    A trajectory of `steps` macro steps from one seeded state is one
    operation.  A run cycles through `pool` trajectory seeds and only
    stops at the end of a cycle, so every run averages seed-dependent
    costs the same way: sweeps per trajectory vary between seeds with a
    coefficient of variation of about 4% on Toda over 10 steps and 9% on
    Zeitlin over 50.  Cycles last a few seconds at most, so every seed
    gets enough repeats for a steady median.  `casimir_bound` is
    (kind, bound) for the quadratic Casimir drift check, kind being
    "abs" or "rel"; None skips that check.
    """

    name: str
    make_system: Callable[[], object]
    make_state: Callable[[object, int], np.ndarray]
    tableau: str
    h: float
    steps: int
    record_every: int
    pool: int
    casimir_bound: tuple[str, float] | None

    def stepper(self) -> StepperConfig:
        return StepperConfig(tableau=builtin(self.tableau))

    def trajectory_seeds(self, seed: int) -> list[int]:
        return [seed * 1000 + j for j in range(self.pool)]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="rigidbody-dense",
            make_system=lambda: RigidBody((1.0, 2.0, 3.0)),
            make_state=library_state,
            tableau="midpoint",
            h=0.01,
            steps=100,  # the length of the golden CSV trajectory
            record_every=1,
            pool=8,
            casimir_bound=("abs", 1e-11),
        ),
        Workload(
            name="toda-yoshida4",
            make_system=lambda: TodaExtended(4),
            make_state=toda_state,
            tableau="yoshida4",
            h=0.1,
            steps=10,
            record_every=10,
            pool=12,
            casimir_bound=None,
        ),
        Workload(
            name="zeitlin-n33",
            make_system=lambda: ZeitlinSphere(33),
            make_state=library_state,
            tableau="midpoint",
            h=0.0025,
            steps=50,
            record_every=50,
            pool=8,
            casimir_bound=("rel", 1e-10),
        ),
    )
}

# Zeitlin sizes of the cold construction ladder in the traced run.
LADDER = (9, 17, 25, 33)


def ladder_system(N: int):
    return lambda: ZeitlinSphere(N)


def cold_setup(make_system, make_state, seed: int):
    """Construct the system and its seeded state; returns (system, mu0, seconds)."""
    t0 = time.perf_counter()
    system = make_system()
    mu0 = make_state(system, seed)
    return system, mu0, time.perf_counter() - t0

"""Eve's strategy catalog and her action at the two channel taps.

A strategy carries its own route; :func:`apply_eve` is called at both taps
every round and is a no-op when the tap does not match the strategy's route.
Eve never learns whether the round is a control or a message round -- the
interface has no mode parameter.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import ClassVar, Optional, Union

from .qcore import (
    ALG_TOL,
    InvariantError,
    PauliCode,
    RandomSource,
    TwoQubitState,
    apply_pauli_t,
    branch_index,
    collapse_t,
    measure_t_computational,
    t0_probability,
)


class Route(Enum):
    B_TO_A = "b2a"
    A_TO_B = "a2b"


# Disturbance-operator selection rules.  Each names the (u, v) ``codes`` it
# picks from and the ``thresholds`` of its uniform draw: a draw u picks
# ``codes[branch_index(thresholds, u)]``.  A rule without thresholds does
# not draw.

@dataclass(frozen=True)
class Fixed:
    """Always apply C_{u,v}."""

    u: int
    v: int

    thresholds: ClassVar[tuple[float, ...]] = ()

    def __post_init__(self) -> None:
        if self.u not in (0, 1) or self.v not in (0, 1):
            raise ValueError("Fixed selection bits must be 0/1")

    @property
    def codes(self) -> tuple[tuple[int, int], ...]:
        return ((self.u, self.v),)


@dataclass(frozen=True)
class UniformAll4:
    """Draw (u, v) uniformly from all four codes."""

    codes: ClassVar[tuple[tuple[int, int], ...]] = ((0, 0), (0, 1), (1, 0), (1, 1))
    # 4u is exact in binary, so the count of quarters at or below u is floor(4u)
    thresholds: ClassVar[tuple[float, ...]] = (0.25, 0.5, 0.75)


@dataclass(frozen=True)
class CoinIZ:
    """Draw uniformly from {identity, sigma_z} -- the message-scrambling coin."""

    codes: ClassVar[tuple[tuple[int, int], ...]] = ((0, 0), (1, 1))
    thresholds: ClassVar[tuple[float, ...]] = (0.5,)


Selection = Union[Fixed, UniformAll4, CoinIZ]


# Strategies.

@dataclass(frozen=True)
class Passive:
    """No tampering."""


@dataclass(frozen=True)
class InterceptMeasure:
    """Measure the travel qubit in the computational basis at one tap and
    forward the collapsed qubit."""

    route: Route = Route.B_TO_A


@dataclass(frozen=True)
class DisturbPauli:
    """Apply a (possibly random) Pauli to the travel qubit at one tap."""

    route: Route = Route.A_TO_B
    selection: Selection = UniformAll4()


EveStrategy = Union[Passive, InterceptMeasure, DisturbPauli]


# Records of what Eve did in a round.

@dataclass(frozen=True)
class MeasuredBranch:
    """Intercept-measure outcome.

    ``branch`` is 'a' when the home qubit collapsed to |0>, 'b' when it
    collapsed to |1>; ``t_outcome`` is the literal measured travel bit.
    For correlated Bell inputs with an even code the two disagree with the
    naive reading, which is why both are recorded.
    """

    branch: str
    t_outcome: int


@dataclass(frozen=True)
class AppliedPauli:
    u: int
    v: int


EveRecord = Optional[Union[MeasuredBranch, AppliedPauli]]


def _draw_selection(selection: Selection, rand: RandomSource) -> tuple[int, int]:
    if not selection.thresholds:
        return selection.codes[0]
    return selection.codes[branch_index(selection.thresholds, rand.random())]


def tap_branches(
    strategy: EveStrategy, route: Route, state: TwoQubitState
) -> tuple[tuple[float, ...], tuple[TwoQubitState, ...]]:
    """Every state Eve can forward at a tap, and the thresholds of her draw.

    With draw u, :func:`apply_eve` forwards
    ``states[branch_index(thresholds, u)]``.  A tap that does not draw
    returns no thresholds and one state.
    """
    if isinstance(strategy, InterceptMeasure):
        if strategy.route is route:
            p0 = t0_probability(state)
            return (p0,), (collapse_t(state, 0, p0)[0], collapse_t(state, 1, p0)[0])
    elif isinstance(strategy, DisturbPauli):
        if strategy.route is route:
            sel = strategy.selection
            return sel.thresholds, tuple(
                apply_pauli_t(state, PauliCode(u, v)) for u, v in sel.codes
            )
    elif not isinstance(strategy, Passive):
        raise TypeError(f"unknown strategy {strategy!r}")
    return (), (state,)


def apply_eve(
    strategy: EveStrategy,
    route: Route,
    state: TwoQubitState,
    rand: RandomSource,
) -> tuple[TwoQubitState, EveRecord]:
    """Eve's action at a tap.  Returns the forwarded state and her record.

    Passive strategies and route mismatches forward the state untouched with
    record None.
    """
    if isinstance(strategy, Passive):
        return state, None

    if isinstance(strategy, InterceptMeasure):
        if strategy.route is not route:
            return state, None
        t_outcome, collapsed, _p = measure_t_computational(state, rand)
        a = collapsed.amp
        home0 = abs(a[0]) ** 2 + abs(a[1]) ** 2
        home1 = abs(a[2]) ** 2 + abs(a[3]) ** 2
        if home1 <= ALG_TOL:
            branch = "a"
        elif home0 <= ALG_TOL:
            branch = "b"
        else:
            # The protocol only feeds Eve maximally correlated states, so a
            # t-measurement always leaves the home qubit definite.
            raise InvariantError("intercept left the home qubit undetermined")
        return collapsed, MeasuredBranch(branch, t_outcome)

    if isinstance(strategy, DisturbPauli):
        if strategy.route is not route:
            return state, None
        u, v = _draw_selection(strategy.selection, rand)
        return apply_pauli_t(state, PauliCode(u, v)), AppliedPauli(u, v)

    raise TypeError(f"unknown strategy {strategy!r}")

"""Eve's strategy catalog and her action at the two channel taps.

A strategy carries its own route and answers ``tap(route)`` with what Eve
does there: nothing, :data:`MEASURE`, or one of a selection's codes.
:func:`apply_eve`, :func:`tap_branches` and the exact enumeration all
dispatch on that action.

Eve never learns whether the round is a control or a message round -- the
interface has no mode parameter.
"""

from __future__ import annotations

from enum import Enum

from .qcore import (
    ALG_TOL,
    FrozenValue,
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
# not draw.  ``rule`` is the rule's name on the command line.

class Fixed(FrozenValue):
    """Always apply C_{u,v}."""

    __slots__ = ("u", "v")

    rule = "fixed"
    thresholds: tuple[float, ...] = ()

    def __init__(self, u: int, v: int):
        if u not in (0, 1) or v not in (0, 1):
            raise ValueError("Fixed selection bits must be 0/1")
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "v", v)

    @property
    def codes(self) -> tuple[tuple[int, int], ...]:
        return ((self.u, self.v),)


class UniformAll4(FrozenValue):
    """Draw (u, v) uniformly from all four codes."""

    __slots__ = ()

    rule = "uniform4"
    codes: tuple[tuple[int, int], ...] = ((0, 0), (0, 1), (1, 0), (1, 1))
    # 4u is exact in binary, so the count of quarters at or below u is floor(4u)
    thresholds: tuple[float, ...] = (0.25, 0.5, 0.75)


class CoinIZ(FrozenValue):
    """Draw uniformly from {identity, sigma_z} -- the message-scrambling coin."""

    __slots__ = ()

    rule = "coin-iz"
    codes: tuple[tuple[int, int], ...] = ((0, 0), (1, 1))
    thresholds: tuple[float, ...] = (0.5,)


Selection = Fixed | UniformAll4 | CoinIZ


class Measure(FrozenValue):
    """Tap action: measure the travel qubit in the computational basis."""

    __slots__ = ()


MEASURE = Measure()

#: what Eve does at a tap: nothing, measure, or apply a selection's codes
TapAction = Measure | Selection | None


# Strategies.

class Passive(FrozenValue):
    """No tampering."""

    __slots__ = ()

    def tap(self, route: Route) -> TapAction:
        return None


class InterceptMeasure(FrozenValue):
    """Measure the travel qubit in the computational basis at one tap and
    forward the collapsed qubit."""

    __slots__ = ("route",)

    def __init__(self, route: Route = Route.B_TO_A):
        object.__setattr__(self, "route", route)

    def tap(self, route: Route) -> TapAction:
        return MEASURE if route is self.route else None


class DisturbPauli(FrozenValue):
    """Apply a (possibly random) Pauli to the travel qubit at one tap."""

    __slots__ = ("route", "selection")

    def __init__(self, route: Route = Route.A_TO_B,
                 selection: Selection = UniformAll4()):
        object.__setattr__(self, "route", route)
        object.__setattr__(self, "selection", selection)

    def tap(self, route: Route) -> TapAction:
        return self.selection if route is self.route else None


EveStrategy = Passive | InterceptMeasure | DisturbPauli


# Records of what Eve did in a round.

class MeasuredBranch(FrozenValue):
    """Intercept-measure outcome.

    ``branch`` is 'a' when the home qubit collapsed to |0>, 'b' when it
    collapsed to |1>; ``t_outcome`` is the literal measured travel bit.
    For correlated Bell inputs with an even code the two disagree with the
    naive reading, which is why both are recorded.
    """

    __slots__ = ("branch", "t_outcome")

    def __init__(self, branch: str, t_outcome: int):
        object.__setattr__(self, "branch", branch)
        object.__setattr__(self, "t_outcome", t_outcome)


class AppliedPauli(FrozenValue):
    __slots__ = ("u", "v")

    def __init__(self, u: int, v: int):
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "v", v)


EveRecord = MeasuredBranch | AppliedPauli | None


def _home_branch(collapsed: TwoQubitState) -> str:
    """The intercept branch of a state collapsed by Eve's measurement: 'a'
    when the home qubit is |0>, 'b' when it is |1>."""
    a = collapsed.amp
    home0 = abs(a[0]) ** 2 + abs(a[1]) ** 2
    home1 = abs(a[2]) ** 2 + abs(a[3]) ** 2
    if home1 <= ALG_TOL:
        return "a"
    if home0 <= ALG_TOL:
        return "b"
    # The protocol only feeds Eve maximally correlated states, so a
    # t-measurement always leaves the home qubit definite.
    raise InvariantError("intercept left the home qubit undetermined")


def tap_branches(
    strategy: EveStrategy, route: Route, state: TwoQubitState
) -> tuple[tuple[float, ...], tuple[TwoQubitState, ...]]:
    """Every state Eve can forward at a tap, and the thresholds of her draw.

    With draw u, :func:`apply_eve` forwards
    ``states[branch_index(thresholds, u)]``.  A tap that does not draw
    returns no thresholds and one state.  A measurement checks every
    collapsed state as :func:`apply_eve` checks the one it draws, raising
    InvariantError when the home qubit is left undetermined.
    """
    action = strategy.tap(route)
    if action is None:
        return (), (state,)
    if action is MEASURE:
        p0 = t0_probability(state)
        collapsed = (collapse_t(state, 0, p0)[0], collapse_t(state, 1, p0)[0])
        for branch in collapsed:
            _home_branch(branch)
        return (p0,), collapsed
    return action.thresholds, tuple(
        apply_pauli_t(state, PauliCode(u, v)) for u, v in action.codes
    )


def apply_eve(
    strategy: EveStrategy,
    route: Route,
    state: TwoQubitState,
    rand: RandomSource,
) -> tuple[TwoQubitState, EveRecord]:
    """Eve's action at a tap.  Returns the forwarded state and her record.

    A tap without an action forwards the state untouched with record None.
    Only the branch the draw picks is computed.
    """
    action = strategy.tap(route)
    if action is None:
        return state, None

    if action is MEASURE:
        t_outcome, collapsed, _p = measure_t_computational(state, rand)
        return collapsed, MeasuredBranch(_home_branch(collapsed), t_outcome)

    thresholds = action.thresholds
    u, v = action.codes[branch_index(thresholds, rand.random()) if thresholds else 0]
    return apply_pauli_t(state, PauliCode(u, v)), AppliedPauli(u, v)

"""Eve's action at a channel tap in the float round simulator, and the
records of what she did.

The strategy catalog lives in :mod:`qdialogue.model`: a strategy answers
``tap(route)`` with what Eve does there, nothing, :data:`MEASURE`, or one
of a selection's codes.  :func:`apply_eve` dispatches on that action, as
the exact walk in :mod:`qdialogue.exactstate` does.  The strategies are
imported here too, from :mod:`qdialogue.model`, for the callers that take
them from this module.

Eve never learns whether the round is a control or a message round -- the
interface has no mode parameter.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import accumulate

from .model import (
    MEASURE,
    CoinIZ,
    DisturbPauli,
    EveStrategy,
    Fixed,
    FrozenValue,
    InterceptMeasure,
    InvariantError,
    Passive,
    PauliCode,
    RandomSource,
    Route,
    UniformAll4,
)
from .qcore import ALG_TOL, TwoQubitState, apply_pauli_t, measure_t_computational


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


def apply_eve(
    strategy: EveStrategy,
    route: Route,
    state: TwoQubitState,
    rand: RandomSource,
) -> tuple[TwoQubitState, EveRecord]:
    """Eve's action at a tap.  Returns the forwarded state and her record.

    A tap without an action forwards the state untouched with record None.
    Only the branch the draw picks is computed.  A non-strategy raises
    TypeError.
    """
    if not isinstance(strategy, EveStrategy):
        raise TypeError(f"not an Eve strategy: {strategy!r}")
    action = strategy.tap(route)
    if action is None:
        return state, None

    if action is MEASURE:
        t_outcome, collapsed, _p = measure_t_computational(state, rand)
        return collapsed, MeasuredBranch(_home_branch(collapsed), t_outcome)

    codes, weights = action.codes, action.weights
    # the weights sum to a power of two, so u * sum(weights) is exact
    u, v = codes[bisect_right(list(accumulate(weights)), rand.random() * sum(weights))
                 if len(codes) > 1 else 0]
    return apply_pauli_t(state, PauliCode(u, v)), AppliedPauli(u, v)

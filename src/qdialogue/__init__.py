"""Simulator and exact-analysis toolkit for the two-way quantum dialogue
protocol under intercept-measure and random-Pauli eavesdropping.

The public names below are resolved on first access (PEP 562), each from
its home module, and then kept in this module's globals, so that a process
loads only the engine it runs: ``import qdialogue`` alone loads no
submodule, a process that only samples loads ``model``, ``exactstate`` and
``sampling``, not the float round simulator or the exact reports, and an
exact report loads ``model``, ``exactstate`` and ``analysis``.
"""

__version__ = "0.1.0"

#: each public name's home module
_HOMES = {
    **dict.fromkeys((
        "BellLabel", "Comparison", "Convention", "PauliCode", "Phase", "PhasedPauli",
        "RandomSource", "label_map", "pauli_action_closed_form", "pauli_compose",
        "CoinIZ", "DisturbPauli", "Fixed", "InterceptMeasure", "Passive", "Route",
        "UniformAll4", "Mode", "RoundConfig", "expected_outcome",
    ), "model"),
    **dict.fromkeys((
        "TwoQubitState", "apply_pauli_t", "bell_decompose", "bell_state",
        "equal_up_to_global_phase", "measure_bell", "measure_t_computational",
        "pauli_matrix",
    ), "qcore"),
    **dict.fromkeys(("AppliedPauli", "MeasuredBranch", "apply_eve"), "attacks"),
    **dict.fromkeys(("RoundTranscript", "run_round"), "protocol"),
    **dict.fromkeys(("McEstimate", "SessionStats", "monte_carlo", "run_session"),
                    "sampling"),
    **dict.fromkeys((
        "CaseDescriptor", "ClaimsReport", "DetectionReport", "MessageErrorReport",
        "compare_claims", "enumerate_exact", "message_error_rate", "paper_case_table",
    ), "analysis"),
}

__all__ = sorted(_HOMES)


def _lazy_names(namespace: dict, homes: dict[str, str]):
    """The PEP 562 ``__getattr__`` and ``__dir__`` of the module of globals
    ``namespace``: each name of ``homes`` is imported from its home, a
    module of this package, on first access and then kept in ``namespace``."""
    def __getattr__(name: str):
        try:
            home = homes[name]
        except KeyError:
            raise AttributeError(
                f"module {namespace['__name__']!r} has no attribute {name!r}") from None
        # with a fromlist, __import__ returns the submodule itself
        value = namespace[name] = getattr(__import__(f"{__name__}.{home}", fromlist=(name,)), name)
        return value

    def __dir__() -> list[str]:
        return sorted({*namespace, *homes})
    return __getattr__, __dir__


__getattr__, __dir__ = _lazy_names(globals(), _HOMES)

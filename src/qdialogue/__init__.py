"""Simulator and exact-analysis toolkit for the two-way quantum dialogue
protocol under intercept-measure and random-Pauli eavesdropping."""

from .qcore import (
    BellLabel,
    Convention,
    PauliCode,
    Phase,
    PhasedPauli,
    RandomSource,
    TwoQubitState,
    apply_pauli_t,
    bell_decompose,
    bell_state,
    equal_up_to_global_phase,
    label_map,
    measure_bell,
    measure_t_computational,
    pauli_action_closed_form,
    pauli_compose,
    pauli_matrix,
)
from .attacks import (
    AppliedPauli,
    CoinIZ,
    DisturbPauli,
    Fixed,
    InterceptMeasure,
    MeasuredBranch,
    Passive,
    Route,
    UniformAll4,
    apply_eve,
)
from .protocol import (
    Mode,
    RoundConfig,
    RoundTranscript,
    expected_outcome,
    run_round,
)
from .analysis import (
    CaseDescriptor,
    ClaimsReport,
    DetectionReport,
    McEstimate,
    MessageErrorReport,
    SessionStats,
    compare_claims,
    enumerate_exact,
    message_error_rate,
    monte_carlo,
    paper_case_table,
    run_session,
)

__version__ = "0.1.0"

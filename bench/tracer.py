"""In-memory span tracer for the traced benchmark run.

The package binds its dependencies with ``from ... import``, so a wrapper
on a function's defining module would never be called.  Each wrapper is
installed at a lookup site instead: the module attribute that the caller
reads at call time (``qdialogue.protocol.apply_eve``, for example).
Methods are wrapped on their class.

A span's self time is its duration minus the time covered by the spans it
encloses.  Spans are aggregated per name in memory (calls and self time);
a traced Monte Carlo run produces millions of them, too many to keep one
by one.  ``RandomSource.random`` is only counted, per tag, because a span
around each uniform draw would swamp the run.
"""

from __future__ import annotations

import sys
from collections import Counter
from time import perf_counter

#: (module, attribute, span name) of every wrapped lookup site
SPAN_SITES = (
    ("qdialogue.protocol", "apply_pauli_t", "qcore.apply_pauli_t"),
    ("qdialogue.attacks", "apply_pauli_t", "qcore.apply_pauli_t"),
    ("qdialogue.attacks", "measure_t_computational", "qcore.measure_t_computational"),
    ("qdialogue.protocol", "measure_bell", "qcore.measure_bell"),
    ("qdialogue.protocol", "run_round", "protocol.run_round"),
    ("qdialogue.analysis", "run_round", "protocol.run_round"),
    ("qdialogue.cli", "run_round", "protocol.run_round"),
    ("qdialogue", "run_session", "protocol.run_session"),
    ("qdialogue.cli", "run_session", "protocol.run_session"),
    ("qdialogue.analysis", "apply_pauli_t_exact", "exactstate.apply_pauli_t_exact"),
    ("qdialogue.analysis", "measure_t_branches", "exactstate.measure_t_branches"),
    ("qdialogue.analysis", "bell_weights_exact", "exactstate.bell_weights_exact"),
    ("qdialogue", "enumerate_exact", "analysis.enumerate_exact"),
    ("qdialogue.analysis", "enumerate_exact", "analysis.enumerate_exact"),
    ("qdialogue.cli", "enumerate_exact", "analysis.enumerate_exact"),
    ("qdialogue", "message_error_rate", "analysis.message_error_rate"),
    ("qdialogue", "monte_carlo", "analysis.monte_carlo"),
    ("qdialogue.cli", "run_cli", "cli.run_cli"),
)

#: spans whose ``.calls`` and ``.self_s`` are reported
REPORTED_SPANS = (
    "qcore.apply_pauli_t",
    "qcore.measure_bell",
    "qcore.measure_t_computational",
    "qcore.RandomSource.child",
    "attacks.apply_eve",
    "protocol.run_round",
    "protocol.run_session",
    "exactstate.apply_pauli_t_exact",
    "exactstate.measure_t_branches",
    "exactstate.bell_weights_exact",
    "analysis.enumerate_exact",
    "analysis.message_error_rate",
    "analysis.monte_carlo",
    "cli.run_cli",
)

#: lookup sites of ``RoundConfig``, whose constructions are counted
ROUND_CONFIG_SITES = ("qdialogue.protocol", "qdialogue.analysis", "qdialogue.cli")


class SpanStats:
    __slots__ = ("calls", "self_time")

    def __init__(self) -> None:
        self.calls = 0
        self.self_time = 0.0


class Tracer:
    """Installs timing wrappers on the package and aggregates their spans.

    ``tag`` labels the draws of ``RandomSource.random`` by the operation
    the caller is running, so draws per round can be read per attack.
    """

    def __init__(self) -> None:
        self.spans: dict[str, SpanStats] = {}
        self.draws: Counter = Counter()
        self.counts: Counter = Counter()
        self.tag = None
        self._stack: list[float] = []  # child time covered, per open span
        self._saved: list[tuple[object, str, object]] = []

    def _span(self, name: str, fn, on_result=None):
        stats = self.spans.setdefault(name, SpanStats())
        stack = self._stack

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stats.calls += 1
                stats.self_time += elapsed - stack.pop()
                if stack:
                    stack[-1] += elapsed
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def _count_eve(self, result) -> None:
        if result[1] is not None:
            self.counts["attacks.apply_eve.useful"] += 1

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        """Wrap every lookup site; ``uninstall`` restores the originals."""
        import qdialogue.cli  # noqa: F401  (its lookup sites are wrapped too)
        from qdialogue.qcore import RandomSource

        for module, attr, name in SPAN_SITES:
            owner = sys.modules[module]
            self._patch(owner, attr, self._span(name, getattr(owner, attr)))
        protocol = sys.modules["qdialogue.protocol"]
        self._patch(protocol, "apply_eve",
                    self._span("attacks.apply_eve", protocol.apply_eve,
                               self._count_eve))
        self._patch(RandomSource, "child",
                    self._span("qcore.RandomSource.child", RandomSource.child))

        draw, draws = RandomSource.random, self.draws

        def counted_random(source):
            draws[self.tag] += 1
            return draw(source)

        self._patch(RandomSource, "random", counted_random)

        counts = self.counts
        for module in ROUND_CONFIG_SITES:
            owner = sys.modules[module]
            config_cls = owner.RoundConfig

            def counted_config(*args, _cls=config_cls, **kwargs):
                counts["protocol.RoundConfig"] += 1
                return _cls(*args, **kwargs)

            self._patch(owner, "RoundConfig", counted_config)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def calls(self, name: str) -> int:
        stats = self.spans.get(name)
        return stats.calls if stats else 0

    def self_s(self, name: str) -> float:
        stats = self.spans.get(name)
        return stats.self_time if stats else 0.0


def import_split(stderr: str) -> dict[str, float]:
    """Seconds of ``python -X importtime`` attributed to numpy, qdialogue
    and everything else.

    A module's self time belongs to numpy when numpy or a numpy submodule
    is among its importers (itself included), else to qdialogue when a
    qdialogue module is, else to the rest.
    """
    # importtime prints each module after its children, indented by depth
    pending: list[tuple[int, list[list]]] = []  # (depth, [[self_us, cat]])
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "self [us]" in line:
            continue
        fields = line[len("import time:"):].split("|")
        self_us = int(fields[0])
        depth = len(fields[2]) - len(fields[2].lstrip(" "))
        name = fields[2].strip()
        subtree = [[self_us, None]]
        while pending and pending[-1][0] > depth:
            subtree.extend(pending.pop()[1])
        top = name.split(".")[0]
        cat = top if top in ("numpy", "qdialogue") else None
        if cat is not None:
            for item in subtree:
                if item[1] is None or (cat == "numpy" and item[1] == "qdialogue"):
                    item[1] = cat
        pending.append((depth, subtree))
    split = {"numpy": 0.0, "qdialogue": 0.0, "other": 0.0}
    for _depth, items in pending:
        for self_us, cat in items:
            split[cat or "other"] += self_us * 1e-6
    return split

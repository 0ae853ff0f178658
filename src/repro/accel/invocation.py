"""Accelerator invocation prediction (paper §V).

Before execution reaches an offload region's entry block the host must
decide whether to invoke the accelerator: a wrong invocation costs the whole
frame plus rollback.  The paper uses an *invocation history table* keyed by
recent control-flow history; we key it by the ids of the recently completed
paths (equivalent information, since a path id encodes the branch outcomes
that led here).  An Oracle predictor bounds the attainable benefit in
Fig. 9.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Set, Tuple


class OraclePredictor:
    """Knows the future: invoke exactly when the next path is offloadable."""

    def __init__(self, target_paths: Set[int]):
        self.targets = set(target_paths)

    def predict(self, history: Tuple[int, ...], actual_next: int) -> bool:
        return actual_next in self.targets

    def update(self, history: Tuple[int, ...], outcome: bool) -> None:
        pass


class HistoryPredictor:
    """2-bit saturating counters indexed by the last-k path ids.

    The predictor is deliberately *conservative*: it invokes only on a
    saturated counter (state 3), because a wrong invocation costs the whole
    frame plus rollback while a missed one merely runs the path on the host.
    Counters increment on offloadable outcomes and decrement otherwise.
    """

    def __init__(
        self,
        history_length: int = 3,
        init_counter: int = 1,
        invoke_threshold: int = 3,
    ):
        self.history_length = history_length
        self.init_counter = init_counter
        self.invoke_threshold = invoke_threshold
        self.table: Dict[Tuple[int, ...], int] = {}

    def predict(self, history: Tuple[int, ...], actual_next: int = -1) -> bool:
        return self.table.get(history, self.init_counter) >= self.invoke_threshold

    def update(self, history: Tuple[int, ...], outcome: bool) -> None:
        c = self.table.get(history, self.init_counter)
        c = min(3, c + 1) if outcome else max(0, c - 1)
        self.table[history] = c


@dataclass
class PredictorEvaluation:
    """Invocation decisions over a path trace, with accuracy statistics.

    :func:`evaluate_predictor` fills ``decisions`` and ``outcomes``, one
    entry per event; :func:`evaluate_predictor_runs` fills ``segments``,
    (pid, invoke, length) runs that partition the trace in order, within
    which the path id and the decision are constant.  Both count the same
    four integers, and the trace-kernel property tests hold them equal.
    """

    decisions: List[bool] = field(default_factory=list)  # invoke at step k?
    outcomes: List[bool] = field(default_factory=list)  # was path k offloadable?
    segments: List[Tuple[int, bool, int]] = field(default_factory=list)
    true_positives: int = 0
    false_positives: int = 0
    true_negatives: int = 0
    false_negatives: int = 0

    def count(self, invoke: bool, offloadable: bool, n: int = 1) -> None:
        """Add ``n`` decisions of one kind to the confusion counts."""
        if invoke and offloadable:
            self.true_positives += n
        elif invoke:
            self.false_positives += n
        elif offloadable:
            self.false_negatives += n
        else:
            self.true_negatives += n

    @property
    def precision(self) -> float:
        d = self.true_positives + self.false_positives
        return self.true_positives / d if d else 1.0

    @property
    def recall(self) -> float:
        d = self.true_positives + self.false_negatives
        return self.true_positives / d if d else 0.0

    @property
    def invocations(self) -> int:
        return self.true_positives + self.false_positives


def evaluate_predictor(
    trace: Sequence[int],
    target_paths: Set[int],
    predictor,
    history_length: int = 3,
) -> PredictorEvaluation:
    """Replay a path trace through a predictor, training online.

    At step ``k`` the predictor sees the ids of the previous
    ``history_length`` paths and decides whether to launch the accelerator
    for the upcoming one.
    """
    ev = PredictorEvaluation()
    history: deque = deque(maxlen=history_length)
    for pid in trace:
        key = tuple(history)
        invoke = predictor.predict(key, pid)
        offloadable = pid in target_paths
        ev.decisions.append(invoke)
        ev.outcomes.append(offloadable)
        ev.count(invoke, offloadable)
        predictor.update(key, offloadable)
        history.append(pid)
    return ev


#: constant-key predictor updates needed to saturate a 2-bit counter from
#: any state; after ``history_length`` in-run steps the history key is
#: pinned, and one more update beyond saturation proves stability
_SATURATION_STEPS = 4


def evaluate_predictor_runs(
    runs: Sequence[Tuple[int, int]],
    target_paths: Set[int],
    predictor,
    history_length: int = 3,
) -> PredictorEvaluation:
    """Replay a *run-length encoded* path trace through a predictor.

    Exactly equivalent to :func:`evaluate_predictor` over the expanded
    trace, but O(#runs) instead of O(#events): within a run of one path
    id the predictor's inputs stabilise — after ``history_length`` steps
    the history key is a constant ``(pid,) * history_length``, and the
    per-key 2-bit counter saturates monotonically under the run's
    constant outcome within :data:`_SATURATION_STEPS` further updates
    (saturated updates are no-ops).  So each run is simulated explicitly
    for at most ``history_length + _SATURATION_STEPS`` events and its
    tail is closed in one step.  This holds for any predictor whose
    decision depends only on the history key and per-key monotone
    saturating state — both :class:`OraclePredictor` (stateless) and
    :class:`HistoryPredictor` qualify.
    """
    ev = PredictorEvaluation()
    segments = ev.segments
    history: deque = deque(maxlen=history_length)
    explicit_cap = history_length + _SATURATION_STEPS

    def emit(pid: int, invoke: bool, n: int) -> None:
        if segments and segments[-1][0] == pid and segments[-1][1] == invoke:
            segments[-1] = (pid, invoke, segments[-1][2] + n)
        else:
            segments.append((pid, invoke, n))

    for pid, length in runs:
        offloadable = pid in target_paths
        explicit = min(length, explicit_cap)
        for _ in range(explicit):
            key = tuple(history)
            invoke = predictor.predict(key, pid)
            ev.count(invoke, offloadable)
            emit(pid, invoke, 1)
            predictor.update(key, offloadable)
            history.append(pid)
        tail = length - explicit
        if tail > 0:
            # history is pinned at (pid,)*history_length and the counter
            # is saturated: decision constant, updates no-ops
            invoke = predictor.predict(tuple(history), pid)
            ev.count(invoke, offloadable, tail)
            emit(pid, invoke, tail)
    return ev

"""The interpreter against the reference evaluator.

Random functions from the rich :class:`RandomFunctionBuilder` and every
suite workload run on both.  They must agree on the result, or on the
exception type and message; on each recorded trace (blocks by name,
memory events, invocations); on the instruction count; and on the final
memory.  The hypothesis test takes its example count from the active
profile, so ``--hypothesis-profile fuzz`` runs it ten times longer.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.interp import Interpreter
from repro.workloads import all_names, get as get_workload
from tests.interp.reference_eval import ReferenceEvaluator
from tests.strategies import (
    RandomFunctionBuilder,
    rich_values_strategy,
    shapes_strategy,
)

DEFAULT_FUEL = 50_000_000

i32 = st.integers(-(2 ** 31), 2 ** 31 - 1)


def _canon(value):
    """``value`` with NaNs made equal to each other."""
    if isinstance(value, float) and math.isnan(value):
        return "nan"
    if isinstance(value, tuple):
        return tuple(_canon(v) for v in value)
    return value


def observe(evaluator, fn, runs):
    """Everything a run of ``fn`` over ``runs`` leaves behind."""
    outcomes = []
    for args in runs:
        try:
            outcomes.append(("ok", _canon(evaluator.run(fn, list(args)))))
        except Exception as exc:
            outcomes.append((type(exc), str(exc)))
            break
    trace = evaluator.traces[fn]
    return {
        "outcomes": outcomes,
        "blocks": [b.name if b is not None else None for b in trace.blocks],
        "memory": trace.memory,
        "invocations": trace.invocations,
        "executed_instructions": evaluator.executed_instructions,
        "cells": {a: _canon(c) for a, c in evaluator.memory.snapshot().items()},
    }


def assert_matches_reference(module, fn, runs, fuel=DEFAULT_FUEL):
    production = observe(Interpreter(module, record=[fn], fuel=fuel), fn, runs)
    reference = observe(ReferenceEvaluator(module, record=[fn], fuel=fuel), fn, runs)
    assert production == reference


@pytest.mark.fuzz
@settings(deadline=None)
@given(
    shapes=shapes_strategy,
    values=rich_values_strategy,
    runs=st.lists(st.tuples(i32, i32), min_size=1, max_size=2),
    fuel=st.one_of(st.integers(0, 80), st.just(DEFAULT_FUEL)),
)
def test_interpreter_matches_reference_on_random_functions(shapes, values, runs, fuel):
    m, fn = RandomFunctionBuilder(shapes, values, rich=True).build()
    assert_matches_reference(m, fn, runs, fuel)


@pytest.mark.parametrize("name", all_names())
def test_interpreter_matches_reference_on_suite_workload(name):
    m, fn, args = get_workload(name).build()
    assert_matches_reference(m, fn, [args])

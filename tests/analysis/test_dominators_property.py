"""Property test: the CHK dominator tree matches brute-force dominance.

Brute-force definition: ``a`` dominates ``b`` iff removing ``a`` from the
CFG makes ``b`` unreachable from the entry.  We check the iterative
algorithm against it over randomly generated structured functions.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.analysis import CFG, DominatorTree, PostDominatorTree
from tests.strategies import RandomFunctionBuilder


def _brute_force_dominates(cfg: CFG, a, b) -> bool:
    if a is b:
        return True
    # reachability from entry avoiding `a`
    seen = set()
    stack = [cfg.entry]
    while stack:
        node = stack.pop()
        if node is a or node in seen:
            continue
        seen.add(node)
        stack.extend(cfg.succs(node))
    return b not in seen


shapes = st.lists(st.integers(0, 3), min_size=1, max_size=18)
values = st.lists(st.integers(0, 99), min_size=1, max_size=18)


@settings(max_examples=30, deadline=None)
@given(shapes=shapes, values=values)
def test_dominator_tree_matches_brute_force(shapes, values):
    _, fn = RandomFunctionBuilder(shapes, values).build()
    cfg = CFG(fn)
    dom = DominatorTree.compute(cfg)
    blocks = cfg.blocks
    for a in blocks:
        for b in blocks:
            assert dom.dominates(a, b) == _brute_force_dominates(cfg, a, b), (
                "%s dominates %s mismatch" % (a.name, b.name)
            )


@settings(max_examples=30, deadline=None)
@given(shapes=shapes, values=values)
def test_idom_is_unique_strict_dominator_closest(shapes, values):
    """idom(b) strictly dominates b and every other strict dominator of b
    dominates idom(b)."""
    _, fn = RandomFunctionBuilder(shapes, values).build()
    cfg = CFG(fn)
    dom = DominatorTree.compute(cfg)
    for b in cfg.blocks:
        idom = dom.immediate_dominator(b)
        if idom is None:
            assert b is cfg.entry
            continue
        assert dom.strictly_dominates(idom, b)
        for a in cfg.blocks:
            if a is not b and a is not idom and dom.strictly_dominates(a, b):
                assert dom.dominates(a, idom)


@settings(max_examples=20, deadline=None)
@given(shapes=shapes, values=values)
def test_post_dominance_duality(shapes, values):
    """Every block is post-dominated by itself, and the unique exit block
    post-dominates every block in single-exit functions."""
    _, fn = RandomFunctionBuilder(shapes, values).build()
    cfg = CFG(fn)
    pdom = PostDominatorTree.compute(cfg)
    exits = cfg.exits()
    for b in cfg.blocks:
        assert pdom.post_dominates(b, b)
    if len(exits) == 1:
        for b in cfg.blocks:
            assert pdom.post_dominates(exits[0], b)

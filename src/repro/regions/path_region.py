"""BL-path offload regions (paper §III).

A BL-path region is the literal block sequence of one profiled Ball–Larus
path: single entry, single exit, single flow of control.  Any divergence
from the path at runtime triggers a guard failure and rollback to the host.
"""

from __future__ import annotations

from ..profiling.ranking import RankedPath
from .region import Region


def path_to_region(fn, ranked_path: RankedPath) -> Region:
    """Wrap a ranked BL-path into an offload :class:`Region`."""
    blocks = list(ranked_path.blocks)
    return Region(
        kind="bl-path",
        function=fn,
        blocks=blocks,
        entry=blocks[0],
        exit=blocks[-1],
        coverage=ranked_path.coverage,
        source_paths=[ranked_path.path_id],
        frequency=ranked_path.freq,
    )

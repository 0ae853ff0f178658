"""Byte-addressed scalar memory for the IR interpreter.

Storage is a map ``address -> (size_bytes, value)``.  Workloads access each
address with a consistent scalar type, which the memory enforces: partially
overlapping accesses of different sizes raise :class:`MemoryError_`, turning
workload bugs into loud failures instead of silent corruption.

The memory supports snapshot/compare, which the undo-log property tests use
to prove that rollback restores externally visible state exactly.
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional, Tuple

from ..ir.types import Type


class MemoryError_(Exception):
    """Invalid memory access (unmapped read, mismatched access size...)."""


class Memory:
    """A flat address space with a bump allocator.

    Address 0 is never mapped, so 0 serves as a null pointer.
    """

    #: default base of the allocation arena
    ARENA_BASE = 0x1000

    def __init__(self):
        self._cells: Dict[int, Tuple[int, object]] = {}
        self._brk = self.ARENA_BASE

    # -- allocation -----------------------------------------------------------

    def alloc(self, size_bytes: int, align: int = 8) -> int:
        """Reserve ``size_bytes`` and return the base address."""
        if size_bytes < 0:
            raise MemoryError_("negative allocation")
        base = (self._brk + align - 1) // align * align
        self._brk = base + max(1, size_bytes)
        return base

    # -- scalar access ----------------------------------------------------------

    def write(self, addr: int, type_: Type, value) -> None:
        if addr <= 0:
            raise MemoryError_("store to null/negative address %#x" % addr)
        size = type_.size_bytes
        existing = self._cells.get(addr)
        if existing is not None and existing[0] != size:
            raise MemoryError_(
                "store size mismatch at %#x: %d vs %d bytes"
                % (addr, size, existing[0])
            )
        self._cells[addr] = (size, type_.wrap(value))

    def read(self, addr: int, type_: Type):
        if addr <= 0:
            raise MemoryError_("load from null/negative address %#x" % addr)
        cell = self._cells.get(addr)
        if cell is None:
            # Reading never-written memory yields zero (zero-initialised
            # globals / BSS semantics), matching what the workloads expect.
            return type_.wrap(0)
        size, value = cell
        if size != type_.size_bytes:
            raise MemoryError_(
                "load size mismatch at %#x: %d vs %d bytes"
                % (addr, type_.size_bytes, size)
            )
        return type_.wrap(value)

    def read_raw(self, addr: int) -> Optional[Tuple[int, object]]:
        """Raw cell contents (size, value), or None if unmapped."""
        return self._cells.get(addr)

    def write_raw(self, addr: int, size: int, value) -> None:
        self._cells[addr] = (size, value)

    def erase(self, addr: int) -> None:
        self._cells.pop(addr, None)

    # -- bulk helpers -----------------------------------------------------------

    def write_array(self, base: int, elem_type: Type, values) -> None:
        """:meth:`write` of consecutive elements from ``base``, in one loop
        with the element size and wrap looked up once."""
        size = elem_type.size_bytes
        wrap = elem_type.wrap
        cells = self._cells
        addr = base
        for v in values:
            existing = cells.get(addr)
            if addr <= 0 or (existing is not None and existing[0] != size):
                self.write(addr, elem_type, v)  # raises write's error
            cells[addr] = (size, wrap(v))
            addr += size

    def read_array(self, base: int, elem_type: Type, count: int) -> list:
        step = elem_type.size_bytes
        return [self.read(base + i * step, elem_type) for i in range(count)]

    # -- snapshots ----------------------------------------------------------------

    def snapshot(self) -> Dict[int, Tuple[int, object]]:
        return dict(self._cells)

    def diff(self, other_snapshot: Dict[int, Tuple[int, object]]) -> Dict[int, tuple]:
        """Addresses whose contents differ from ``other_snapshot``."""
        out = {}
        keys = set(self._cells) | set(other_snapshot)
        for addr in keys:
            a = self._cells.get(addr)
            b = other_snapshot.get(addr)
            if a != b:
                out[addr] = (b, a)
        return out

    def __iter__(self) -> Iterator[int]:
        return iter(self._cells)

    def __len__(self) -> int:
        return len(self._cells)

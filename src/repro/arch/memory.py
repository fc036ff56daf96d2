"""Simulated shared address space and MTA-style address hashing.

Both machine models and both cycle engines operate on *word addresses*
inside a single simulated shared address space.  :class:`AddressSpace`
hands out non-overlapping base addresses for named arrays so that an
instrumented algorithm (or a generator thread program) can translate
"element ``i`` of array ``rank``" into a concrete address with plain
integer arithmetic.

The MTA-2 hashes logical addresses across physical memory banks so that
strided access patterns cannot create bank hotspots — the paper notes
this is why Ordered and Random lists perform identically on the MTA.
:func:`hash_address` reproduces that behaviour with a Fibonacci
multiplicative hash (invertible, cheap, and uniform enough that
consecutive logical addresses land on unrelated banks).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigurationError

__all__ = [
    "AddressSpace",
    "Allocation",
    "hash_address",
    "bank_of",
]

#: 64-bit Fibonacci hashing constant (2**64 / golden ratio, odd).
_FIB64 = 0x9E3779B97F4A7C15
_MASK64 = (1 << 64) - 1


@dataclass(frozen=True)
class Allocation:
    """A named, contiguous region of the simulated address space."""

    name: str
    base: int
    length: int

    def addr(self, index):
        """Word address of element ``index`` (scalar or NumPy array).

        Bounds are checked for scalars; array indexing is used on hot
        paths and validated once by the caller instead.  An in-range
        plain ``int`` (the engine programs' case) returns before the
        generic scalar test; an out-of-range one falls through to it.
        """
        if type(index) is int and 0 <= index < self.length:
            return self.base + index
        if np.isscalar(index):
            if not 0 <= index < self.length:
                raise IndexError(
                    f"index {index} out of bounds for allocation {self.name!r}"
                    f" of length {self.length}"
                )
            return self.base + int(index)
        return self.base + np.asarray(index, dtype=np.int64)

    @property
    def end(self) -> int:
        return self.base + self.length


class AddressSpace:
    """Bump allocator for named arrays in a simulated shared memory.

    Allocations are aligned to ``align`` words (default: one 64-word
    page-ish unit keeps distinct arrays from sharing cache lines, which
    would create false conflicts the real machines would not see).
    """

    def __init__(self, align: int = 64) -> None:
        if align < 1:
            raise ConfigurationError("alignment must be >= 1 word")
        self._align = align
        self._next = 0
        self._allocs: dict[str, Allocation] = {}

    def alloc(self, name: str, length: int) -> Allocation:
        """Reserve ``length`` words under ``name`` and return the allocation."""
        if length < 0:
            raise ConfigurationError(f"negative allocation length for {name!r}")
        if name in self._allocs:
            raise ConfigurationError(f"allocation {name!r} already exists")
        base = -(-self._next // self._align) * self._align
        alloc = Allocation(name, base, length)
        self._allocs[name] = alloc
        self._next = base + length
        return alloc

    def __getitem__(self, name: str) -> Allocation:
        return self._allocs[name]

    def __contains__(self, name: str) -> bool:
        return name in self._allocs

    def allocations(self) -> list[Allocation]:
        """All allocations, in allocation order (for bounds auditing)."""
        return list(self._allocs.values())

    @property
    def size(self) -> int:
        """Total words spanned by all allocations (address-space high-water mark)."""
        return self._next


def hash_address(word_addr):
    """MTA logical→physical address hash (vectorized).

    Multiplicative Fibonacci hash over 64 bits.  Bijective on the 64-bit
    address space (the multiplier is odd), so distinct logical words
    always map to distinct physical words, exactly like real address
    scrambling hardware.
    """
    if np.isscalar(word_addr):
        return (int(word_addr) * _FIB64) & _MASK64
    a = np.asarray(word_addr).astype(np.uint64)
    return (a * np.uint64(_FIB64)) & np.uint64(_MASK64)


def bank_of(word_addr, n_banks: int):
    """Physical memory bank serving ``word_addr`` after hashing.

    ``n_banks`` should be a power of two; the top bits of the hashed
    address are used so that the multiplicative hash's best-mixed bits
    select the bank.
    """
    if n_banks < 1 or (n_banks & (n_banks - 1)) != 0:
        raise ConfigurationError(f"n_banks must be a power of two, got {n_banks}")
    hashed = hash_address(word_addr)
    shift = 64 - int(n_banks).bit_length() + 1
    if np.isscalar(hashed):
        return hashed >> shift
    return (hashed >> np.uint64(shift)).astype(np.int64)

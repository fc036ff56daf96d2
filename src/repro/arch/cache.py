"""Cache models for the SMP machine.

The Sun E4500 studied in the paper pairs each 400 MHz UltraSPARC II with
a 16 KB direct-mapped on-chip L1 data cache and a 4 MB external L2.  The
ordered-vs-random list-ranking gap in Fig. 1 (right) is entirely a cache
phenomenon, so the reproduction computes hit/miss behaviour from the
algorithms' *actual* address streams instead of asserting it.

Three pieces are provided:

* :class:`Cache` — a straightforward set-associative LRU cache advanced
  one access at a time.  Exact, easy to audit, used as the reference
  implementation in tests, and the warm state of any hierarchy level
  whose associativity is above 1.
* :func:`simulate_direct_mapped` — a fully vectorized simulation of a
  direct-mapped cache over a whole address stream at once.  For a
  direct-mapped cache, an access hits iff the *most recent previous
  access that mapped to the same set* was to the same line, which can be
  computed with one stable argsort — O(m log m) NumPy work for a stream
  of m addresses, no Python loop.
* :class:`CacheHierarchy` — composes L1 and L2: the L2 sees exactly the
  L1 miss stream, in program order.  Each level has one warm state: a
  flat tag store when direct-mapped, otherwise a :class:`Cache`.  The
  SMP cycle engine's per-word :meth:`CacheHierarchy.access` and the
  analytic model's per-stream :meth:`CacheHierarchy.simulate_stream`
  both read and write that state.

Addresses everywhere are *word* addresses (64-bit words); ``line_words``
converts to cache-line granularity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import CheckpointError, ConfigurationError

__all__ = [
    "CacheConfig",
    "CacheStats",
    "Cache",
    "CacheHierarchy",
    "simulate_direct_mapped",
    "hierarchy_stats",
]


def _is_pow2(x: int) -> bool:
    return x > 0 and (x & (x - 1)) == 0


@dataclass(frozen=True)
class CacheConfig:
    """Geometry of one cache level.

    Parameters
    ----------
    size_words:
        Total capacity in 64-bit words (16 KB L1 = 2048 words).
    line_words:
        Line size in words (32-byte UltraSPARC II L1 line = 4 words).
    associativity:
        1 for direct-mapped.  The E4500's L1 and external L2 are both
        direct-mapped, which is what lets the fast vectorized simulation
        cover the whole hierarchy.
    """

    size_words: int
    line_words: int
    associativity: int = 1

    def __post_init__(self) -> None:
        if not _is_pow2(self.size_words):
            raise ConfigurationError(f"cache size must be a power of two, got {self.size_words}")
        if not _is_pow2(self.line_words):
            raise ConfigurationError(f"line size must be a power of two, got {self.line_words}")
        if self.line_words > self.size_words:
            raise ConfigurationError("line size exceeds cache size")
        if self.associativity < 1:
            raise ConfigurationError("associativity must be >= 1")
        if self.n_lines % self.associativity != 0:
            raise ConfigurationError("associativity must divide the number of lines")

    @property
    def n_lines(self) -> int:
        return self.size_words // self.line_words

    @property
    def n_sets(self) -> int:
        return self.n_lines // self.associativity

    @property
    def line_shift(self) -> int:
        return int(self.line_words).bit_length() - 1


@dataclass
class CacheStats:
    """Hit/miss counts for one cache level over one access stream."""

    accesses: int = 0
    hits: int = 0

    @property
    def misses(self) -> int:
        return self.accesses - self.hits

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 1.0

    def __iadd__(self, other: "CacheStats") -> "CacheStats":
        self.accesses += other.accesses
        self.hits += other.hits
        return self


class Cache:
    """Set-associative LRU cache advanced one access at a time.

    This is the *reference* model: exact LRU replacement, arbitrary
    associativity.  It is deliberately simple (a list of line tags per
    set, most-recently-used last) so its behaviour is obvious; the
    vectorized path and the hierarchy's direct-mapped tag store are
    validated against it in the test suite.  It is also the warm state
    of any :class:`CacheHierarchy` level with associativity > 1.
    """

    def __init__(self, config: CacheConfig) -> None:
        self.config = config
        self._shift = config.line_shift
        self._n_sets = config.n_sets
        self._ways = config.associativity
        self._sets: list[list[int]] = [[] for _ in range(self._n_sets)]
        self.stats = CacheStats()

    def access(self, word_addr: int) -> bool:
        """Access one word; return ``True`` on hit.  Misses allocate."""
        line = word_addr >> self._shift
        ways = self._sets[line % self._n_sets]
        self.stats.accesses += 1
        if line in ways:
            ways.remove(line)
            ways.append(line)
            self.stats.hits += 1
            return True
        ways.append(line)
        if len(ways) > self._ways:
            ways.pop(0)
        return False

    def access_stream(self, word_addrs: np.ndarray) -> np.ndarray:
        """Access a whole stream; return a boolean hit mask in program order."""
        hits = np.empty(len(word_addrs), dtype=bool)
        for i, a in enumerate(np.asarray(word_addrs, dtype=np.int64)):
            hits[i] = self.access(int(a))
        return hits

    def flush(self) -> None:
        """Invalidate all lines (statistics are preserved)."""
        self._sets = [[] for _ in range(self._n_sets)]


def simulate_direct_mapped(config: CacheConfig, word_addrs: np.ndarray) -> np.ndarray:
    """Vectorized exact simulation of a direct-mapped cache.

    Parameters
    ----------
    config:
        Cache geometry; ``associativity`` must be 1.
    word_addrs:
        int64 array of word addresses in program order.  The cache is
        assumed cold at the start of the stream.

    Returns
    -------
    numpy.ndarray
        Boolean hit mask aligned with ``word_addrs``.

    Notes
    -----
    In a direct-mapped cache each set holds exactly one line, so access
    *i* hits iff the latest earlier access to the same set used the same
    line.  Stable-sorting access indices by set groups each set's
    accesses in program order; comparing each access's line with its
    predecessor within the group answers the hit question for every
    access simultaneously.
    """
    if config.associativity != 1:
        raise ConfigurationError("simulate_direct_mapped requires associativity 1")
    addrs = np.asarray(word_addrs, dtype=np.int64)
    m = len(addrs)
    if m == 0:
        return np.zeros(0, dtype=bool)
    lines = addrs >> config.line_shift
    sets = lines % config.n_sets
    order = np.argsort(sets, kind="stable")
    sorted_sets = sets[order]
    sorted_lines = lines[order]
    same_set = np.empty(m, dtype=bool)
    same_set[0] = False
    same_set[1:] = sorted_sets[1:] == sorted_sets[:-1]
    same_line = np.empty(m, dtype=bool)
    same_line[0] = False
    same_line[1:] = sorted_lines[1:] == sorted_lines[:-1]
    hit_sorted = same_set & same_line
    hits = np.empty(m, dtype=bool)
    hits[order] = hit_sorted
    return hits


def _simulate_direct_mapped_warm(
    config: CacheConfig, resident: np.ndarray, word_addrs: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized direct-mapped simulation starting from a warm state.

    ``resident[s]`` is the line currently held by set ``s``, or ``~s``
    when empty (see :func:`_empty_tags`).  The warm start is expressed by *priming*: one synthetic
    access per occupied set precedes the real stream, then the cold
    simulator runs and the priming results are discarded.  Returns the
    hit mask for the real stream and the updated resident array (the
    last line each set saw, recovered from the same stable sort).
    """
    addrs = np.asarray(word_addrs, dtype=np.int64)
    occupied = np.flatnonzero((resident & (config.n_sets - 1)) == np.arange(len(resident)))
    prime = resident[occupied] << config.line_shift
    stream = np.concatenate([prime, addrs])
    hits = simulate_direct_mapped(config, stream)[len(prime):]

    lines = stream >> config.line_shift
    sets = lines % config.n_sets
    order = np.argsort(sets, kind="stable")
    new_resident = resident.copy()
    if len(stream):
        sorted_sets = sets[order]
        last = np.ones(len(stream), dtype=bool)
        last[:-1] = sorted_sets[:-1] != sorted_sets[1:]
        new_resident[sorted_sets[last]] = lines[order][last]
    return hits, new_resident


class CacheHierarchy:
    """An L1 + L2 hierarchy fed by word addresses.

    The L2 observes exactly the stream of L1 misses, in program order —
    the inclusion policy the E4500 used.

    Each level keeps **one** warm state, which both entry points read
    and write:

    * a direct-mapped level (associativity 1, the E4500's L1 and L2) is
      a flat tag store, ``tags[line & (n_sets - 1)] == line`` on a hit
      (:func:`_empty_tags` gives the marker of an empty set);
    * any other level is a reference LRU :class:`Cache`.

    :meth:`access` advances one word at a time (the SMP cycle engine's
    loads and stores); :meth:`simulate_stream` runs a whole address
    stream at once (trace-mode steps of the analytic SMP model), through
    :func:`_simulate_direct_mapped_warm` on a direct-mapped level.  The
    hierarchy is *stateful*: each call sees the lines earlier calls of
    either kind left behind, so a multi-step algorithm's later steps
    benefit from the data its earlier steps touched, as on the real
    machine.  Use a fresh instance (or :meth:`flush`) for cold-start
    measurements.
    """

    def __init__(self, l1: CacheConfig, l2: CacheConfig) -> None:
        self.l1 = l1
        self.l2 = l2
        self.l1_stats = CacheStats()
        self.l2_stats = CacheStats()
        # geometry hoisted out of the per-access path
        self._l1_shift = l1.line_shift
        self._l1_mask = l1.n_sets - 1
        self._l2_shift = l2.line_shift
        self._l2_mask = l2.n_sets - 1
        # the warm state: a tag list (direct-mapped) or an LRU Cache
        self._l1_tags, self._l1_lru = _level_state(l1)
        self._l2_tags, self._l2_lru = _level_state(l2)

    # -- vectorized path (warm, stateful) -------------------------------------

    def simulate_stream(self, word_addrs: np.ndarray) -> tuple[CacheStats, CacheStats]:
        """Run ``word_addrs`` through both levels, starting from current state.

        Returns per-level :class:`CacheStats` for *this stream only* and
        also accumulates them onto :attr:`l1_stats` / :attr:`l2_stats`.
        """
        addrs = np.asarray(word_addrs, dtype=np.int64)
        l1_hits = _stream_level(self.l1, self._l1_tags, self._l1_lru, addrs)
        l1_miss_stream = addrs[~l1_hits]
        l2_hits = _stream_level(self.l2, self._l2_tags, self._l2_lru, l1_miss_stream)
        s1 = CacheStats(accesses=len(addrs), hits=int(l1_hits.sum()))
        s2 = CacheStats(accesses=len(l1_miss_stream), hits=int(l2_hits.sum()))
        self.l1_stats += s1
        self.l2_stats += s2
        return s1, s2

    # -- incremental path (used by the SMP cycle engine) ---------------------

    def access(self, word_addr: int) -> str:
        """Access one word through the warm state of both levels.

        Returns the level that served it: ``"l1"``, ``"l2"`` or ``"mem"``.
        Misses allocate in every level they reach.
        """
        stats = self.l1_stats
        stats.accesses += 1
        tags = self._l1_tags
        if tags is not None:
            line = word_addr >> self._l1_shift
            i = line & self._l1_mask
            if tags[i] == line:
                stats.hits += 1
                return "l1"
            tags[i] = line
        elif self._l1_lru.access(word_addr):
            stats.hits += 1
            return "l1"
        stats = self.l2_stats
        stats.accesses += 1
        tags = self._l2_tags
        if tags is not None:
            line = word_addr >> self._l2_shift
            i = line & self._l2_mask
            if tags[i] == line:
                stats.hits += 1
                return "l2"
            tags[i] = line
        elif self._l2_lru.access(word_addr):
            stats.hits += 1
            return "l2"
        return "mem"

    def flush(self) -> None:
        """Invalidate both levels (cold caches; statistics preserved)."""
        for tags, lru in ((self._l1_tags, self._l1_lru), (self._l2_tags, self._l2_lru)):
            if tags is None:
                lru.flush()
            else:
                tags[:] = _empty_tags(len(tags))

    # -- serializable-state contract (checkpoint/restore) ---------------------

    STATE_VERSION = 2

    def to_state(self) -> dict:
        """Full warm state of both levels, picklable and geometry-tagged.

        Per level, ``tags`` holds a direct-mapped level's tag store and
        ``sets`` an LRU level's ways (most recent last); the other is
        ``None``.
        """
        return {
            "version": CacheHierarchy.STATE_VERSION,
            "l1": (self.l1.size_words, self.l1.line_words, self.l1.associativity),
            "l2": (self.l2.size_words, self.l2.line_words, self.l2.associativity),
            "l1_stats": (self.l1_stats.accesses, self.l1_stats.hits),
            "l2_stats": (self.l2_stats.accesses, self.l2_stats.hits),
            "l1_tags": _copy_tags(self._l1_tags),
            "l2_tags": _copy_tags(self._l2_tags),
            "l1_sets": _copy_sets(self._l1_lru),
            "l2_sets": _copy_sets(self._l2_lru),
        }

    @classmethod
    def from_state(cls, state: dict) -> "CacheHierarchy":
        """Rebuild a hierarchy from :meth:`to_state` output."""
        if state.get("version") != cls.STATE_VERSION:
            raise CheckpointError(
                f"cache state version {state.get('version')!r} != {cls.STATE_VERSION}"
            )
        h = cls(CacheConfig(*state["l1"]), CacheConfig(*state["l2"]))
        h.l1_stats = CacheStats(*state["l1_stats"])
        h.l2_stats = CacheStats(*state["l2_stats"])
        _load_level(h._l1_tags, h._l1_lru, state["l1_tags"], state["l1_sets"])
        _load_level(h._l2_tags, h._l2_lru, state["l2_tags"], state["l2_sets"])
        return h


def _empty_tags(n_sets: int) -> list[int]:
    """Tag store of an empty direct-mapped level: set ``i`` holds ``~i``.

    A line ``L`` lives in set ``L & mask``, and ``~i & mask == mask ^ i``
    differs from ``i`` whenever ``mask`` is nonzero, so no line of any
    sign can match an empty set's marker.
    """
    return list(range(-1, -n_sets - 1, -1))


def _level_state(config: CacheConfig) -> tuple[list[int] | None, Cache | None]:
    """``(tags, lru)`` for one level: exactly one of them is not ``None``.

    A one-set cache has no marker that no line can match (``mask`` is 0),
    so it keeps the LRU state even when direct-mapped.
    """
    if config.associativity == 1 and config.n_sets > 1:
        return _empty_tags(config.n_sets), None
    return None, Cache(config)


def _stream_level(
    config: CacheConfig, tags: list[int] | None, lru: Cache | None, addrs: np.ndarray
) -> np.ndarray:
    """Hit mask of ``addrs`` on one level, advancing its warm state."""
    if tags is None:
        return lru.access_stream(addrs)
    hits, resident = _simulate_direct_mapped_warm(
        config, np.array(tags, dtype=np.int64), addrs
    )
    tags[:] = resident.tolist()
    return hits


def _copy_tags(tags: list[int] | None) -> list[int] | None:
    return None if tags is None else list(tags)


def _copy_sets(lru: Cache | None) -> list[list[int]] | None:
    return None if lru is None else [list(ways) for ways in lru._sets]


def _load_level(tags, lru, saved_tags, saved_sets) -> None:
    if tags is None:
        if saved_sets is None or len(saved_sets) != len(lru._sets):
            raise CheckpointError("cache state sets do not match the LRU geometry")
        lru._sets = [list(ways) for ways in saved_sets]
    else:
        if saved_tags is None or len(saved_tags) != len(tags):
            raise CheckpointError("cache state tags do not match the direct-mapped geometry")
        tags[:] = saved_tags


def hierarchy_stats(
    l1: CacheConfig, l2: CacheConfig, word_addrs: np.ndarray
) -> tuple[CacheStats, CacheStats]:
    """Convenience one-shot: cold L1+L2 statistics for an address stream."""
    return CacheHierarchy(l1, l2).simulate_stream(word_addrs)

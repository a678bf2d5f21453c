"""Sorted column tries over interned posting rows (the WCOJ index side).

A :class:`Trie` is the sorted-array encoding of a relation trie: the rows of
one predicate's posting window, filtered by the atom's constant/equality
constraints, projected to the atom's distinct-variable columns, *permuted*
into the global variable-order and sorted lexicographically.  Because the
rows are sorted, every trie node is a contiguous range ``[lo, hi)`` of the
array: the children of a node (the distinct values of the next column under
a fixed prefix) are found with :func:`bisect.bisect_left` seeks, which is
exactly the ``seek``/``next`` interface Leapfrog Triejoin needs — no
per-node objects, no hash maps, just one flat list of small-int tuples.

Tries are built lazily per ``(predicate, column permutation, filter, window
low stamp)`` and cached on the :class:`~repro.engine.indexes.AtomIndex` (the
:attr:`AtomIndex.trie_cache` slot, the exact analogue of the compiled-plan
cache in :attr:`AtomIndex.plan_cache`).  Validation mirrors the plan cache:

* an index **rebuild** (atom removal) bumps :attr:`AtomIndex.rebuilds` and
  drops every cached trie — posting rows were replaced wholesale;
* **growth** extends: a cached trie built up to watermark ``w`` serves a
  request up to ``w' > w`` by merging in only the rows stamped ``[w, w')``
  (posting lists are append-only, so the increment is exactly a stamp
  window).  The extension builds a **new** row list and re-keys the entry —
  the old list is never mutated, so a suspended generator that captured it
  keeps iterating its own frozen snapshot, the same discipline the
  append-only posting lists give the nested executor;
* a request for a *narrower* snapshot than cached (an old watermark after
  the structure grew) is answered by an uncached fresh build — correct and
  rare, never worth displacing the growing entry.

Replica indexes (:meth:`AtomIndex.apply_shared`) need no special handling:
applied syncs advance the watermark (the growth path) and mirrored rebuild
counters invalidate (the rebuild path), so a worker's tries survive
steady-state syncs and drop cleanly on reset syncs.
"""

from __future__ import annotations

import weakref
from typing import TYPE_CHECKING, Dict, List, Tuple

from ...obs.trace import get_tracer as _get_tracer

if TYPE_CHECKING:  # type-only: keeps repro.query importable before repro.engine
    from ...engine.indexes import AtomIndex

#: A trie's identity apart from its stamp window: the interned predicate ID,
#: the projection/permutation positions (argument positions in global
#: variable-order), the constant filter and the within-atom equality filter.
TrieSpec = Tuple[
    int,
    Tuple[int, ...],
    Tuple[Tuple[int, int], ...],
    Tuple[Tuple[int, int], ...],
]

#: The whole cache is dropped when it grows past this many entries — tries
#: are cheap to rebuild and the limit only exists to bound pathological
#: callers that sweep through unbounded window families.
TRIE_CACHE_LIMIT = 512


class Trie:
    """One sorted, filtered, permuted projection of a posting window."""

    __slots__ = ("rows", "ncols", "built_lo", "built_hi")

    def __init__(
        self, rows: List[Tuple[int, ...]], ncols: int, built_lo: int, built_hi: int
    ) -> None:
        #: Sorted distinct rows; callers must treat the list as frozen.
        self.rows = rows
        self.ncols = ncols
        self.built_lo = built_lo
        self.built_hi = built_hi


def _project(
    posting,
    start: int,
    stop: int,
    perm: Tuple[int, ...],
    consts: Tuple[Tuple[int, int], ...],
    eqs: Tuple[Tuple[int, int], ...],
) -> List[Tuple[int, ...]]:
    """Filtered, permuted projection of the posting window (unsorted).

    Walks the posting's flat ``array('q')``/``memoryview`` columns directly
    by offset — the filters and the permutation are resolved to column
    objects once, so the per-row work is plain flat fetches with no tuple
    materialisation until a row survives.  Projection is injective on the
    filtered rows — constant positions carry a fixed value and equality
    positions repeat a projected one, so the full row is determined by its
    projection and distinct rows stay distinct — except in the zero-column
    case (a fully ground atom), which the caller collapses to at most one
    empty row.
    """
    cols = posting.cols
    const_cols = tuple((cols[position], vid) for position, vid in consts)
    eq_cols = tuple((cols[position], cols[earlier]) for position, earlier in eqs)
    perm_cols = tuple(cols[position] for position in perm)
    out: List[Tuple[int, ...]] = []
    for offset in range(start, stop):
        ok = True
        for column, vid in const_cols:
            if column[offset] != vid:
                ok = False
                break
        if ok:
            for column, earlier in eq_cols:
                if column[offset] != earlier[offset]:
                    ok = False
                    break
        if ok:
            out.append(tuple(column[offset] for column in perm_cols))
    return out


class TrieCache:
    """Sorted tries of one index, keyed by :data:`TrieSpec` and window start.

    Counters (:attr:`builds`, :attr:`extensions`, :attr:`hits`,
    :attr:`invalidations`) are the observation hooks of the cache-behaviour
    tests, mirroring :class:`~repro.query.compile.PlanCache`.
    """

    __slots__ = ("_index", "entries", "rebuilds", "builds", "extensions", "hits",
                 "invalidations")

    def __init__(self, index: "AtomIndex") -> None:
        # Weak, like the plan cache's: the index owns this cache.
        self._index = weakref.ref(index)
        self.entries: Dict[Tuple[TrieSpec, int], Trie] = {}
        self.rebuilds = index.rebuilds
        self.builds = 0
        self.extensions = 0
        self.hits = 0
        self.invalidations = 0

    @property
    def index(self) -> "AtomIndex":
        return self._index()

    # ------------------------------------------------------------------
    def get(self, spec: TrieSpec, lo: int, hi: int) -> Trie:
        """The trie of *spec* over the stamp window ``[lo, hi)``."""
        # One global read per trie lookup (per step per evaluation, never
        # per row); events mirror the counters onto the trace timeline.
        tracer = _get_tracer()
        if self.index.rebuilds != self.rebuilds:
            self.entries.clear()
            self.rebuilds = self.index.rebuilds
            self.invalidations += 1
            if tracer is not None:
                tracer.event("trie.invalidate", rebuilds=self.rebuilds)
        key = (spec, lo)
        entry = self.entries.get(key)
        if entry is not None:
            if entry.built_hi == hi:
                self.hits += 1
                return entry
            if entry.built_hi < hi:
                extended = self._extend(spec, entry, hi)
                self.entries[key] = extended
                self.extensions += 1
                if tracer is not None:
                    tracer.event(
                        "trie.extend",
                        pred_id=spec[0],
                        rows=len(extended.rows),
                        hi=hi,
                    )
                return extended
            # hi < built_hi: an older snapshot than the cached one — build
            # fresh without displacing the (still growing) cached entry.
            self.builds += 1
            trie = self._build(spec, lo, hi)
            if tracer is not None:
                tracer.event(
                    "trie.build", pred_id=spec[0], rows=len(trie.rows), cached=False
                )
            return trie
        if len(self.entries) >= TRIE_CACHE_LIMIT:
            self.entries.clear()
        trie = self._build(spec, lo, hi)
        self.entries[key] = trie
        self.builds += 1
        if tracer is not None:
            tracer.event(
                "trie.build", pred_id=spec[0], rows=len(trie.rows), cached=True
            )
        return trie

    # ------------------------------------------------------------------
    def _build(self, spec: TrieSpec, lo: int, hi: int) -> Trie:
        pred_id, perm, consts, eqs = spec
        posting = self.index.posting(pred_id)
        if posting is None:
            return Trie([], len(perm), lo, hi)
        start, stop = posting.bounds(lo, hi)
        rows = _project(posting, start, stop, perm, consts, eqs)
        if not perm:
            # Ground atom: membership only — collapse to one empty row.
            return Trie([()] if rows else [], 0, lo, hi)
        rows.sort()
        return Trie(rows, len(perm), lo, hi)

    def _extend(self, spec: TrieSpec, entry: Trie, hi: int) -> Trie:
        pred_id, perm, consts, eqs = spec
        posting = self.index.posting(pred_id)
        fresh: List[Tuple[int, ...]] = []
        if posting is not None:
            start, stop = posting.bounds(entry.built_hi, hi)
            fresh = _project(posting, start, stop, perm, consts, eqs)
        if not perm:
            rows = [()] if (entry.rows or fresh) else []
            return Trie(rows, 0, entry.built_lo, hi)
        if not fresh:
            return Trie(entry.rows, entry.ncols, entry.built_lo, hi)
        # A new list on purpose: the old one may back a suspended generator.
        merged = list(entry.rows)
        merged.extend(fresh)
        merged.sort()  # two sorted runs — Timsort merges them near-linearly
        return Trie(merged, entry.ncols, entry.built_lo, hi)


def trie_cache_for(index: "AtomIndex") -> TrieCache:
    """The trie cache of *index*, created on first use."""
    cache = index.trie_cache
    if cache is None:
        cache = index.trie_cache = TrieCache(index)
    return cache

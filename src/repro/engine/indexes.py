"""Incremental argument-position indexes over a :class:`Structure`.

The reference chase re-discovers candidate atoms through
``Structure.atoms_with_predicate``, which materialises a fresh frozenset on
every call and gives no way to ask the two questions a delta-driven engine
needs constantly:

* "which atoms with predicate ``P`` have value ``v`` at position ``j``?"
  (candidate lookup during body matching), and
* "which atoms with predicate ``P`` existed *before* stage ``i`` started?"
  (the paper's discipline that body matches range over ``chase_i`` while the
  structure keeps growing).

:class:`AtomIndex` answers both in O(log n) without ever copying the
structure.  It attaches to a structure as a
:class:`~repro.core.structure.StructureListener`, stamps every atom with a
monotonically increasing sequence number, and keeps append-only posting
lists per predicate and per ``(predicate, position, value)``.  Because the
lists are append-only and stamps increase, "the structure as it was when the
stage started" is simply a *prefix* of every posting list, located by
binary search on the stamp — the semi-naive engine therefore needs no
``Structure.copy`` per stage at all.

Since the compiled query runtime landed, the index stores **interned facts**:
every term and predicate is mapped to a dense integer ID by the per-index
:class:`~repro.query.interning.Interner`, and the
``(predicate, position, value)`` posting lists hold plain row offsets into
the predicate list instead of duplicating atom object references.  Posting
storage itself is **columnar**: each predicate posting list keeps one flat
``array('q')`` per argument position plus a stamp column (fixed arity per
predicate, enforced by the schema layer), so the compiled executor
(:mod:`repro.query.compile`) walks contiguous int columns by offset instead
of chasing per-row tuples, and the same columns can be re-bound onto
``multiprocessing.shared_memory`` views on replica indexes (zero-copy
attach; see :mod:`repro.engine.shm` and :meth:`AtomIndex.apply_shared`).
The columns are the index's only copy of the facts: the object-level API
below (``atoms``, ``atoms_with_value``) decodes rows through the interner on
demand, the same way on engine-owned indexes and replicas, for the tests and
the reference-oracle comparisons.
"""

from __future__ import annotations

import weakref
from array import array
from bisect import bisect_left
from typing import Dict, Iterable, Iterator, Optional, Sequence, Tuple

from ..core.atoms import Atom
from ..core.structure import Structure, StructureListener
from ..query.interning import Interner


class _Stamped:
    """Shared stamp-window arithmetic of the posting structures.

    Entries are appended in ascending sequence-stamp order, so any
    ``[lo, hi)`` stamp window is a contiguous slice located by binary
    search on :attr:`stamps`.  Subclasses carry the actual payload
    columns, kept parallel to ``stamps`` — a flat ``array('q')`` locally,
    or a ``memoryview`` slice of a shared-memory segment on replicas
    (both index, ``len`` and bisect identically).
    """

    __slots__ = ("stamps",)

    def __init__(self) -> None:
        self.stamps: Sequence[int] = array("q")

    def cut(self, before: Optional[int]) -> int:
        """Index of the first entry with stamp ≥ *before* (len when None)."""
        if before is None:
            return len(self.stamps)
        return bisect_left(self.stamps, before)

    def bounds(self, lo: Optional[int], hi: Optional[int]) -> Tuple[int, int]:
        """``(start, stop)`` offsets of the window ``lo ≤ stamp < hi``."""
        start = 0 if lo is None else bisect_left(self.stamps, lo)
        return start, self.cut(hi)

    def count_before(self, before: Optional[int]) -> int:
        return self.cut(before)


class _PostingList(_Stamped):
    """Append-only atoms of one predicate, stored as flat int columns.

    ``stamps`` and ``cols[j]`` (one per argument position; arity is fixed
    at first append) are parallel ``array('q')`` columns — entry ``i`` of
    every column describes the same fact.  The columns are the only copy
    of the facts: the compiled executors walk them by offset, and the
    object-level API of :class:`AtomIndex` decodes a row through the
    interner when it needs an atom.  On shared-memory replicas
    :meth:`bind_shared` re-points the columns at ``memoryview`` slices of
    an attached segment, sliced to the valid logical length so
    ``len``/``bisect`` keep working unchanged.
    """

    __slots__ = ("cols", "_arity")

    def __init__(self) -> None:
        super().__init__()
        self.cols: Tuple[Sequence[int], ...] = ()
        self._arity = -1

    # -- shape ----------------------------------------------------------
    @property
    def length(self) -> int:
        """Number of valid entries (the logical row count)."""
        return len(self.stamps)

    @property
    def arity(self) -> int:
        return self._arity

    # -- engine-side append --------------------------------------------
    def append(self, stamp: int, row: Tuple[int, ...]) -> None:
        if self._arity != len(row):
            if self._arity >= 0:
                raise ValueError(
                    f"posting arity changed: {self._arity} -> {len(row)}"
                )
            self._arity = len(row)
            self.cols = tuple(array("q") for _ in row)
        self.stamps.append(stamp)
        for column, vid in zip(self.cols, row):
            column.append(vid)

    # -- shared-memory re-binding (replica side) -----------------------
    def bind_shared(self, view, capacity: int, arity: int, length: int) -> None:
        """Re-point the columns at a segment's ``'q'`` view.

        ``view`` holds ``1 + arity`` regions of *capacity* elements each
        (stamps first); only the ``[0, length)`` prefix of every region is
        valid, so the bound columns are sliced to exactly that — the rest
        of the API needs no shared/local distinction.  Called again after
        every sync (longer length, possibly a different segment after a
        grow); offsets are stable under both.
        """
        self.stamps = view[0:length]
        self.cols = tuple(
            view[(1 + position) * capacity : (1 + position) * capacity + length]
            for position in range(arity)
        )
        self._arity = arity

    # -- row access -----------------------------------------------------
    def row(self, offset: int) -> Tuple[int, ...]:
        """The interned argument row at *offset* (tuple view of the columns)."""
        return tuple(column[offset] for column in self.cols)


class _RowRefs(_Stamped):
    """Row offsets (into a predicate posting list) sharing one position value.

    Each entry costs two machine ints in flat ``array('q')`` columns — the
    compact ``(predicate, position, value)`` side of the interned fact
    encoding.
    """

    __slots__ = ("offsets",)

    def __init__(self) -> None:
        super().__init__()
        self.offsets = array("q")

    def append(self, offset: int, stamp: int) -> None:
        self.offsets.append(offset)
        self.stamps.append(stamp)


class AtomIndex(StructureListener):
    """Per-(predicate, position, value) index, maintained incrementally.

    The index registers itself as a listener on the structure it is attached
    to, so every ``add_atom`` — including the ones performed by
    :func:`~repro.chase.trigger.apply_trigger` while a stage is firing — is
    reflected immediately.  Atom *removal* invalidates the append-only
    invariant; it is extremely rare in chase workloads, so the index simply
    rebuilds itself when it happens (bumping :attr:`rebuilds`, which the
    compiled-plan cache watches).  Stamps stay monotone across rebuilds:
    previously-taken watermarks then denote an empty prefix (everything
    looks new), which over-approximates delta windows rather than silently
    dropping atoms from them.  The symbol tables of :attr:`interner` are
    append-only and survive rebuilds, so interned IDs embedded in compiled
    query plans never dangle.
    """

    def __init__(self, structure: Optional[Structure] = None) -> None:
        self._seq = 0
        self._interner = Interner()
        self._by_predicate: Dict[int, _PostingList] = {}
        self._by_position: Dict[Tuple[int, int, int], _RowRefs] = {}
        self._structure_ref: Optional["weakref.ref[Structure]"] = None
        #: Number of full rebuilds (atom removals) this index has performed.
        self.rebuilds = 0
        #: Compiled-plan cache slot, lazily populated by
        #: :func:`repro.query.compile.plan_cache_for`.  Opaque to the engine.
        self.plan_cache = None
        #: Sorted-trie cache slot of the worst-case-optimal executor, lazily
        #: populated by :func:`repro.query.wcoj.trie_cache_for`.  Validated
        #: against :attr:`rebuilds` and extended along the stamp watermark,
        #: so it survives incremental growth and replica shm syncs and
        #: drops cleanly on rebuilds.  Opaque to the engine.
        self.trie_cache = None
        if structure is not None:
            self.attach(structure)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def structure(self) -> Optional[Structure]:
        """The structure this index currently follows (``None`` when detached).

        Held weakly: the structure keeps its index alive through its listener
        list, so a strong reference back would make every index cyclic
        garbage that only the collector frees.  This way an index goes with
        its structure by reference counting.
        """
        ref = self._structure_ref
        return None if ref is None else ref()

    @property
    def interner(self) -> Interner:
        """The symbol tables mapping this structure's terms/predicates to IDs."""
        return self._interner

    def attach(self, structure: Structure) -> None:
        """Bulk-load *structure* and follow its future mutations."""
        if self._structure_ref is not None:
            self.detach()
        self._structure_ref = weakref.ref(structure)
        self._reload()
        structure.add_listener(self)

    def detach(self) -> None:
        """Stop following the structure (the index keeps its last state)."""
        structure = self.structure
        if structure is not None:
            structure.remove_listener(self)
        self._structure_ref = None

    def _reload(self) -> None:
        # The sequence counter is deliberately NOT reset: stamps stay
        # monotone across rebuilds, so a watermark taken before a rebuild
        # still means "strictly earlier than everything now in the index".
        # After a rebuild every atom therefore looks newer than any old
        # watermark — delta windows over-approximate (matches may be
        # re-discovered and deduplicated) instead of silently missing atoms.
        # The interner is NOT reset either: IDs are append-only forever.
        self._by_predicate = {}
        self._by_position = {}
        structure = self.structure
        if structure is not None:
            # The canonical (repr-sorted) snapshot makes posting-list order —
            # hence trigger enumeration — independent of set iteration order
            # (and therefore of PYTHONHASHSEED); the structure caches it per
            # generation, so attach-after-chase and export paths share one
            # sort.
            for atom in structure.canonical_atoms():
                self._insert(atom)

    # ------------------------------------------------------------------
    # StructureListener protocol
    # ------------------------------------------------------------------
    def atom_added(self, atom: Atom) -> None:
        self._insert(atom)

    def atom_removed(self, atom: Atom) -> None:
        self.rebuilds += 1
        self._reload()
        # Rebuilds are rare (atom removal only), so this is one of the few
        # always-checked trace sites outside the engine's per-stage spans.
        from ..obs.trace import get_tracer

        tracer = get_tracer()
        if tracer is not None:
            tracer.event(
                "index.rebuild", rebuilds=self.rebuilds, watermark=self._seq
            )

    def _insert(self, atom: Atom) -> None:
        stamp = self._seq
        self._seq += 1
        pid, row = self._interner.encode_atom(atom)
        posting = self._by_predicate.get(pid)
        if posting is None:
            posting = self._by_predicate[pid] = _PostingList()
        offset = posting.length
        posting.append(stamp, row)
        by_position = self._by_position
        for position, vid in enumerate(row):
            key = (pid, position, vid)
            slot = by_position.get(key)
            if slot is None:
                slot = by_position[key] = _RowRefs()
            slot.append(offset, stamp)

    # ------------------------------------------------------------------
    # Replica synchronisation (repro.engine.parallel)
    # ------------------------------------------------------------------
    def apply_shared(self, sync, cache) -> None:
        """Re-bind this (detached, replica) index onto shared-memory columns.

        *sync* is a :class:`~repro.engine.shm.ShmSync` control message and
        *cache* a worker-held :class:`~repro.engine.shm.SegmentCache`.  The
        replica ends up with identical stamps, posting-list offsets and
        interned IDs as the engine's index, which is what makes candidate
        rows discovered here decodable engine-side.  Instead of
        replaying fact rows, each posting list's columns are re-pointed at
        ``memoryview`` slices of the segments named by the sync's
        directory — only the ``(predicate, position, value)`` offset refs
        (which have no shared mirror) are extended here, by scanning the
        freshly valid offsets of each posting.  Scanning per predicate in
        ascending offset order reproduces exactly the per-key ref order of
        serial ``_insert`` calls, which is what keeps replica matching
        bit-identical to the source.
        """
        if self._structure_ref is not None:
            raise ValueError("only a detached index can attach shared segments")
        if sync.reset:
            self._by_predicate = {}
            self._by_position = {}
            # Mirror the source's rebuild count so generation-keyed caches
            # (compiled plans, tries, executor preambles) drop state that
            # references the discarded bindings.
            self.rebuilds = sync.rebuilds
        self._interner.install_terms(sync.terms, sync.term_base)
        self._interner.install_predicates(sync.predicates, sync.predicate_base)
        by_position = self._by_position
        live_names = set()
        for entry in sync.directory:
            live_names.add(entry.name)
            view = cache.view(entry.name)
            posting = self._by_predicate.get(entry.pid)
            if posting is None:
                posting = self._by_predicate[entry.pid] = _PostingList()
            known = posting.length
            posting.bind_shared(view, entry.capacity, entry.arity, entry.length)
            stamps, cols = posting.stamps, posting.cols
            for offset in range(known, entry.length):
                stamp = stamps[offset]
                for position in range(entry.arity):
                    key = (entry.pid, position, cols[position][offset])
                    slot = by_position.get(key)
                    if slot is None:
                        slot = by_position[key] = _RowRefs()
                    slot.append(offset, stamp)
        cache.release_except(live_names)
        self._seq = sync.watermark

    # ------------------------------------------------------------------
    # Encoded access (the compiled executor's surface)
    # ------------------------------------------------------------------
    def predicate_id(self, predicate: str) -> Optional[int]:
        """The interned ID of *predicate* (``None`` when never seen)."""
        return self._interner.predicate_id(predicate)

    def posting(self, pid: Optional[int]) -> Optional[_PostingList]:
        """The posting list of interned predicate *pid* (``None`` when empty)."""
        if pid is None:
            return None
        return self._by_predicate.get(pid)

    def refs(self, pid: int, position: int, vid: int) -> Optional[_RowRefs]:
        """Row offsets of ``pid`` atoms with value ID *vid* at *position*."""
        return self._by_position.get((pid, position, vid))

    def tables(
        self,
    ) -> Tuple[Dict[int, _PostingList], Dict[Tuple[int, int, int], _RowRefs]]:
        """The raw ``(by-predicate, by-position)`` tables, for executors.

        The compiled executors probe these dicts millions of times per
        evaluation; handing them out once per run avoids a method dispatch
        per search node.  Callers must treat them as read-only and must not
        hold them across an index rebuild.
        """
        return self._by_predicate, self._by_position

    def generation(self) -> Tuple[int, int]:
        """``(rebuilds, watermark)`` — changes iff the indexed content did."""
        return (self.rebuilds, self._seq)

    def stats(self) -> Dict[str, int]:
        """Read-at-report-time shape of the index (for :mod:`repro.obs`).

        Everything here is already maintained for other reasons — the
        telemetry layer reads it once per run instead of counting inserts.
        """
        return {
            "watermark": self._seq,
            "rebuilds": self.rebuilds,
            "predicates": self._interner.predicate_count(),
            "terms": self._interner.term_count(),
            "posting_lists": len(self._by_predicate),
            "position_keys": len(self._by_position),
            "atoms_indexed": sum(
                len(posting.stamps) for posting in self._by_predicate.values()
            ),
        }

    # ------------------------------------------------------------------
    # Object-level queries (engine, tests)
    # ------------------------------------------------------------------
    def watermark(self) -> int:
        """The next sequence stamp; atoms added later stamp ≥ this value."""
        return self._seq

    def atoms(
        self,
        predicate: str,
        lo: Optional[int] = None,
        hi: Optional[int] = None,
    ) -> Iterator[Atom]:
        """Atoms with *predicate* whose stamp is in ``[lo, hi)``."""
        pid = self._interner.predicate_id(predicate)
        posting = self.posting(pid)
        if posting is None:
            return iter(())
        start, stop = posting.bounds(lo, hi)
        return self._decode(pid, posting, range(start, stop))

    def atoms_with_value(
        self,
        predicate: str,
        position: int,
        value: object,
        hi: Optional[int] = None,
    ) -> Iterator[Atom]:
        """Atoms with *predicate* carrying *value* at *position* (stamp < hi)."""
        pid = self._interner.predicate_id(predicate)
        vid = self._interner.term_id(value)
        if pid is None or vid is None:
            return iter(())
        slot = self._by_position.get((pid, position, vid))
        if slot is None:
            return iter(())
        offsets = slot.offsets[: slot.cut(hi)]
        return self._decode(pid, self._by_predicate[pid], offsets)

    def _decode(
        self, pid: int, posting: _PostingList, offsets: Iterable[int]
    ) -> Iterator[Atom]:
        """The atoms at *offsets* of *posting*, decoded through the interner.

        This is the one decode path: engine-owned indexes and shared-memory
        replicas hold the same int columns, so both decode the same way.
        """
        decode_atom = self._interner.decode_atom
        return (decode_atom(pid, posting.row(offset)) for offset in offsets)

    def count(self, predicate: str, hi: Optional[int] = None) -> int:
        """Number of *predicate* atoms with stamp < *hi*."""
        posting = self.posting(self._interner.predicate_id(predicate))
        return 0 if posting is None else posting.count_before(hi)

    def count_with_value(
        self, predicate: str, position: int, value: object, hi: Optional[int] = None
    ) -> int:
        """Number of atoms with *value* at *position* (stamp < *hi*)."""
        pid = self._interner.predicate_id(predicate)
        vid = self._interner.term_id(value)
        if pid is None or vid is None:
            return 0
        slot = self._by_position.get((pid, position, vid))
        return 0 if slot is None else slot.count_before(hi)

"""Evaluation contexts: one listener-maintained index per structure.

Before this layer existed, every query-shaped call — CQ evaluation,
containment, certificate checks, trigger satisfaction — built a fresh
:class:`~repro.core.homomorphism.HomomorphismProblem` that re-materialised
per-predicate candidate tuples from scratch.  An :class:`EvalContext` owns an
:class:`~repro.engine.indexes.AtomIndex` per :class:`~repro.core.structure.
Structure` instead: the first query against a structure builds the index
once, the index registers itself as a structure listener, and every later
query (and every mutation in between) reuses it incrementally.

The context is also the hand-off point between the chase engine and the
query layer: :meth:`EvalContext.adopt` lets
:class:`~repro.engine.seminaive.SemiNaiveChaseEngine` donate the index it
maintained during a run, so the post-chase certificate / containment checks
on the chased structure start from a warm index instead of rebuilding one
(see the ``indexes_built`` / ``indexes_reused`` counters, which the tests
use to prove no rebuild happens).

Lifetime: the context only keeps a *weak* reference to each index.  The
structure itself keeps its index alive through its listener list, and the
index (like its plan and trie caches) points back only weakly, so an index
lives exactly as long as the structure it mirrors and is freed with it by
reference counting; the context entry is purged lazily.

Thread safety: a context may be shared by concurrent request threads (the
service layer of :mod:`repro.service` runs one context per session under a
threaded HTTP server), so every mutation of the registry happens under one
per-context lock.  Without it, two racing :meth:`index_for` calls could each
build — and attach as a structure listener — its own index for the same
structure, and :meth:`_remember`'s purge loop could mutate ``_entries``
while another thread iterates it.  Index *builds* happen inside the lock on
purpose: an index registers itself as a structure listener as a side effect
of construction, so the loser of an unlocked race would leak a listener
that keeps shadow-indexing the structure forever.
"""

from __future__ import annotations

import threading
import weakref
from typing import TYPE_CHECKING, Dict, Optional

from ..core.structure import Structure

if TYPE_CHECKING:  # imported lazily at runtime to keep the layering acyclic
    from ..engine.indexes import AtomIndex

#: Purge dead weak references whenever the table grows past this many entries
#: beyond the last purge (keeps the registry O(live structures)).
_PURGE_INTERVAL = 256


class EvalContext:
    """A registry of per-structure :class:`AtomIndex` instances.

    Entries are keyed by structure *identity* (not equality: structures are
    mutable, so content-based hashing would corrupt the table as they grow).
    """

    def __init__(self) -> None:
        self._entries: Dict[int, "weakref.ref[AtomIndex]"] = {}
        self._inserts_since_purge = 0
        # Guards _entries, the purge counter and the build-or-reuse decision
        # of index_for (see the module docs).  Reentrant because adopt() may
        # be reached from call stacks that already hold it via index_for.
        self._lock = threading.RLock()
        #: Number of indexes this context built itself.
        self.indexes_built = 0
        #: Number of lookups answered by an already-registered index.
        self.indexes_reused = 0
        #: Number of indexes donated by a chase engine via :meth:`adopt`.
        self.indexes_adopted = 0
        #: Number of query shapes compiled from scratch through this context
        #: (see :mod:`repro.query.compile`; the caches themselves live on the
        #: per-structure indexes and die with them).
        self.plans_compiled = 0
        #: Number of evaluations served by a cached compiled plan.
        self.plans_reused = 0

    # ------------------------------------------------------------------
    def index_for(self, structure: Structure) -> "AtomIndex":
        """The index following *structure*, building (and caching) it once.

        Safe under concurrent callers: the build-or-reuse decision is made
        under the context lock, so exactly one index is ever attached to a
        structure through this context no matter how many threads race here.
        """
        with self._lock:
            existing = self._lookup(structure)
            if existing is not None:
                self.indexes_reused += 1
                return existing
            from ..engine.indexes import AtomIndex

            index = AtomIndex(structure)
            self.indexes_built += 1
            self._remember(structure, index)
            return index

    def adopt(self, structure: Structure, index: AtomIndex) -> None:
        """Register an already-attached *index* for *structure*.

        Called by the semi-naive chase engine at the end of a run so the
        chased structure's index survives into the query layer.  The index
        must currently be following *structure*.
        """
        if index.structure is not structure:
            raise ValueError("adopted index does not follow the given structure")
        with self._lock:
            self.indexes_adopted += 1
            self._remember(structure, index)

    def peek(self, structure: Structure) -> Optional[AtomIndex]:
        """The registered index for *structure*, or ``None`` (never builds)."""
        with self._lock:
            return self._lookup(structure)

    def forget(self, structure: Structure) -> None:
        """Detach and drop the index for *structure* (no-op when absent)."""
        with self._lock:
            index = self._lookup(structure)
            self._entries.pop(id(structure), None)
        if index is not None:
            index.detach()

    def __len__(self) -> int:
        with self._lock:
            return sum(1 for ref in self._entries.values() if ref() is not None)

    def stats(self) -> Dict[str, int]:
        """The context's counters as one JSON-ready dict (:mod:`repro.obs`).

        Everything here is maintained anyway for the cache-behaviour tests;
        the telemetry layer reads it at report time instead of double
        counting, the same read-don't-count discipline as
        :meth:`AtomIndex.stats`.
        """
        return {
            "live_indexes": len(self),
            "indexes_built": self.indexes_built,
            "indexes_reused": self.indexes_reused,
            "indexes_adopted": self.indexes_adopted,
            "plans_compiled": self.plans_compiled,
            "plans_reused": self.plans_reused,
        }

    # ------------------------------------------------------------------
    def _lookup(self, structure: Structure) -> Optional[AtomIndex]:
        ref = self._entries.get(id(structure))
        if ref is None:
            return None
        index = ref()
        # ``id`` values are recycled after garbage collection, so an entry
        # only counts when its index still follows this exact structure.
        if index is None or index.structure is not structure:
            return None
        return index

    def _remember(self, structure: Structure, index: AtomIndex) -> None:
        # Callers hold self._lock: the purge loop below both iterates and
        # mutates _entries, which must never interleave with another writer.
        self._entries[id(structure)] = weakref.ref(index)
        self._inserts_since_purge += 1
        if self._inserts_since_purge >= _PURGE_INTERVAL:
            self._inserts_since_purge = 0
            dead = [key for key, ref in self._entries.items() if ref() is None]
            for key in dead:
                del self._entries[key]


#: The process-wide default context.  The functional API of
#: :mod:`repro.query.evaluator` and the chase engine's index hand-off both
#: use it unless the caller supplies an explicit context.
shared_context = EvalContext()


def get_context(context: Optional[EvalContext] = None) -> EvalContext:
    """*context* itself, or the shared default when ``None``."""
    return context if context is not None else shared_context

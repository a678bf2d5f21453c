"""Worst-case-optimal generic-join execution (Leapfrog Triejoin-style).

The third executor of the compiled query runtime, for the bodies where the
ROADMAP's item (j) bites: cyclic conjunctive queries (triangles, cliques,
the denser spider/green-graph patterns) on which **any** binary join order —
nested probing and hash joins alike — can materialise intermediate results
asymptotically larger than the output.  Generic join (Veldhuizen's LFTJ,
Ngo–Porat–Ré–Rudra) instead resolves one variable at a time by multiway
intersection and its running time is bounded by the AGM fractional-cover
bound of the body.

Three modules:

* :mod:`~repro.query.wcoj.trie` — sorted column tries over the interned
  posting rows of :class:`~repro.engine.indexes.AtomIndex`, built lazily
  per ``(predicate, column permutation, filter)``, cached on the index and
  validated/extended against rebuild counters and stamp watermarks exactly
  like the compiled-plan and hash-table caches;
* :mod:`~repro.query.wcoj.order` — deterministic most-constrained-first
  global variable-order planning over the variable–atom incidence graph,
  honouring the pre-bound slots of the compiled register program;
* :mod:`~repro.query.wcoj.executor` — :func:`execute_wcoj`, bisect-based
  leapfrog seek/next over the trie columns, with the same register
  protocol, ``fix``/frozen/rigid semantics, laziness and delta seed-window
  surface as the nested and hash executors.

No caller selects it by name: :func:`repro.query.compile.choose_executor`
picks it for cyclic bodies over large enough posting lists, on the query
path and in the chase engine's delta discovery alike.
"""

from .executor import execute_wcoj
from .order import WcojPlan, build_wcoj_plan
from .trie import Trie, TrieCache, trie_cache_for

__all__ = [
    "Trie",
    "TrieCache",
    "WcojPlan",
    "build_wcoj_plan",
    "execute_wcoj",
    "trie_cache_for",
]

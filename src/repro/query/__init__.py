"""Unified index-backed query evaluation (the query-side engine room).

Every query-shaped hot path of the library — CQ evaluation ``Q(D)``,
containment witnesses, determinacy certificate checks, TGD satisfaction,
spider-query matching, the Lemma-25 cross-validation — used to spin up a
fresh backtracking :class:`~repro.core.homomorphism.HomomorphismProblem`
that re-materialised per-predicate candidate tuples on every call.  This
package replaces that with a *planned* evaluator over the same
:class:`~repro.engine.indexes.AtomIndex` posting lists that power the
semi-naive chase engine:

* :mod:`~repro.query.context` — :class:`EvalContext`: one listener-maintained
  index per structure, built on first use and shared with the chase engine
  (a structure chased by :class:`~repro.engine.seminaive.SemiNaiveChaseEngine`
  arrives with its index already warm — no rebuild for the post-chase
  certificate / containment check);
* :mod:`~repro.query.interning` / :mod:`~repro.query.compile` — the
  compiled runtime: terms and predicates interned to dense int IDs, query
  bodies compiled once into register programs (cached per index, validated
  against the structure's generation counter) and executed by lazy
  index-probe nested loops, by a build–probe hash join, or by the
  worst-case-optimal generic join (picked per compiled shape by
  :func:`~repro.query.compile.choose_executor`, the one selection policy);
* :mod:`~repro.query.wcoj` — the worst-case-optimal executor: sorted column
  tries cached on the index, deterministic variable-order planning, and
  bisect-based leapfrog intersection — the executor of choice for cyclic
  bodies (triangles, cliques, dense spider patterns) where any binary join
  order can blow up intermediate results;
* :mod:`~repro.query.evaluator` — the decode layer plus a functional API
  that is a drop-in, differential-tested replacement for
  :mod:`repro.core.homomorphism` — including ``find_isomorphism`` /
  ``are_isomorphic`` / ``is_homomorphism`` (``tests/test_query_eval.py``
  proves the solution sets identical on random CQs — cyclic ones included —
  random structures and the spider corpus, under both executors; the
  reference search remains the authoritative oracle).

Layering: this package sits between :mod:`repro.core` and everything else.
It imports only ``repro.core`` and ``repro.engine.indexes``; the chase layer
calls into it through function-level imports, so no import cycles arise.
"""

from .compile import (
    CompiledQuery,
    PlanCache,
    choose_executor,
    compile_query,
    compiled_for,
    execute,
    execute_hash,
    execute_nested,
    is_cyclic,
    plan_cache_for,
)
from .wcoj import Trie, TrieCache, WcojPlan, build_wcoj_plan, execute_wcoj, trie_cache_for
from .context import EvalContext, get_context, shared_context
from .evaluator import (
    all_homomorphisms,
    are_isomorphic,
    evaluate,
    exists_homomorphism,
    exists_match,
    find_homomorphism,
    find_isomorphism,
    is_homomorphism,
    iter_homomorphisms,
    iter_matches,
    query_holds,
    query_homomorphisms,
)
from .interning import Interner

__all__ = [
    "CompiledQuery",
    "EvalContext",
    "Interner",
    "PlanCache",
    "Trie",
    "TrieCache",
    "WcojPlan",
    "all_homomorphisms",
    "are_isomorphic",
    "build_wcoj_plan",
    "choose_executor",
    "compile_query",
    "compiled_for",
    "evaluate",
    "execute",
    "execute_hash",
    "execute_nested",
    "execute_wcoj",
    "exists_homomorphism",
    "exists_match",
    "find_homomorphism",
    "find_isomorphism",
    "get_context",
    "is_cyclic",
    "is_homomorphism",
    "iter_homomorphisms",
    "iter_matches",
    "plan_cache_for",
    "query_holds",
    "query_homomorphisms",
    "shared_context",
    "trie_cache_for",
]

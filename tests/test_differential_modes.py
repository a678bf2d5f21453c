"""Bit-identity differential harness across every execution mode.

The paper's chase constructions depend on canonical trigger order (stage
numbers, null names and provenance are all part of downstream proofs), so
determinism is a correctness property here, not a nicety.  This harness
generates seeded random TGD sets and initial structures and pins every
execution mode against each other:

* the reference chase (``repro.chase``) — the authoritative semantics,
* the serial compiled semi-naive engine (``repro.engine``),
* the parallel engine (``workers=2`` and ``workers=4``) — discovery fanned
  out over processes, merged back into canonical order — and its serial
  fallback after a shared-memory failure,

for the lazy strategy (where the reference engine defines the expected
bits) and for the oblivious / semi-oblivious strategies (where the serial
semi-naive engine is the oracle — the reference engine is always lazy).

"Bit-identical" means: same final atoms *and domains* (null names
included), same stage snapshots, same fixpoint flag, and the same fact
sequence / trigger order as recorded by provenance.  Randomisation is
``random.Random(seed)``-driven so every failure reproduces exactly.
"""

import random

import pytest

from repro.chase import chase
from repro.chase.tgd import TGD
from repro.core.atoms import Atom
from repro.core.structure import Structure
from repro.core.terms import Constant, Variable
from repro.engine import run_chase

from chase_bits import assert_bit_identical

MAX_STAGES = 3
MAX_ATOMS = 120

_SEEDS = list(range(10))
_STRATEGIES = ("lazy", "oblivious", "semi-oblivious")


def random_case(seed):
    """A reproducible random (rules, instance) pair.

    Bodies of 1–3 atoms over shared variables, heads that mix frontier
    variables, existentials and the occasional rigid constant; instances of
    4–14 facts over a small element pool (dense enough that rules actually
    fire and stages cascade).
    """
    rng = random.Random(seed)
    predicates = [f"P{i}" for i in range(rng.randint(2, 4))]
    arity = {p: rng.randint(1, 3) for p in predicates}
    constant = Constant("c")

    def atom(pool):
        predicate = rng.choice(predicates)
        return Atom(predicate, tuple(rng.choice(pool) for _ in range(arity[predicate])))

    body_pool = [Variable(n) for n in ("x", "y", "z")]
    rules = []
    for i in range(rng.randint(1, 4)):
        body = [atom(body_pool) for _ in range(rng.randint(1, 3))]
        body_vars = sorted(
            {v for a in body for v in a.variables()}, key=lambda v: v.name
        )
        head_pool = body_vars + [Variable("w"), Variable("u"), constant]
        head = [atom(head_pool) for _ in range(rng.randint(1, 2))]
        rules.append(TGD(f"t{i}", body, head))
    elements = [str(e) for e in range(rng.randint(3, 6))] + [constant]
    facts = set()
    for _ in range(rng.randint(4, 14)):
        predicate = rng.choice(predicates)
        facts.add(
            Atom(predicate, tuple(rng.choice(elements) for _ in range(arity[predicate])))
        )
    return rules, Structure(sorted(facts, key=repr))


def assert_no_faults(parallel, label):
    """A parallel run must not pass by degrading: the supervisor finishes a
    faulted run serially (bit-identical), which would hide a pool bug."""
    faults = parallel.stats.faults  # empty when the run had no pool
    assert faults.get("detected", 0) == faults.get("degraded", 0) == 0, (
        label, faults,
    )


@pytest.mark.parametrize("seed", _SEEDS)
def test_lazy_modes_are_bit_identical_to_reference(seed):
    rules, instance = random_case(seed)
    reference = chase(rules, instance, MAX_STAGES, MAX_ATOMS)
    serial = run_chase(rules, instance, MAX_STAGES, MAX_ATOMS)
    assert_bit_identical(reference, serial, f"serial seed={seed}")
    for workers in (2, 4):
        parallel = run_chase(
            rules, instance, MAX_STAGES, MAX_ATOMS, workers=workers
        )
        label = f"workers={workers} seed={seed}"
        assert_bit_identical(reference, parallel, label)
        assert_no_faults(parallel, label)


@pytest.mark.parametrize("seed", _SEEDS)
@pytest.mark.parametrize("strategy", ("oblivious", "semi-oblivious"))
def test_eager_strategies_parallel_matches_serial(seed, strategy):
    # The eager disciplines fire strictly more triggers (and more stages),
    # stressing the dedup-key machinery the merge must preserve; the serial
    # semi-naive engine is the oracle here (the reference chase is lazy).
    rules, instance = random_case(seed)
    serial = run_chase(
        rules, instance, MAX_STAGES, MAX_ATOMS, strategy=strategy
    )
    workers = 2 if seed % 2 else 4
    parallel = run_chase(
        rules, instance, MAX_STAGES, MAX_ATOMS, strategy=strategy, workers=workers
    )
    label = f"strategy={strategy} workers={workers} seed={seed}"
    assert_bit_identical(serial, parallel, label)
    assert_no_faults(parallel, label)


@pytest.mark.parametrize("seed", _SEEDS[:4])
def test_shm_failure_serial_fallback_is_bit_identical(seed, monkeypatch):
    # When shared memory gives out mid-run (at stage 1 or, where the run
    # has one, stage 2), the pool closes and the supervisor finishes the
    # run with serial discovery: the fallback must produce the same bits as
    # the serial engine.
    from repro.engine.shm import SHM_AVAILABLE, SharedColumnStore

    if not SHM_AVAILABLE:
        pytest.skip("multiprocessing.shared_memory unavailable")
    rules, instance = random_case(seed)
    serial = run_chase(rules, instance, MAX_STAGES, MAX_ATOMS)
    sync = SharedColumnStore.sync
    fail_at = min(1 + seed % 2, len(serial.stats.stages))
    calls = []

    def failing_sync(store, index):
        calls.append(index)
        if len(calls) >= fail_at:
            raise OSError(28, "No space left on device")
        return sync(store, index)

    monkeypatch.setattr(SharedColumnStore, "sync", failing_sync)
    fallback = run_chase(rules, instance, MAX_STAGES, MAX_ATOMS, workers=2)
    assert_bit_identical(serial, fallback, f"shm failure seed={seed}")
    assert len(calls) == fail_at
    assert fallback.stats.faults["degraded"] == 1


def test_harness_actually_exercises_firings():
    # Guard against the random generator degenerating into vacuous cases:
    # across the seed set, a healthy majority of cases must fire triggers
    # and a few must cascade past stage 1.
    fired = 0
    cascaded = 0
    for seed in _SEEDS:
        rules, instance = random_case(seed)
        result = run_chase(rules, instance, MAX_STAGES, MAX_ATOMS)
        fired += bool(result.provenance)
        cascaded += result.stages_run >= 2
    assert fired >= len(_SEEDS) // 2
    assert cascaded >= 2

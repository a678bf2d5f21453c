"""Fault-tolerance differential suite (repro.engine.resilience + faults).

The contract under test: a supervised parallel chase subjected to any fault
class — worker crash, hang, shm attach failure, truncated sync, generation
mismatch — at deterministic seeded coordinates completes **bit-identical**
to the serial run, with the faulted stage and the rest of the run finished
serially, zero live children and zero leaked ``/dev/shm`` segments.  The
fault ledger on ``ChaseRunStats.faults`` must reconcile exactly with the
``parallel.fault.*`` / ``parallel.degrade`` trace events.

The seeded-schedule sweep honours ``REPRO_CHAOS_SEEDS`` (comma-separated
ints) so CI's chaos-smoke step can widen the sweep without code changes.
"""

import glob
import multiprocessing
import os
import subprocess
import sys
import textwrap
import time

import pytest

import repro.obs as obs
from repro.chase import ChaseBudgetExceeded, parse_tgds
from repro.core.builders import structure_from_text
from repro.engine import SemiNaiveChaseEngine, run_chase
from repro.engine.shm import SHM_AVAILABLE
from repro.obs import summarize_trace
from repro.testing import faults as faults_module
from repro.testing.faults import (
    FAULT_KINDS,
    Fault,
    FaultPlan,
    clear_fault_plan,
    install_fault_plan,
    random_fault_plan,
    tamper_payload,
)

from chase_bits import assert_bit_identical

TGDS = parse_tgds(
    "R(x,y), R(y,z) -> S(x,z)",
    "S(x,y), R(y,z) -> S(x,z)",
)

#: A chain long enough to run several stages (fault coordinates at stage
#: 2 always exist) but short enough for a sub-second serial run.
INSTANCE_TEXT = ", ".join(f"R({i},{i + 1})" for i in range(12))

#: A stage deadline short enough to catch injected hangs quickly.
DEADLINE = 5.0

#: One fault, found and answered: the run finished serially.
ONE_FAULT = {"injected": 1, "detected": 1, "degraded": 1}
NO_FAULT = {"injected": 0, "detected": 0, "degraded": 0}

#: Faults land in pool workers, and a pool needs shared memory: without it
#: ``workers=2`` runs serial discovery, so no fault is injected and no
#: segment signal handler is installed.
shm_only = pytest.mark.skipif(
    not SHM_AVAILABLE, reason="multiprocessing.shared_memory unavailable"
)


@pytest.fixture(autouse=True)
def disarmed_injector():
    """No fault plan (or telemetry) leaks between tests."""
    clear_fault_plan()
    yield
    clear_fault_plan()
    obs.disable_tracing()


def fresh_instance():
    return structure_from_text(INSTANCE_TEXT)


def assert_no_leaks():
    assert multiprocessing.active_children() == []


# ----------------------------------------------------------------------
# Per-kind differential: every fault class recovers bit-identically
# ----------------------------------------------------------------------
@shm_only
@pytest.mark.parametrize("kind", FAULT_KINDS)
def test_single_fault_recovers_bit_identical(kind):
    serial = run_chase(TGDS, fresh_instance(), 50, 50_000)
    install_fault_plan(
        FaultPlan(faults=[Fault(kind=kind, stage=2, worker=0, task=0,
                                hang_seconds=30.0)])
    )
    result = run_chase(
        TGDS, fresh_instance(), 50, 50_000, workers=2, stage_deadline=DEADLINE
    )
    assert_bit_identical(serial, result)
    assert result.stats.faults == ONE_FAULT
    assert_no_leaks()


@shm_only
def test_hung_worker_is_terminated_without_waiting():
    # The injected hang sleeps 30 s; the faulted pool must terminate it at
    # once instead of waiting for it to answer the stop message.
    serial = run_chase(TGDS, fresh_instance(), 50, 50_000)
    install_fault_plan(
        FaultPlan(faults=[Fault(kind="hang", stage=2, worker=0, task=0,
                                hang_seconds=30.0)])
    )
    deadline = 1.0
    started = time.monotonic()
    result = run_chase(
        TGDS, fresh_instance(), 50, 50_000, workers=2, stage_deadline=deadline
    )
    elapsed = time.monotonic() - started
    assert_bit_identical(serial, result)
    assert result.stats.faults == ONE_FAULT
    assert elapsed < deadline + 3, elapsed
    assert_no_leaks()


# ----------------------------------------------------------------------
# Seeded random schedules (the chaos sweep CI extends via REPRO_CHAOS_SEEDS)
# ----------------------------------------------------------------------
def chaos_seeds():
    env = os.environ.get("REPRO_CHAOS_SEEDS")
    if env:
        return [int(seed) for seed in env.split(",") if seed.strip()]
    return [3, 11]


@shm_only
@pytest.mark.parametrize("seed", chaos_seeds())
def test_seeded_fault_schedule_completes_or_raises_typed(seed):
    # No injected fault can end a run in an error: every schedule completes
    # bit-identical, every injected fault is detected, and the first one
    # finishes the run serially (the rest are never injected).
    serial = run_chase(TGDS, fresh_instance(), 50, 50_000)
    install_fault_plan(
        random_fault_plan(seed, stages=4, count=3, hang_seconds=30.0)
    )
    result = run_chase(
        TGDS, fresh_instance(), 50, 50_000, workers=2, stage_deadline=2.0
    )
    assert_bit_identical(serial, result)
    ledger = result.stats.faults
    assert ledger["detected"] == ledger["injected"]
    assert ledger["degraded"] == (1 if ledger["detected"] else 0)
    assert_no_leaks()


# ----------------------------------------------------------------------
# Keep-alive: a recovered fault in run N must not poison run N+1
# ----------------------------------------------------------------------
@shm_only
def test_degraded_run_rebuilds_pool_for_the_next_run():
    # Degradation is terminal per run: the fault closes the pool, and the
    # *next* run on the keep-alive engine goes parallel again with a fresh
    # pool and a clean ledger.
    serial = run_chase(TGDS, fresh_instance(), 50, 50_000)
    with SemiNaiveChaseEngine(
        tgds=list(TGDS), max_stages=50, max_atoms=50_000, workers=2,
        stage_deadline=DEADLINE,
    ) as engine:
        install_fault_plan(
            FaultPlan(faults=[Fault(kind="crash", stage=2, worker=1, task=0)])
        )
        degraded = engine.run(fresh_instance())
        assert_bit_identical(serial, degraded)
        assert degraded.stats.faults == ONE_FAULT
        assert engine._pool is None, "a fault closes (and drops) the pool"
        clear_fault_plan()
        recovered = engine.run(fresh_instance())
        assert engine._pool is not None and not engine._pool.closed
        assert_bit_identical(serial, recovered)
        assert recovered.stats.faults == NO_FAULT
    assert_no_leaks()


@shm_only
def test_keep_alive_pool_survives_a_recovered_fault():
    # A desync fault (caught at sync, not by a dead worker) in run N is
    # recovered serially; the pool rebuilt by run N+1 is then kept alive
    # and reused by run N+2, exactly as if no fault had ever happened.
    serial = run_chase(TGDS, fresh_instance(), 50, 50_000)
    with SemiNaiveChaseEngine(
        tgds=list(TGDS), max_stages=50, max_atoms=50_000, workers=2,
        stage_deadline=DEADLINE,
    ) as engine:
        install_fault_plan(
            FaultPlan(faults=[Fault(kind="generation", stage=2, worker=1,
                                    task=0)])
        )
        faulted = engine.run(fresh_instance())
        assert_bit_identical(serial, faulted)
        assert faulted.stats.faults == ONE_FAULT
        clear_fault_plan()
        rebuilt = engine.run(fresh_instance())
        pool = engine._pool
        assert pool is not None and not pool.closed
        assert_bit_identical(serial, rebuilt)
        assert rebuilt.stats.faults == NO_FAULT
        # Run N+2 on the same keep-alive engine: same pool, clean ledger.
        clean = engine.run(fresh_instance())
        assert engine._pool is pool, "the rebuilt pool must be reused"
        assert not pool.closed
        assert_bit_identical(serial, clean)
        assert clean.stats.faults == NO_FAULT
    assert engine._pool is None
    assert_no_leaks()


# ----------------------------------------------------------------------
# Exception paths release the pool (satellite: no leaks on failure)
# ----------------------------------------------------------------------
def test_budget_exception_closes_pool_and_releases_workers():
    tgds = parse_tgds("R(x,y) -> R(y,w)")  # null-generating: never terminates
    instance = structure_from_text("R(0,1)")
    engine = SemiNaiveChaseEngine(
        tgds=list(tgds), max_stages=50, max_atoms=10,
        raise_on_budget=True, workers=2,
    )
    with pytest.raises(ChaseBudgetExceeded):
        engine.run(instance)
    assert engine._pool is None, "exception paths must tear the pool down"
    assert_no_leaks()


# ----------------------------------------------------------------------
# Ledger <-> trace reconciliation
# ----------------------------------------------------------------------
@shm_only
def test_trace_events_reconcile_with_stats_ledger():
    install_fault_plan(
        FaultPlan(faults=[
            Fault(kind="crash", stage=2, worker=0, task=0),
            Fault(kind="crash", stage=2, worker=1, task=0),
        ])
    )
    lines = []
    obs.enable_tracing(lines.append)
    result = run_chase(
        TGDS, fresh_instance(), 50, 50_000, workers=2, stage_deadline=DEADLINE
    )
    obs.disable_tracing()
    summary = summarize_trace(lines)
    assert result.stats.faults == summary.faults
    # Both workers crash in the same dispatch: two faults, one degrade.
    assert summary.faults == {
        "injected": 2, "detected": 2, "degraded": 1,
    }
    assert "parallel faults:" in summary.render()
    assert "parallel faults:" in result.stats.render()
    assert result.stats.as_dict()["faults"] == summary.faults


@shm_only
def test_clean_run_renders_no_fault_ledger():
    result = run_chase(
        TGDS, fresh_instance(), 50, 50_000, workers=2, stage_deadline=DEADLINE
    )
    assert result.stats.faults == NO_FAULT
    assert "parallel faults:" not in result.stats.render()


# ----------------------------------------------------------------------
# The injector itself
# ----------------------------------------------------------------------
def test_fault_plan_consume_once_and_duplicates():
    plan = FaultPlan(faults=[
        Fault(kind="crash", stage=1),
        Fault(kind="crash", stage=1),
        Fault(kind="hang", stage=2),
    ])
    assert len(plan.pending_for(1)) == 2
    plan.consume(Fault(kind="crash", stage=1))
    assert len(plan.pending_for(1)) == 1  # duplicates consume one at a time
    plan.consume(Fault(kind="crash", stage=1))
    assert plan.pending_for(1) == []
    assert len(plan.pending_for(2)) == 1
    # Consuming a fault that was never armed is a no-op.
    plan.consume(Fault(kind="crash", stage=9))
    assert len(plan.pending_for(2)) == 1
    plan.consume(Fault(kind="hang", stage=2))
    assert plan.pending_for(2) == []


def test_random_fault_plan_is_deterministic():
    assert random_fault_plan(42, 4).faults == random_fault_plan(42, 4).faults
    assert random_fault_plan(42, 4).faults != random_fault_plan(43, 4).faults
    with pytest.raises(ValueError):
        Fault(kind="meteor", stage=1)


def test_env_arming_parses_repro_faults(monkeypatch):
    monkeypatch.setenv(faults_module.ENV_VAR, "seed=7, stages=4, count=2")
    monkeypatch.setattr(faults_module, "_PLAN", None)
    monkeypatch.setattr(faults_module, "_ENV_CHECKED", False)
    plan = faults_module.active_plan()
    assert plan is not None
    assert plan.faults == random_fault_plan(7, 4, count=2).faults
    clear_fault_plan()
    assert faults_module.active_plan() is None


def test_tamper_payload_edges():
    assert tamper_payload("truncate", None) is None
    with pytest.raises(ValueError):
        tamper_payload("crash", object())


# ----------------------------------------------------------------------
# Subprocess audits: signals and env-armed chaos leave nothing behind
# ----------------------------------------------------------------------
def _repro_segments():
    return set(glob.glob("/dev/shm/repro-*"))


def _run_audit_script(script, env_extra=None, send_sigterm=False):
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    env.pop("REPRO_FAULTS", None)
    if env_extra:
        env.update(env_extra)
    if not send_sigterm:
        return subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, env=env, timeout=120,
        )
    import signal as _signal
    import time as _time

    proc = subprocess.Popen(
        [sys.executable, "-u", "-c", script],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
    )
    # Wait for the chase to be mid-run (the script prints a marker), then
    # deliver SIGTERM to the engine process.
    assert proc.stdout.readline().strip() == "RUNNING"
    _time.sleep(0.2)
    proc.send_signal(_signal.SIGTERM)
    out, err = proc.communicate(timeout=120)
    return subprocess.CompletedProcess(proc.args, proc.returncode, out, err)


@shm_only
@pytest.mark.skipif(not os.path.isdir("/dev/shm"), reason="no /dev/shm")
def test_env_armed_chaos_run_leaves_no_processes_or_segments():
    script = textwrap.dedent(
        """
        import multiprocessing
        from repro.chase import parse_tgds
        from repro.core.builders import structure_from_text
        from repro.engine import run_chase

        tgds = parse_tgds("R(x,y), R(y,z) -> S(x,z)",
                          "S(x,y), R(y,z) -> S(x,z)")
        instance = structure_from_text(
            ", ".join(f"R({i},{i + 1})" for i in range(12))
        )
        serial = run_chase(tgds, instance, 50, 50_000)
        faulted = run_chase(
            tgds, instance, 50, 50_000, workers=2, stage_deadline=2.0
        )
        assert faulted.structure.atoms() == serial.structure.atoms()
        assert faulted.stats.faults["injected"] >= 1
        assert faulted.stats.faults["degraded"] == 1
        assert multiprocessing.active_children() == []
        print("OK")
        """
    )
    before = _repro_segments()
    proc = _run_audit_script(
        script,
        env_extra={"REPRO_FAULTS": "seed=5,stages=3,count=2"},
    )
    assert proc.returncode == 0, proc.stderr
    assert "OK" in proc.stdout
    assert _repro_segments() <= before, "shm segments leaked"
    assert "resource_tracker" not in proc.stderr, proc.stderr
    assert "BufferError" not in proc.stderr, proc.stderr


@shm_only
@pytest.mark.skipif(not os.path.isdir("/dev/shm"), reason="no /dev/shm")
@pytest.mark.skipif(os.name != "posix", reason="POSIX signals only")
def test_sigterm_mid_chase_unlinks_segments_and_exits_cleanly():
    # SIGTERM mid-stage: the store's signal chain must unlink every segment
    # before the interpreter dies, with no resource_tracker or BufferError
    # noise from the dying workers, and the conventional 128+15 exit code.
    script = textwrap.dedent(
        """
        import sys
        from repro.chase import parse_tgds
        from repro.core.builders import structure_from_text
        from repro.engine import run_chase

        tgds = parse_tgds("R(x,y) -> R(y,w)")  # runs until the budget
        instance = structure_from_text("R(0,1)")
        print("RUNNING", flush=True)
        run_chase(tgds, instance, None, 5_000_000, workers=2)
        print("FINISHED")  # only reached if the signal lost the race
        """
    )
    before = _repro_segments()
    proc = _run_audit_script(script, send_sigterm=True)
    if "FINISHED" in proc.stdout:
        pytest.skip("chase finished before SIGTERM landed")
    assert proc.returncode == 143, (proc.returncode, proc.stderr)
    assert _repro_segments() <= before, "shm segments leaked after SIGTERM"
    assert "resource_tracker" not in proc.stderr, proc.stderr
    assert "BufferError" not in proc.stderr, proc.stderr

"""Fault-tolerance differential suite (repro.engine.resilience + faults).

The contract under test: a supervised parallel chase subjected to any fault
class — worker crash, hang, shm attach failure, truncated sync, generation
mismatch — at deterministic seeded coordinates either completes
**bit-identical** to the serial run or raises a typed
:class:`~repro.chase.chase.ChaseExecutionError`; both outcomes leave zero
live children and zero leaked ``/dev/shm`` segments.  The retry/degrade
ledger on ``ChaseRunStats.faults`` must reconcile exactly with the
``parallel.fault.*`` trace events.

The seeded-schedule sweep honours ``REPRO_CHAOS_SEEDS`` (comma-separated
ints) so CI's chaos-smoke step can widen the sweep without code changes.
"""

import glob
import multiprocessing
import os
import subprocess
import sys
import textwrap

import pytest

import repro.obs as obs
from repro.chase import ChaseBudgetExceeded, ChaseExecutionError, parse_tgds
from repro.core.builders import structure_from_text
from repro.engine import (
    ResilienceConfig,
    ResilienceConfigError,
    SemiNaiveChaseEngine,
    resolve_resilience,
    run_chase,
)
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

TGDS = parse_tgds(
    "R(x,y), R(y,z) -> S(x,z)",
    "S(x,y), R(y,z) -> S(x,z)",
)

#: A chain long enough to run several stages (fault coordinates at stage
#: 2 always exist) but short enough for a sub-second serial run.
INSTANCE_TEXT = ", ".join(f"R({i},{i + 1})" for i in range(12))

#: Supervision tuned for tests: a deadline short enough to catch injected
#: hangs quickly, a backoff short enough not to dominate the run.
CONFIG = ResilienceConfig(stage_deadline=5.0, max_retries=2, backoff_seconds=0.01)

#: Faults land in pool workers, and a pool needs shared memory: without it
#: ``workers=2`` runs serial discovery, so no fault is injected, no
#: resilience knob is read and no segment signal handler is installed.
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


def assert_bit_identical(result, serial):
    assert result.structure.atoms() == serial.structure.atoms()
    assert result.structure.domain() == serial.structure.domain()
    assert result.stages_run == serial.stages_run
    assert len(result.provenance) == len(serial.provenance)
    for expected, produced in zip(serial.provenance, result.provenance):
        assert produced.trigger == expected.trigger
        assert produced.new_atoms == expected.new_atoms


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
        TGDS, fresh_instance(), 50, 50_000, workers=2, resilience=CONFIG
    )
    assert_bit_identical(result, serial)
    assert result.stats.faults == {
        "injected": 1, "detected": 1, "retried": 1, "degraded": 0,
    }
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
    serial = run_chase(TGDS, fresh_instance(), 50, 50_000)
    install_fault_plan(
        random_fault_plan(seed, stages=4, count=3, hang_seconds=30.0)
    )
    config = ResilienceConfig(stage_deadline=2.0, max_retries=2,
                              backoff_seconds=0.01)
    try:
        result = run_chase(
            TGDS, fresh_instance(), 50, 50_000, workers=2, resilience=config
        )
    except ChaseExecutionError:
        pass  # the typed half of the contract
    else:
        assert_bit_identical(result, serial)
        ledger = result.stats.faults
        assert ledger["detected"] >= ledger["injected"] - ledger["degraded"]
    assert_no_leaks()


# ----------------------------------------------------------------------
# Tier escalation: retry exhaustion degrades (or raises, when told to)
# ----------------------------------------------------------------------
def exhaustion_plan():
    # Three crashes at the same coordinates: the injector arms at most one
    # fault per victim per dispatch, so each retry is hit again until the
    # budget runs out.
    return FaultPlan(faults=[Fault(kind="crash", stage=2, worker=0, task=0)
                             for _ in range(3)])


@shm_only
def test_retry_exhaustion_degrades_to_serial_and_stays_identical():
    serial = run_chase(TGDS, fresh_instance(), 50, 50_000)
    install_fault_plan(exhaustion_plan())
    result = run_chase(
        TGDS, fresh_instance(), 50, 50_000, workers=2,
        resilience=ResilienceConfig(max_retries=1, backoff_seconds=0.01),
    )
    assert_bit_identical(result, serial)
    ledger = result.stats.faults
    assert ledger["degraded"] == 1
    assert ledger["retried"] == 1
    assert ledger["detected"] == ledger["injected"] == 2
    assert_no_leaks()


@shm_only
def test_retry_exhaustion_without_fallback_raises_typed_error():
    install_fault_plan(exhaustion_plan())
    with pytest.raises(ChaseExecutionError, match="serial fallback is disabled"):
        run_chase(
            TGDS, fresh_instance(), 50, 50_000, workers=2,
            resilience=ResilienceConfig(max_retries=1, backoff_seconds=0.01,
                                        serial_fallback=False),
        )
    assert_no_leaks()


@shm_only
def test_strict_mode_still_poisons_on_fault():
    # resilience=False restores the pre-supervision contract: any worker
    # fault surfaces as a WorkerError (itself a ChaseExecutionError).
    from repro.engine import WorkerError

    install_fault_plan(
        FaultPlan(faults=[Fault(kind="crash", stage=2, worker=0, task=0)])
    )
    with pytest.raises(WorkerError):
        run_chase(
            TGDS, fresh_instance(), 50, 50_000, workers=2, resilience=False
        )
    assert_no_leaks()


# ----------------------------------------------------------------------
# Keep-alive: a recovered fault in run N must not poison run N+1
# ----------------------------------------------------------------------
@shm_only
def test_keep_alive_pool_survives_a_recovered_fault():
    serial = run_chase(TGDS, fresh_instance(), 50, 50_000)
    with SemiNaiveChaseEngine(
        tgds=list(TGDS), max_stages=50, max_atoms=50_000, workers=2,
        resilience=CONFIG,
    ) as engine:
        install_fault_plan(
            FaultPlan(faults=[Fault(kind="crash", stage=2, worker=1, task=0)])
        )
        faulted = engine.run(fresh_instance())
        assert_bit_identical(faulted, serial)
        assert faulted.stats.faults["detected"] == 1
        pool = engine._pool
        assert pool is not None and not pool.closed
        # Run N+1 on the same (healed) pool: clean run, clean ledger.
        clear_fault_plan()
        clean = engine.run(fresh_instance())
        assert engine._pool is pool, "healed pool must be reused"
        assert_bit_identical(clean, serial)
        assert clean.stats.faults == {
            "injected": 0, "detected": 0, "retried": 0, "degraded": 0,
        }
    assert_no_leaks()


@shm_only
def test_degraded_run_rebuilds_pool_for_the_next_run():
    # Degradation is terminal per run: the pool is closed at the tier
    # switch, and the *next* run on the keep-alive engine goes parallel
    # again with a fresh pool.
    serial = run_chase(TGDS, fresh_instance(), 50, 50_000)
    with SemiNaiveChaseEngine(
        tgds=list(TGDS), max_stages=50, max_atoms=50_000, workers=2,
        resilience=ResilienceConfig(max_retries=0, backoff_seconds=0.01),
    ) as engine:
        install_fault_plan(exhaustion_plan())
        degraded = engine.run(fresh_instance())
        assert_bit_identical(degraded, serial)
        assert degraded.stats.faults["degraded"] == 1
        assert engine._pool is None, "degrade closes (and drops) the pool"
        clear_fault_plan()
        recovered = engine.run(fresh_instance())
        assert engine._pool is not None and not engine._pool.closed
        assert_bit_identical(recovered, serial)
        assert recovered.stats.faults["degraded"] == 0
    assert_no_leaks()


# ----------------------------------------------------------------------
# Exception paths release the pool (satellite: no leaks on failure)
# ----------------------------------------------------------------------
def test_budget_exception_closes_pool_and_releases_workers():
    tgds = parse_tgds("R(x,y) -> R(y,w)")  # null-generating: never terminates
    instance = structure_from_text("R(0,1)")
    engine = SemiNaiveChaseEngine(
        tgds=list(tgds), max_stages=50, max_atoms=10, keep_snapshots=False,
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
            Fault(kind="crash", stage=3, worker=1, task=0),
        ])
    )
    lines = []
    obs.enable_tracing(lines.append)
    result = run_chase(
        TGDS, fresh_instance(), 50, 50_000, workers=2, resilience=CONFIG
    )
    obs.disable_tracing()
    summary = summarize_trace(lines)
    assert result.stats.faults == summary.faults
    assert summary.faults["detected"] == 2
    assert "parallel faults:" in summary.render()
    assert "parallel faults:" in result.stats.render()
    assert result.stats.as_dict()["faults"] == summary.faults


@shm_only
def test_clean_run_renders_no_fault_ledger():
    result = run_chase(
        TGDS, fresh_instance(), 50, 50_000, workers=2, resilience=CONFIG
    )
    assert result.stats.faults == {
        "injected": 0, "detected": 0, "retried": 0, "degraded": 0,
    }
    assert "parallel faults:" not in result.stats.render()


# ----------------------------------------------------------------------
# Config plumbing
# ----------------------------------------------------------------------
def test_resilience_config_from_env(monkeypatch):
    monkeypatch.setenv("REPRO_STAGE_DEADLINE", "7.5")
    monkeypatch.setenv("REPRO_MAX_RETRIES", "5")
    monkeypatch.setenv("REPRO_SERIAL_FALLBACK", "0")
    config = ResilienceConfig.from_env()
    assert config.stage_deadline == 7.5
    assert config.max_retries == 5
    assert config.serial_fallback is False
    monkeypatch.delenv("REPRO_STAGE_DEADLINE")
    monkeypatch.delenv("REPRO_MAX_RETRIES")
    monkeypatch.delenv("REPRO_SERIAL_FALLBACK")
    default = ResilienceConfig.from_env()
    assert default == ResilienceConfig()


@pytest.mark.parametrize("raw", ["soon", "1h", "-3", "0", "nan", "inf"])
def test_malformed_stage_deadline_raises_typed_error(monkeypatch, raw):
    monkeypatch.setenv("REPRO_STAGE_DEADLINE", raw)
    with pytest.raises(ResilienceConfigError, match="REPRO_STAGE_DEADLINE"):
        ResilienceConfig.from_env()


@pytest.mark.parametrize("raw", ["two", "2.5", "-1", "1e3"])
def test_malformed_max_retries_raises_typed_error(monkeypatch, raw):
    monkeypatch.setenv("REPRO_MAX_RETRIES", raw)
    with pytest.raises(ResilienceConfigError, match="REPRO_MAX_RETRIES"):
        ResilienceConfig.from_env()


@pytest.mark.parametrize("raw", ["maybe", "flase", "2", "ja"])
def test_malformed_serial_fallback_raises_typed_error(monkeypatch, raw):
    monkeypatch.setenv("REPRO_SERIAL_FALLBACK", raw)
    with pytest.raises(ResilienceConfigError, match="REPRO_SERIAL_FALLBACK"):
        ResilienceConfig.from_env()


@shm_only
def test_env_override_errors_surface_at_engine_construction(monkeypatch):
    """A typo'd knob fails the run up front, not mid-supervision."""
    monkeypatch.setenv("REPRO_MAX_RETRIES", "lots")
    with pytest.raises(ResilienceConfigError, match="REPRO_MAX_RETRIES"):
        run_chase(TGDS, fresh_instance(), 5, 100, workers=2)


def test_empty_env_overrides_keep_defaults(monkeypatch):
    """Empty strings (`REPRO_X= cmd` shell idiom) mean "use the default"."""
    monkeypatch.setenv("REPRO_STAGE_DEADLINE", "")
    monkeypatch.setenv("REPRO_MAX_RETRIES", "")
    monkeypatch.setenv("REPRO_SERIAL_FALLBACK", "")
    assert ResilienceConfig.from_env() == ResilienceConfig()


@pytest.mark.parametrize(
    "raw, expected",
    [("1", True), ("true", True), ("YES", True), ("On", True),
     ("0", False), ("false", False), ("No", False), ("OFF", False)],
)
def test_serial_fallback_accepts_conventional_spellings(monkeypatch, raw, expected):
    monkeypatch.setenv("REPRO_SERIAL_FALLBACK", raw)
    assert ResilienceConfig.from_env().serial_fallback is expected


def test_resolve_resilience_normalisation():
    # False is the strict config: zero retries, no serial fallback.
    assert resolve_resilience(False) == ResilienceConfig(
        max_retries=0, serial_fallback=False
    )
    assert resolve_resilience(None) == ResilienceConfig()
    assert resolve_resilience(True) == ResilienceConfig()
    config = ResilienceConfig(max_retries=9)
    assert resolve_resilience(config) is config
    with pytest.raises(TypeError):
        resolve_resilience("supervised")
    with pytest.raises(ValueError):
        run_chase(TGDS, fresh_instance(), 5, 100, engine="reference",
                  resilience=ResilienceConfig())


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
    assert not plan.exhausted
    plan.consume(Fault(kind="hang", stage=2))
    assert plan.exhausted and plan.injected == 3
    # Consuming a fault that was never armed is a no-op.
    plan.consume(Fault(kind="crash", stage=9))
    assert plan.injected == 3


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
        from repro.engine import ResilienceConfig, run_chase

        tgds = parse_tgds("R(x,y), R(y,z) -> S(x,z)",
                          "S(x,y), R(y,z) -> S(x,z)")
        instance = structure_from_text(
            ", ".join(f"R({i},{i + 1})" for i in range(12))
        )
        serial = run_chase(tgds, instance, 50, 50_000)
        faulted = run_chase(
            tgds, instance, 50, 50_000, workers=2,
            resilience=ResilienceConfig(stage_deadline=2.0, max_retries=2,
                                        backoff_seconds=0.01),
        )
        assert faulted.structure.atoms() == serial.structure.atoms()
        assert faulted.stats.faults["injected"] >= 1
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
        run_chase(tgds, instance, None, 5_000_000, keep_snapshots=False,
                  workers=2)
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

"""Measurement from outside the program: clocks, /proc, and layer wrappers.

Nothing here edits the library.  :class:`LayerProbe` times calls into the
engine's public pieces by wrapping them for the length of one traced
operation (``Structure.copy`` for stage snapshots, the engine's
``AtomIndex`` constructor, ``ParallelDiscovery`` start-up) and times the
interpreter's garbage collector through ``gc.callbacks``.
"""

import gc
import multiprocessing
import os
import statistics
import sys
import time
import traceback
from multiprocessing import resource_tracker

from repro.core.structure import Structure
from repro.engine import parallel, seminaive

CLOCK = time.perf_counter

_TICK = 1.0 / os.sysconf("SC_CLK_TCK")


def stolen_s():
    """Seconds the hypervisor has run other guests while this VM's CPUs waited.

    The steal column of ``/proc/stat``, summed over CPUs.  A CPU accrues
    steal only while it has work, and the benchmark's processes hand work
    back and forth rather than run side by side (chase-wide's discovery
    excepted), so the steal accrued during an operation is time taken from
    that operation.  Times reported end to end are wall time less this.
    """
    with open("/proc/stat", encoding="ascii") as handle:
        return int(handle.readline().split()[8]) * _TICK


# -- summaries ---------------------------------------------------------------
def median(values):
    return statistics.median(values) if values else 0.0


def p90(values):
    """The 90th percentile; callers pass at least 100 samples."""
    return statistics.quantiles(values, n=10, method="inclusive")[8]


# -- operations --------------------------------------------------------------
class Tally:
    """Operations attempted and failed; a failed output check is a failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def run(self, operation, check):
        """Run *operation* once: ``(result, wall seconds, stolen seconds)``.

        The result is ``None`` when the operation raised.
        """
        self.attempted += 1
        stolen = stolen_s()
        started = CLOCK()
        try:
            result = operation()
        except Exception:
            traceback.print_exc(file=sys.stderr)
            self.failed += 1
            result = None
        wall = CLOCK() - started
        stolen = stolen_s() - stolen
        if result is not None and not check(result):
            print("output check failed", file=sys.stderr)
            self.failed += 1
        return result, wall, stolen


# -- processes ---------------------------------------------------------------
def vmhwm_mb(pid="self"):
    """Peak resident set size of *pid* in MiB, from ``/proc/<pid>/status``."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


def child_pids():
    """Live child processes of this process (all threads)."""
    pids = []
    for task in os.listdir("/proc/self/task"):
        with open(f"/proc/self/task/{task}/children", encoding="ascii") as handle:
            pids.extend(int(pid) for pid in handle.read().split())
    return pids


def shm_segments():
    return set(os.listdir("/dev/shm")) if os.path.isdir("/dev/shm") else set()


def leak_audit(shm_before):
    """Messages for every new ``/dev/shm`` segment and child process left.

    Python starts one resource-tracker process with the first shared-memory
    segment; it would outlive every segment until this process exits, so
    it is stopped, and waited for, before children are counted.
    """
    problems = [
        f"shared-memory segment {name} left behind"
        for name in sorted(shm_segments() - shm_before)
    ]
    resource_tracker._resource_tracker._stop()
    multiprocessing.active_children()  # reaps finished pool workers
    problems += [f"child process {pid} still running" for pid in child_pids()]
    return problems


# -- layer wrappers ----------------------------------------------------------
class LayerProbe:
    """Per-operation layer timers around the engine's public call sites.

    :meth:`install` wraps; :meth:`begin` / :meth:`end` bracket one traced
    operation and zero the counters; :meth:`uninstall` restores every
    original.  Times outside a begin/end bracket are not counted, except
    ``pool_spawn_s``, which accumulates from install to uninstall.
    """

    def __init__(self):
        self.active = False
        self.pool_spawn_s = 0.0
        self._restore = []
        self._gc_started = 0.0
        self.reset()

    def reset(self):
        self.index_build_s = 0.0
        self.indexes_built = 0
        self.snapshot_s = 0.0
        self.gc_s = 0.0
        self.gc_collections = 0

    def begin(self):
        self.reset()
        self.active = True

    def end(self):
        self.active = False

    def _patch(self, owner, attribute, replacement):
        self._restore.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, replacement)

    def install(self):
        probe = self
        copy = Structure.copy
        atom_index = seminaive.AtomIndex
        spawn = parallel.ParallelDiscovery.__init__

        def timed_copy(structure, name=""):
            started = CLOCK()
            clone = copy(structure, name=name)
            # Only stage snapshots are named chase_<k>; the engine's working
            # copy of the instance is not a snapshot.
            if probe.active and name.startswith("chase_"):
                probe.snapshot_s += CLOCK() - started
            return clone

        def timed_index(*args, **kwargs):
            started = CLOCK()
            index = atom_index(*args, **kwargs)
            if probe.active:
                probe.index_build_s += CLOCK() - started
                probe.indexes_built += 1
            return index

        def timed_spawn(pool, *args, **kwargs):
            started = CLOCK()
            spawn(pool, *args, **kwargs)
            probe.pool_spawn_s += CLOCK() - started

        self._patch(Structure, "copy", timed_copy)
        self._patch(seminaive, "AtomIndex", timed_index)
        self._patch(parallel.ParallelDiscovery, "__init__", timed_spawn)
        gc.callbacks.append(self._on_gc)

    def uninstall(self):
        gc.callbacks.remove(self._on_gc)
        while self._restore:
            owner, attribute, original = self._restore.pop()
            setattr(owner, attribute, original)

    def _on_gc(self, phase, info):
        if phase == "start":
            self._gc_started = CLOCK()
        elif self.active:
            self.gc_s += CLOCK() - self._gc_started
            self.gc_collections += 1

"""The benchmark's workloads: inputs from a seed, timed solve calls, checks.

Each workload is one closed-loop caller in the current process: it builds
its instance, calls the public solver API one call at a time, times every
call from outside and checks what came back.  Solvers run with the library
defaults (``GlobalGreedy()``: serial, ``shards=None``), so no worker process
is ever started.

* ``cold-free`` -- synthetic columnar instances whose capacities can never
  bind, each drained by ``GlobalGreedy().build_strategy``: the admit loop.
* ``resolve-drift`` -- the ``cold-free`` instance round-tripped through
  ``save_instance_npz``/``load_instance_npz`` (memory-mapped), warm-started
  with ``GlobalGreedy().resolve`` and put through a fixed sequence of
  1%-drift deltas, each re-solved incrementally: the dynamic merge.

Every workload reports the same end-to-end metrics.  ``solve_s`` is the
median seconds of one complete cold solve on ``cold-free`` and the 90th
percentile seconds of one drift cycle (apply plus re-solve) on
``resolve-drift``, whose warm-start solve belongs to its set-up.  A shared
host runs the same code in a fast and a slow phase that switch every few
seconds to minutes; a multi-second cold solve spans phases, so its median
is steady, but a sub-second cycle lands in one phase, so the median cycle
depends on the phase mix of the run.  The 90th percentile is the cycle
time of the slow phase, which every run of many cycles reaches.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import json
import math
import os
import resource
import statistics
import time
import weakref
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Tuple

import numpy as np

from repro import io as repro_io
from repro.algorithms.global_greedy import GlobalGreedy
from repro.core import selection as selection_module
from repro.core.compiled import CompiledInstance
from repro.core.constraints import ConstraintChecker
from repro.core.revenue import RevenueModel
from repro.core.strategy import Strategy
from repro.datasets import synthetic
from repro.dynamic import InstanceDelta
from repro.dynamic import incremental as incremental_module
from repro.heaps import columnar as columnar_module
from repro.heaps import two_level as two_level_module

from perfbench.tracing import Tracer

BENCH_DIR = Path(__file__).resolve().parent
#: Pinned admission digests and revenues, per workload and seed.
PIN_PATH = BENCH_DIR / "pinned.json"
#: Scratch files (the resolve-drift archive, trace dumps); git-ignored.
OUT_DIR = BENCH_DIR / "out"

#: The synthetic instance shape shared by cold-free and resolve-drift (the
#: configuration of the dynamic re-solve benchmark): no item can bind its
#: capacity, so the incremental merge always applies.
SYNTHETIC_SHAPE = dict(
    num_items=2_000, num_classes=100, candidates_per_user=10, horizon=3,
    display_limit=2, capacity_fraction=0.25, beta=0.5,
)

#: Users per synthetic instance, by scale ("tiny" is the self-test size).
SYNTHETIC_USERS = {"full": 5_000, "tiny": 300}

#: Share of users whose candidate vectors one drift delta rewrites, and
#: the price cells it moves.
DRIFT_USER_FRACTION = 0.01
DRIFT_PRICE_CELLS = 3


# ----------------------------------------------------------------------
# results
# ----------------------------------------------------------------------
@dataclass
class Outcome:
    """What one run measured and whether its outputs checked out."""

    metrics: Dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    failures: List[str] = field(default_factory=list)
    digest: str = ""
    revenue: float = 0.0
    details: Dict[str, object] = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return self.attempted > 0 and self.failed == 0 and not self.failures


def _timed(function: Callable, *args):
    """Call ``function(*args)`` after a full collection; return (result, s)."""
    gc.collect()
    start = time.perf_counter()
    result = function(*args)
    return result, time.perf_counter() - start


def peak_rss_bytes() -> int:
    """High-water resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


def current_rss_bytes() -> int:
    """Resident set size right now."""
    with open("/proc/self/statm") as handle:
        return int(handle.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


# ----------------------------------------------------------------------
# output checks
# ----------------------------------------------------------------------
def admission_digest(strategy: Strategy, growth_curve) -> str:
    """sha256 over the admitted triples and the growth curve, in order.

    The growth curve holds every admission's cumulative revenue in
    admission order, so together with the admitted set it pins the
    admission sequence bit for bit.
    """
    digest = hashlib.sha256()
    for triple in sorted(strategy):
        digest.update(f"{triple.user},{triple.item},{triple.t};".encode())
    for size, revenue in growth_curve:
        digest.update(f"{size}:{revenue!r};".encode())
    return digest.hexdigest()


def solution_failures(instance, strategy: Strategy, growth_curve) -> List[str]:
    """Feasibility and revenue checks of one solver output.

    Feasibility replays the strategy through a fresh ``ConstraintChecker``:
    every triple must be admissible when added.  The revenue check
    recomputes ``Rev(S)`` with the reference Python engine and compares it
    with the growth curve's tail.
    """
    failures: List[str] = []
    checker = ConstraintChecker(instance)
    replay = Strategy(instance.catalog)
    for triple in sorted(strategy):
        if not checker.can_add(replay, triple):
            failures.append(f"infeasible: {tuple(triple)} is rejected on "
                            f"a ConstraintChecker replay")
            break
        replay.add(triple)
    sizes = [size for size, _ in growth_curve]
    if sizes != list(range(1, len(strategy) + 1)):
        failures.append("growth curve does not count admissions 1..n")
    tail = growth_curve[-1][1] if growth_curve else 0.0
    recomputed = RevenueModel(instance, backend="python", cache=False
                              ).revenue(strategy)
    if not math.isclose(recomputed, tail, rel_tol=1e-9, abs_tol=1e-9):
        failures.append(f"revenue {recomputed!r} recomputed by the reference "
                        f"engine differs from the growth-curve tail {tail!r}")
    return failures


def load_pins() -> Dict[str, Dict[str, Dict[str, object]]]:
    if not PIN_PATH.exists():
        return {}
    return json.loads(PIN_PATH.read_text())


def pin_setting(scale: str, seconds: float) -> str:
    """What a digest depends on besides workload and seed."""
    return f"{scale}-{seconds:g}s"


def pin_failures(workload: str, seed: int, setting: str, digest: str,
                 revenue: float) -> Tuple[bool, List[str]]:
    """Compare against the pinned digest; (pinned?, failures).

    ``setting`` (:func:`pin_setting`) names the scale and ``--seconds``,
    which fix the instance count or the delta sequence.
    """
    entry = load_pins().get(workload, {}).get(str(seed))
    if entry is None or entry.get("setting") != setting:
        return False, []
    failures = []
    if entry["digest"] != digest:
        failures.append(f"admission digest {digest} differs from the pinned "
                        f"{entry['digest']}")
    if entry["revenue"] != revenue:
        failures.append(f"revenue {revenue!r} differs from the pinned "
                        f"{entry['revenue']!r}")
    return True, failures


def record_pin(workload: str, seed: int, setting: str, digest: str,
               revenue: float) -> None:
    """Pin a checked run's digest and revenue (``run.py --pin``)."""
    pins = load_pins()
    pins.setdefault(workload, {})[str(seed)] = {
        "setting": setting, "digest": digest, "revenue": revenue,
    }
    PIN_PATH.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")


# ----------------------------------------------------------------------
# tracing
# ----------------------------------------------------------------------
def _count_admits(tracer: Tracer, args, result) -> None:
    tracer.counters["selection.admits"] += int(result)


def _count_resolve(tracer: Tracer, args, result) -> None:
    stats = args[0].last_stats
    tracer.counters["dynamic.dirty_users"] += int(stats.get("dirty_users", 0))
    tracer.counters["dynamic.reused_events"] += int(
        stats.get("reused_events", 0))
    if stats.get("mode") != "merge":
        tracer.counters["dynamic.fallbacks"] += 1


def layer_tracer() -> Tracer:
    """A tracer over the public calls of every layer the benchmark names."""
    tracer = Tracer()
    seen = weakref.WeakKeyDictionary()

    def count_batch(tracer: Tracer, args, result) -> None:
        """Rows scored, and the model's engine counters since last seen."""
        model, triples = args[0], args[2]
        tracer.counters["revenue.batch_rows"] += len(triples)
        before = seen.get(model, (0, 0, 0))
        now = (model.evaluations, model.lookups, model.cache_hits)
        tracer.counters["revenue.evaluations"] += now[0] - before[0]
        tracer.counters["revenue.lookups"] += now[1] - before[1]
        tracer.counters["revenue.cache_hits"] += now[2] - before[2]
        seen[model] = now

    tracer.wrap(synthetic, "generate_synthetic_columnar", "datasets.generate")
    tracer.wrap(CompiledInstance, "from_instance", "compiled.compile")
    tracer.wrap(CompiledInstance, "__init__", "compiled.compile")
    tracer.wrap(repro_io, "save_instance_npz", "io.save_npz")
    tracer.wrap(repro_io, "load_instance_npz", "io.load_npz")
    tracer.wrap(selection_module, "build_columnar_frontier", "selection.seed")
    tracer.wrap(CompiledInstance, "isolated_revenues",
                "compiled.isolated_revenues")
    tracer.wrap(selection_module.LazyGreedySelector, "select",
                "selection.select", after=_count_admits)
    tracer.wrap(columnar_module.ColumnarFrontier, "peek", "heaps.peek",
                record=False)
    tracer.wrap(two_level_module.TwoLevelHeap, "peek", "heaps.peek",
                record=False)
    tracer.wrap(columnar_module.ColumnarFrontier, "drop_group",
                "heaps.drop_group", record=False)
    tracer.wrap(CompiledInstance, "pair_row", "compiled.pair_row",
                record=False)
    tracer.wrap(RevenueModel, "marginal_revenue_batch", "revenue.batch",
                record=False, after=count_batch)
    tracer.wrap(ConstraintChecker, "can_add", "constraints.can_add",
                record=False)
    tracer.wrap(CompiledInstance, "apply_delta", "compiled.apply_delta")
    tracer.wrap(incremental_module.IncrementalSolver, "resolve",
                "dynamic.resolve", after=_count_resolve)
    return tracer


def layer_metrics(tracer: Tracer, cycles: int, users: int
                  ) -> Dict[str, float]:
    """Per-layer self times and counts; dynamic.* are per traced cycle."""
    counters = tracer.counters
    pops = tracer.calls("heaps.peek")
    admits = counters["selection.admits"]
    evaluations = counters["revenue.evaluations"]
    hits = counters["revenue.cache_hits"]
    per_cycle = 1.0 / cycles if cycles else 0.0
    return {
        "datasets.generate_s": tracer.self_s("datasets.generate"),
        "compiled.compile_s": tracer.self_s("compiled.compile"),
        "io.save_npz_s": tracer.self_s("io.save_npz"),
        "io.load_npz_s": tracer.self_s("io.load_npz"),
        "selection.seed_s": tracer.self_s("selection.seed"),
        "compiled.isolated_revenues_s":
            tracer.self_s("compiled.isolated_revenues"),
        "selection.loop_self_s": tracer.self_s("selection.select"),
        "heaps.peek_s": tracer.self_s("heaps.peek"),
        "selection.pops": pops,
        "selection.admits": admits,
        "selection.admit_ratio": admits / pops if pops else 0.0,
        "selection.capacity_drops": tracer.calls("heaps.drop_group"),
        "compiled.pair_row_calls": tracer.calls("compiled.pair_row"),
        "compiled.pair_row_s": tracer.self_s("compiled.pair_row"),
        "revenue.batch_calls": tracer.calls("revenue.batch"),
        "revenue.batch_rows": counters["revenue.batch_rows"],
        "revenue.batch_s": tracer.self_s("revenue.batch"),
        "revenue.evaluations": evaluations,
        "revenue.lookups": counters["revenue.lookups"],
        "revenue.cache_hits": hits,
        "revenue.cache_hit_ratio":
            hits / (hits + evaluations) if hits + evaluations else 0.0,
        "constraints.can_add_calls": tracer.calls("constraints.can_add"),
        "constraints.can_add_s": tracer.self_s("constraints.can_add"),
        "compiled.apply_delta_s":
            tracer.total_s("compiled.apply_delta") * per_cycle,
        "dynamic.resolve_s": tracer.total_s("dynamic.resolve") * per_cycle,
        "dynamic.simulate_s":
            tracer.total_s("selection.select", parent="dynamic.resolve")
            * per_cycle,
        "dynamic.merge_self_s": tracer.self_s("dynamic.resolve") * per_cycle,
        "dynamic.dirty_users": counters["dynamic.dirty_users"] * per_cycle,
        "dynamic.reused_events": counters["dynamic.reused_events"] * per_cycle,
        "dynamic.reuse_ratio":
            1.0 - counters["dynamic.dirty_users"] * per_cycle / users
            if cycles else 0.0,
        "dynamic.fallbacks": counters["dynamic.fallbacks"],
    }


def memory_metrics(instance, baseline_rss: int) -> Dict[str, float]:
    compiled = instance.compiled()
    return {
        "compiled.tensor_mb": compiled.memory_footprint()["total"] / 2**20,
        "memory.bytes_per_user":
            (peak_rss_bytes() - baseline_rss) / compiled.num_users,
    }


def dump_trace(tracer: Tracer, name: str, seed: int) -> Path:
    """Write the run's spans, edges and counters under ``out/``."""
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"trace-{name}-{seed}.json"
    path.write_text(json.dumps(tracer.to_dict()))
    return path


# ----------------------------------------------------------------------
# cold workloads
# ----------------------------------------------------------------------
class ColdSolveWorkload:
    """Build instances and drain each with one cold ``build_strategy`` call.

    A run draws several instances from its seed, so one heavy or light
    draw moves the run's medians less.  Each instance is set up (timed),
    solved once (timed), checked and dropped before the next one.

    Args:
        name: workload name.
        build: ``(seed, scale) -> instance``, the set-up call into the
            program's generators.
        nominal_instance_s: rough seconds to set up and solve one
            full-size instance on a 2-core machine; a run handles
            ``seconds / nominal_instance_s`` instances (at least two), so
            the work per run is fixed by ``--seconds``.
    """

    def __init__(self, name: str, build: Callable[[int, str], object],
                 nominal_instance_s: float) -> None:
        self.name = name
        self._build = build
        self._nominal_instance_s = nominal_instance_s

    def instances(self, seconds: float) -> int:
        return max(2, round(seconds / self._nominal_instance_s))

    @staticmethod
    def instance_seed(seed: int, index: int) -> int:
        """Seed of a run's ``index``-th instance; disjoint across seeds."""
        return seed * 1_000 + index

    def _prepare(self, seed: int, scale: str):
        instance = self._build(seed, scale)
        instance.compiled()
        return instance

    def timed(self, seed: int, seconds: float, scale: str = "full") -> Outcome:
        outcome = Outcome()
        setup_times, solve_times, digests = [], [], []
        peak = 0
        for index in range(self.instances(seconds)):
            instance, elapsed = _timed(
                self._prepare, self.instance_seed(seed, index), scale)
            setup_times.append(elapsed)
            solver = GlobalGreedy()
            strategy, elapsed = _timed(solver.build_strategy, instance)
            solve_times.append(elapsed)
            peak = peak_rss_bytes()
            curve = solver.last_growth_curve
            digests.append(admission_digest(strategy, curve))
            outcome.revenue += curve[-1][1] if curve else 0.0
            failures = solution_failures(instance, strategy, curve)
            outcome.attempted += 1
            outcome.failed += bool(failures)
            outcome.failures += [f"instance {index}: {failure}"
                                 for failure in failures]
            del instance, strategy, solver
        outcome.digest = hashlib.sha256(" ".join(digests).encode()
                                        ).hexdigest()
        pinned, pin_bad = pin_failures(self.name, seed,
                                       pin_setting(scale, seconds),
                                       outcome.digest, outcome.revenue)
        if pin_bad:
            outcome.failures += pin_bad
            outcome.failed = outcome.attempted
        outcome.metrics.update({
            "setup_s": statistics.median(setup_times),
            "solve_s": statistics.median(solve_times),
            "peak_rss_mb": peak / 2**20,
            "revenue": outcome.revenue,
        })
        outcome.details.update(pinned=pinned, setup_times=setup_times,
                               solve_times=solve_times,
                               instance_digests=digests)
        return outcome

    def traced(self, seed: int, seconds: float, scale: str = "full") -> Outcome:
        """Trace one set-up and solve of the run's first instance.

        Like the timed run, every solve gets a freshly built instance, so
        lazily built tensors are paid inside the solve.  The traced pass
        sits between two untraced ones; their mean is the baseline of the
        tracing overhead.  All three must give the same digest.
        """
        baseline_rss = current_rss_bytes()
        tracer = layer_tracer()
        instance_seed = self.instance_seed(seed, 0)
        untraced, digests = [], []
        for traced in (False, True, False):
            solver = GlobalGreedy()
            with (tracer.installed() if traced
                  else contextlib.nullcontext()):
                instance = self._prepare(instance_seed, scale)
                strategy, elapsed = _timed(solver.build_strategy, instance)
            if traced:
                traced_s = elapsed
            else:
                untraced.append(elapsed)
            curve = solver.last_growth_curve
            digests.append(admission_digest(strategy, curve))
        outcome = Outcome(attempted=len(digests), digest=digests[0],
                          revenue=curve[-1][1] if curve else 0.0)
        outcome.failures = solution_failures(instance, strategy, curve)
        outcome.failures += [f"solve {index}: admission digest differs from "
                             f"solve 1"
                             for index, digest in enumerate(digests, start=1)
                             if digest != outcome.digest]
        outcome.failed = outcome.attempted if outcome.failures else 0
        outcome.metrics.update(layer_metrics(
            tracer, cycles=0, users=instance.compiled().num_users))
        outcome.metrics.update(memory_metrics(instance, baseline_rss))
        baseline = statistics.mean(untraced)
        outcome.metrics["trace.overhead_pct"] = (
            100.0 * (traced_s - baseline) / baseline)
        outcome.details["trace_file"] = str(dump_trace(tracer, self.name,
                                                       seed))
        return outcome


def build_synthetic(seed: int, scale: str):
    return synthetic.generate_synthetic_columnar(synthetic.SyntheticConfig(
        num_users=SYNTHETIC_USERS[scale], seed=seed, **SYNTHETIC_SHAPE))


# ----------------------------------------------------------------------
# resolve-drift
# ----------------------------------------------------------------------
def drift_deltas(compiled, seed: int, count: int) -> List[InstanceDelta]:
    """``count`` 1%-drift deltas drawn from ``seed``.

    Each rewrites the probability vector of every candidate pair of a random
    1% of users and moves ``DRIFT_PRICE_CELLS`` price cells; only existing
    pairs are touched, so every delta applies to every later instance.
    """
    rng = np.random.default_rng([seed, 1])
    users = max(1, int(compiled.num_users * DRIFT_USER_FRACTION))
    deltas = []
    for index in range(count):
        probability_updates = {}
        for user in rng.choice(compiled.num_users, size=users,
                               replace=False).tolist():
            for row in range(int(compiled.user_ptr[user]),
                             int(compiled.user_ptr[user + 1])):
                probability_updates[(user, int(compiled.pair_item[row]))] = (
                    rng.uniform(0.0, 1.0, size=compiled.horizon))
        price_updates = {
            (int(item), int(rng.integers(0, compiled.horizon))):
                float(rng.uniform(10.0, 1000.0))
            for item in rng.choice(compiled.num_items,
                                   size=DRIFT_PRICE_CELLS, replace=False)
        }
        deltas.append(InstanceDelta(price_updates=price_updates,
                                    probability_updates=probability_updates,
                                    name=f"drift-{index}"))
    return deltas


def bare_copy(instance):
    """The instance's current tensors with every cache dropped."""
    compiled = instance.compiled()
    return CompiledInstance(
        num_users=compiled.num_users, horizon=compiled.horizon,
        display_limit=compiled.display_limit, user_ptr=compiled.user_ptr,
        pair_item=compiled.pair_item, pair_probs=np.array(compiled.pair_probs),
        prices=np.array(compiled.prices),
        capacities=np.array(compiled.capacities),
        betas=compiled.betas, item_class=compiled.item_class,
        name=compiled.name, validate=False,
    ).as_instance(catalog=instance.catalog)


class ResolveDriftWorkload:
    """Warm-start from an ``.npz`` round trip, then re-solve drift cycles.

    Args:
        nominal_cycle_s: rough seconds per full-size drift cycle on a
            2-core machine; ``seconds / nominal_cycle_s`` cycles run (at
            least four), so the delta sequence is fixed by ``--seconds``.
        setups: full set-ups per run, each a fresh preparation (generate,
            compile, save, load) and warm-start solve; ``setup_s`` is
            their median and the cycles run on the last one.
    """

    name = "resolve-drift"

    def __init__(self, nominal_cycle_s: float, setups: int) -> None:
        self._nominal_cycle_s = nominal_cycle_s
        self._setups = setups

    def cycles(self, seconds: float) -> int:
        return max(4, round(seconds / self._nominal_cycle_s))

    @staticmethod
    def _prepare(seed: int, scale: str, path: Path):
        instance = build_synthetic(seed, scale)
        repro_io.save_instance_npz(instance, path)
        return repro_io.load_instance_npz(path)

    def _archive(self, seed: int) -> Path:
        OUT_DIR.mkdir(exist_ok=True)
        return OUT_DIR / f"{self.name}-{seed}-{os.getpid()}.npz"

    def timed(self, seed: int, seconds: float, scale: str = "full") -> Outcome:
        path = self._archive(seed)
        try:
            prep_times, warm_times = [], []
            for _ in range(self._setups):
                # Unmap the previous load before the archive is rewritten.
                instance = solver = None
                instance, elapsed = _timed(self._prepare, seed, scale, path)
                prep_times.append(elapsed)
                solver = GlobalGreedy()
                _, elapsed = _timed(solver.resolve, instance)
                warm_times.append(elapsed)
            deltas = drift_deltas(instance.compiled(), seed,
                                  self.cycles(seconds))
            modes = [solver.last_extras["resolve"]["mode"]]
            cycle_times = []
            for delta in deltas:
                strategy, elapsed = _timed(solver.resolve, instance, delta)
                cycle_times.append(elapsed)
                modes.append(solver.last_extras["resolve"]["mode"])
            peak = peak_rss_bytes()
            outcome = self._check(instance, solver, strategy, modes, seed,
                                  pin_setting(scale, seconds))
        finally:
            path.unlink(missing_ok=True)
        outcome.metrics.update({
            "setup_s": statistics.median(
                prep + warm for prep, warm in zip(prep_times, warm_times)),
            "solve_s": statistics.quantiles(cycle_times, n=10)[-1],
            "peak_rss_mb": peak / 2**20,
            "revenue": outcome.revenue,
        })
        outcome.details.update(prep_times=prep_times, warm_times=warm_times,
                               cycle_times=cycle_times)
        return outcome

    def traced(self, seed: int, seconds: float, scale: str = "full") -> Outcome:
        """Trace set-up, warm start and every other cycle.

        Even cycles run untraced and odd ones traced, so the two halves see
        the same drift and their difference is the tracing overhead.
        """
        baseline_rss = current_rss_bytes()
        path = self._archive(seed)
        tracer = layer_tracer()
        try:
            with tracer.installed():
                instance = self._prepare(seed, scale, path)
            deltas = drift_deltas(instance.compiled(), seed,
                                  self.cycles(seconds))
            solver = GlobalGreedy()
            with tracer.installed():
                solver.resolve(instance)
            modes = [solver.last_extras["resolve"]["mode"]]
            times = {False: [], True: []}
            for index, delta in enumerate(deltas):
                traced = index % 2 == 1
                with (tracer.installed() if traced
                      else contextlib.nullcontext()):
                    strategy, elapsed = _timed(solver.resolve, instance,
                                               delta)
                times[traced].append(elapsed)
                modes.append(solver.last_extras["resolve"]["mode"])
            outcome = self._check(instance, solver, strategy, modes, seed,
                                  pin_setting(scale, seconds))
            outcome.metrics.update(layer_metrics(
                tracer, cycles=len(times[True]),
                users=instance.compiled().num_users))
            outcome.metrics.update(memory_metrics(instance, baseline_rss))
        finally:
            path.unlink(missing_ok=True)
        untraced = statistics.mean(times[False])
        outcome.metrics["trace.overhead_pct"] = (
            100.0 * (statistics.mean(times[True]) - untraced) / untraced)
        outcome.details["trace_file"] = str(dump_trace(tracer, self.name,
                                                       seed))
        return outcome

    def _check(self, instance, solver: GlobalGreedy, strategy: Strategy,
               modes: List[str], seed: int, setting: str) -> Outcome:
        """Merge modes, then the final strategy against a cold solve."""
        outcome = Outcome(attempted=len(modes))
        if modes[0] != "cold":
            outcome.failures.append(f"warm start ran in mode {modes[0]!r}")
        for index, mode in enumerate(modes[1:], start=1):
            if mode != "merge":
                outcome.failures.append(f"cycle {index} ran in mode {mode!r}")
        failed = len(outcome.failures)
        curve = list(solver.last_growth_curve)
        outcome.digest = admission_digest(strategy, curve)
        outcome.revenue = curve[-1][1] if curve else 0.0
        final_bad = solution_failures(instance, strategy, curve)
        cold = GlobalGreedy()
        cold_strategy = cold.build_strategy(bare_copy(instance))
        if admission_digest(cold_strategy, cold.last_growth_curve) \
                != outcome.digest:
            final_bad.append("final strategy differs from a cold "
                             "build_strategy on the mutated instance")
        pinned, pin_bad = pin_failures(self.name, seed, setting,
                                       outcome.digest, outcome.revenue)
        final_bad += pin_bad
        outcome.failures.extend(final_bad)
        outcome.failed = min(outcome.attempted, failed + bool(final_bad))
        outcome.details.update(pinned=pinned, admissions=len(strategy),
                               users=instance.compiled().num_users,
                               modes=sorted(set(modes)))
        return outcome


WORKLOADS = {
    "cold-free": ColdSolveWorkload("cold-free", build_synthetic,
                                   nominal_instance_s=7.5),
    "resolve-drift": ResolveDriftWorkload(nominal_cycle_s=0.9, setups=3),
}

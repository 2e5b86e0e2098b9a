"""The benchmark's sessions, their generated inputs and their checks.

Each session drives the program only through its public calls
(``Database``, ``prepare``, ``bind().value``, ``serve``, ``update``,
``group_by``, ``maintain`` and ``enumerate``) and runs in three parts:

* set-up: a cold ``Database`` with an empty plan store, until every
  query of the workload has returned its first answer;
* the measured part, bounded by ``seconds``;
* reload, within the measured part: a fresh ``Database`` on the store
  set-up wrote, until the same first answers are back.

Every answer is compared with a value computed outside the timed
region, from the generated inputs (the shadow weight table, a plain
triangle listing) and, where it is fast enough, the ``repro.baselines``
naive oracle.  Mismatches, errors, refusals and timeouts all count as
failed.
"""

from __future__ import annotations

import bisect
import gc
import os
import random
import resource
import shutil
import time
from typing import Any, Callable, Dict, Hashable, List, Optional, Sequence, \
    Tuple

from loadgen import OpenLoopResult, open_loop, percentile

from repro import (NATURAL, Atom, Bracket, Database, Sum, Weight,
                   graph_structure, triangulated_grid)
from repro.baselines import eval_expression, model_for

E = lambda x, y: Atom("E", (x, y))
w = lambda x, y: Weight("w", (x, y))

#: The triangle formula, whose answers are enumerated.
TRIANGLE_FORMULA = E("x", "y") & E("y", "z") & E("z", "x")
#: Weighted out-degree f(x) = sum_y [E(x, y)] * w(x, y).
DEGREE = Sum(("y",), Bracket(E("x", "y")) * w("x", "y"))
#: Closed sum of every edge weight.
EDGE_SUM = Sum(("x", "y"), Bracket(E("x", "y")) * w("x", "y"))

#: Input sizes and rates.  ``tiny`` exists for the benchmark's own tests.
SCALES: Dict[str, Dict[str, Any]] = {
    "full": {
        "enum_side": 2,
        "read_side": 40, "ref_rate": 500.0, "warm_reads": 4000,
        "burst_reads": 1600, "mix_side": 20, "groupby_every": 50,
        "min_steps_per_s": 110, "oracle_keys": 8,
    },
    "tiny": {
        "enum_side": 2,
        "read_side": 6, "ref_rate": 400.0, "warm_reads": 50,
        "burst_reads": 32, "mix_side": 4, "groupby_every": 5,
        "min_steps_per_s": 10, "oracle_keys": 2,
    },
}

#: Zipf exponent of every key stream (rank r is drawn with weight r^-s).
ZIPF_S = 1.0


class Checker:
    """Counts attempted and failed operations; keeps the first messages.

    ``corrupt=True`` replaces the first expected value with one no
    answer can equal — the benchmark's tests use it to prove that a
    wrong answer is caught and counted."""

    def __init__(self, corrupt: bool = False) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: List[str] = []
        self._corrupt = corrupt

    def check(self, label: str, got: Any, expected: Any) -> None:
        self.attempted += 1
        if self._corrupt:
            self._corrupt = False
            expected = ("deliberately wrong expected value", expected)
        if got != expected:
            self.fail(f"{label}: got {got!r}, expected {expected!r}")

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.messages) < 10:
            self.messages.append(message)


# -- generated inputs ---------------------------------------------------------


def weighted_grid(side: int, seed: int):
    """A triangulated ``side x side`` grid with seeded weights 1..9 on
    every directed edge, plus the shadow weight table the checks use."""
    structure = graph_structure(triangulated_grid(side, side))
    rng = random.Random(f"weights:{seed}:{side}")
    shadow: Dict[Tuple, int] = {}
    for edge in sorted(structure.relations["E"]):
        value = rng.randint(1, 9)
        structure.set_weight("w", edge, value)
        shadow[edge] = value
    return structure, shadow


def out_neighbours(edges) -> Dict[Hashable, List[Hashable]]:
    adjacency: Dict[Hashable, List[Hashable]] = {}
    for x, y in edges:
        adjacency.setdefault(x, []).append(y)
    return adjacency


def triangles(edges) -> List[Tuple]:
    """Every ordered triangle ``(x, y, z)`` with E(x,y), E(y,z), E(z,x)."""
    edge_set = set(edges)
    adjacency = out_neighbours(edges)
    return [(x, y, z) for x in adjacency for y in adjacency[x]
            for z in adjacency.get(y, ()) if (z, x) in edge_set]


def degrees(structure, shadow: Dict[Tuple, int]) -> Dict[Hashable, int]:
    table = {element: 0 for element in structure.domain}
    for (x, _), value in shadow.items():
        table[x] += value
    return table


class Zipf:
    """Seeded Zipf key stream over a seeded permutation of ``domain``."""

    def __init__(self, domain: Sequence[Hashable], seed: Any) -> None:
        self.rng = random.Random(f"zipf:{seed}")
        self.order = list(domain)
        self.rng.shuffle(self.order)
        self.cumulative: List[float] = []
        total = 0.0
        for rank in range(1, len(self.order) + 1):
            total += rank ** -ZIPF_S
            self.cumulative.append(total)

    def draw(self, count: int) -> List[Hashable]:
        top = self.cumulative[-1]
        last = len(self.order) - 1
        return [self.order[min(last, bisect.bisect_left(
            self.cumulative, self.rng.random() * top))]
            for _ in range(count)]


def oracle_degree(structure, element: Hashable) -> Any:
    """The naive oracle's f(element) for the DEGREE query."""
    return eval_expression(DEGREE, model_for(structure), NATURAL,
                           {"x": element})


# -- shared helpers -----------------------------------------------------------


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def by_key(table) -> Dict[Hashable, Any]:
    """A one-parameter ``group_by`` table as ``{element: value}``."""
    return {key[0]: value for key, value in zip(table.keys(), table.values())}


def kernel_of(stats: Dict[str, Any]) -> Tuple[str, int]:
    kernel = stats.get("exact_kernel")
    if not kernel:
        return "scalar", 0
    return str(kernel.get("used")), int(kernel.get("fallbacks", 0))


class Session:
    """State shared by the parts of one workload run."""

    def __init__(self, workload: str, seed: int, seconds: float,
                 scale: str, workdir: str, corrupt: bool = False) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.size = SCALES[scale]
        self.workdir = workdir
        self.store = os.path.join(workdir, "plan-store")
        self.checker = Checker(corrupt)
        #: Raw samples, in seconds: ``op`` and ``op2`` (the two
        #: operations each workload times), ``scan`` and ``reloads``;
        #: ``rates`` holds (operations, seconds) pairs.
        self.out: Dict[str, Any] = {"op": [], "op2": [], "scan": [],
                                    "reloads": [], "rates": []}
        self.layer: Dict[str, Any] = {}
        self.kernel = ("scalar", 0)
        self.open: List[Any] = []  # databases to close at the end

    # -- the three parts ---------------------------------------------------------

    def run(self, tracer: Optional[Any] = None) -> Dict[str, Any]:
        """Run the session.  Inputs are generated first; ``tracer`` is
        installed only after that, so its spans cover the program's work
        alone."""
        shutil.rmtree(self.store, ignore_errors=True)
        os.makedirs(self.store)
        impl = SESSION_KINDS[self.workload](self)
        impl.inputs()
        self.impl = impl
        # Reloads open copies of the untouched inputs (copying records
        # no spans, unlike building a structure weight by weight).
        self.pristine = impl.structure.copy()
        if tracer is not None:
            tracer.install()
        try:
            start = time.perf_counter()
            impl.setup()
            self.out["setup_s"] = time.perf_counter() - start
            # The measured part starts from a collected heap: set-up
            # garbage is not charged to the first operations.
            gc.collect()
            impl.measure()
        finally:
            if tracer is not None:
                tracer.uninstall()
            for db in self.open:
                db.close()
            shutil.rmtree(self.store, ignore_errors=True)
        self.out.update(attempted=self.checker.attempted,
                        failed=self.checker.failed,
                        messages=self.checker.messages,
                        kernel=self.kernel[0], fallbacks=self.kernel[1],
                        peak_rss_mb=peak_rss_mb(), layer=self.layer)
        return self.out

    def reload(self) -> None:
        """Time one reload; its garbage is collected before measuring
        resumes."""
        structure = self.pristine.copy()
        start = time.perf_counter()
        check = self.impl.reload(structure)
        self.out["reloads"].append(time.perf_counter() - start)
        check()
        gc.collect()

    def database(self, structure, store: bool = True) -> Database:
        db = Database(structure, plan_store_path=self.store) if store \
            else Database(structure)
        self.open.append(db)
        return db

    def check_store_hit(self, db: Database, label: str) -> None:
        """A reload must be served from disk: no plan-store miss."""
        stats = db.plan_store.stats()
        self.checker.attempted += 1
        if stats["hits"] < 1 or stats["misses"]:
            self.checker.fail(f"{label}: plan store did not serve the "
                              f"reload: {stats}")

    def deadline(self, share: float) -> float:
        """The clock reading ``share`` of the run's seconds from now."""
        return time.perf_counter() + self.seconds * share


# -- point-read ---------------------------------------------------------------


class PointRead:
    """Open-loop Zipf point reads of the weighted out-degree through
    ``db.serve`` with default options, at a reference rate and in
    saturation bursts, plus closed-loop reads through a second service
    with no result cache, so that each of those takes the
    queue-and-sweep path.  Set-up also builds the answer enumerator of
    the triangle formula on a small grid, so that the enumeration layer
    is measured too; its answers are checked, not timed."""

    def __init__(self, session: Session) -> None:
        self.s = session

    def inputs(self) -> None:
        self.structure, shadow = weighted_grid(self.s.size["read_side"],
                                               self.s.seed)
        self.expected = degrees(self.structure, shadow)
        self.keys = Zipf(list(self.structure.domain), self.s.seed)
        self.first = self.keys.order[0]
        self.enum_structure, _ = weighted_grid(self.s.size["enum_side"],
                                               self.s.seed)
        self.answers = set(triangles(self.enum_structure.relations["E"]))

    def _open(self, db: Database) -> Tuple[Any, Any, Any, Any]:
        service = db.serve(DEGREE, NATURAL, params=("x",))
        uncached = db.serve(DEGREE, NATURAL, params=("x",),
                            result_cache_size=0)
        prepared = db.prepare(DEGREE, params=("x",))
        got = (service.query(self.first, timeout=30),
               uncached.query(self.first, timeout=30),
               prepared.bind(self.first).value(NATURAL))
        return service, uncached, prepared, got

    def setup(self) -> None:
        self.db = self.s.database(self.structure)
        self.service, self.uncached, self.prepared, got = \
            self._open(self.db)
        enum_db = self.s.database(self.enum_structure, store=False)
        self.enumerator = enum_db.prepare(
            TRIANGLE_FORMULA, params=("x", "y", "z")).enumerate()
        first = self.enumerator.cursor().current()
        self.s.checker.check("first answers", got,
                             (self.expected[self.first],) * 3)
        self.s.checker.check("first enumerated answer",
                             first in self.answers, True)

    def reload(self, structure) -> Callable[[], None]:
        db = Database(structure, plan_store_path=self.s.store)
        got = self._open(db)[3]

        def check() -> None:
            self.s.checker.check("reloaded first answers", got,
                                 (self.expected[self.first],) * 3)
            self.s.check_store_hit(db, "point-read reload")
            db.close()
        return check

    def _phase(self, rate: float, duration: float,
               count: int = 0) -> OpenLoopResult:
        keys = self.keys.draw(count or max(1, int(rate * duration)))
        gc.collect()
        result = open_loop(self.service.submit, keys, rate)
        checker = self.s.checker
        for index, key in enumerate(keys):
            if result.error[index] is not None:
                checker.attempted += 1
                checker.fail(f"read {key!r}: {result.error[index]!r}")
            elif result.done[index] is None:
                checker.attempted += 1
                checker.fail(f"read {key!r}: timed out")
            else:
                checker.check(f"read {key!r}", result.value[index],
                              self.expected[key])
        return result

    def measure(self) -> None:
        """Rounds of open-loop reads at the reference rate, closed-loop
        reads through the uncached service, a saturation burst and a
        reload, so that each metric samples the whole run; then
        whole-domain ``group_by`` scans, which evict the served entries
        from the shared result cache and so come last."""
        s = self.s
        ref = s.size["ref_rate"]
        rounds = max(1, round(s.seconds / 2))
        share = s.seconds / rounds
        # Warm the result cache with one burst of reads due at once.
        self._phase(float("inf"), 0.0, count=s.size["warm_reads"])
        reference, lags = [], []
        hits = misses = batches = batched = 0
        for _ in range(rounds):
            before = self.service.stats()
            cache_before = self.db.stats()["result_cache"]
            chunk = self._phase(ref, 0.5 * share)
            after = self.service.stats()
            cache_after = self.db.stats()["result_cache"]
            reference.append(chunk)
            s.out["op"].extend(chunk.latencies())
            lags.extend(chunk.lags())
            hits += cache_after["hits"] - cache_before["hits"]
            misses += cache_after["misses"] - cache_before["misses"]
            batches += after["batches"] - before["batches"]
            batched += after["batched_queries"] - before["batched_queries"]
            self._uncached_reads(time.perf_counter() + 0.15 * share)
            s.out["rates"].append(self._saturation(s.size["burst_reads"]))
            s.reload()
        s.out["reference"] = reference
        s.layer.update({
            "load.generator_lag_p99_ms":
                percentile(lags, 99.0) * 1e3,
            "serve.result_cache_hit_ratio": hits / max(1, hits + misses),
            "serve.batches": batches,
            "serve.mean_batch": batched / max(1, batches),
        })
        self._scan()  # the first sweep builds the memoized base column
        s.out["scan"].clear()
        stop = s.deadline(0.05)
        while len(s.out["scan"]) < 3 or time.perf_counter() < stop:
            self._scan()
        oracle_checks(s, self.structure, self.expected)
        self._check_enumeration()
        s.kernel = kernel_of(self.service.stats())
        s.layer["circuits.kernel_fallbacks"] = s.kernel[1]
        s.layer["circuits.gates"] = self.prepared.stats()["gates"]

    def _uncached_reads(self, until: float) -> None:
        """Reads through the uncached service, one at a time, until the
        clock reads ``until``: each pays the batching delay and one
        sweep.  A closed loop, so a host stall delays one read, not
        every read due during it."""
        clock = time.perf_counter
        while clock() < until:
            key = self.keys.draw(1)[0]
            start = clock()
            value = self.uncached.query(key, timeout=30)
            self.s.out["op2"].append(clock() - start)
            self.s.checker.check(f"uncached read {key!r}", value,
                                 self.expected[key])

    def _saturation(self, count: int) -> Tuple[int, float]:
        """``count`` reads all due at once: how many were answered, and
        in how many seconds.  Their ratio is the most reads per second
        the generator and the service together answer, with the backlog
        left to grow."""
        result = self._phase(float("inf"), 0.0, count=count)
        done = [t for t in result.done if t is not None]
        return len(done), max(done) - result.due[0]

    def _scan(self) -> None:
        start = time.perf_counter()
        table = self.prepared.group_by(NATURAL)
        self.s.out["scan"].append(time.perf_counter() - start)
        self.s.checker.check("group_by", by_key(table), self.expected)

    def _check_enumeration(self) -> None:
        """One full cursor cycle must list every triangle once."""
        cursor = self.enumerator.cursor()
        seen = [cursor.current()]
        while not cursor.advance():
            seen.append(cursor.current())
        self.s.checker.check("enumerated answers",
                             (len(seen), set(seen)),
                             (len(self.answers), self.answers))


def oracle_checks(session: Session, structure, expected: Dict) -> None:
    """Cross-check the shadow-derived degrees with the naive oracle on a
    few seeded keys (the oracle loops over the whole domain per key)."""
    rng = random.Random(f"oracle:{session.seed}")
    domain = list(structure.domain)
    for key in rng.sample(domain, min(len(domain),
                                      session.size["oracle_keys"])):
        session.checker.check(f"oracle degree {key!r}",
                              expected[key], oracle_degree(structure, key))


# -- write-mix ----------------------------------------------------------------


class WriteMix:
    """Closed loop, one client: one single-weight ``db.update()`` per
    step, then Zipf point reads through ``bind().value`` and the service,
    a maintained read, and a whole-domain ``group_by`` every so often."""

    def __init__(self, session: Session) -> None:
        self.s = session

    def inputs(self) -> None:
        self.structure, self.shadow = weighted_grid(self.s.size["mix_side"],
                                                    self.s.seed)
        self.degree = degrees(self.structure, self.shadow)
        self.total = sum(self.shadow.values())
        self.keys = Zipf(list(self.structure.domain), self.s.seed)
        self.first = self.keys.order[0]
        self.edges = sorted(self.shadow)
        # The first answers over the generated weights, which set-up
        # and every reload (of an unwritten copy) must return.
        self.first_answers = (self.degree[self.first], self.total,
                              self.degree[self.first], dict(self.degree))

    def _open(self, db: Database) -> Tuple[Any, Any, Any, Any]:
        prepared = db.prepare(DEGREE, params=("x",))
        maintained = db.prepare(EDGE_SUM).maintain(NATURAL)
        service = db.serve(DEGREE, NATURAL, params=("x",))
        got = (prepared.bind(self.first).value(NATURAL), maintained.value(),
               service.query(self.first, timeout=30),
               by_key(prepared.group_by(NATURAL)))
        return prepared, maintained, service, got

    def setup(self) -> None:
        self.db = self.s.database(self.structure)
        self.prepared, self.maintained, self.service, got = \
            self._open(self.db)
        self.s.checker.check("first answers", got, self.first_answers)

    def reload(self, structure) -> Callable[[], None]:
        db = Database(structure, plan_store_path=self.s.store)
        got = self._open(db)[3]

        def check() -> None:
            self.s.checker.check("reloaded first answers", got,
                                 self.first_answers)
            self.s.check_store_hit(db, "write-mix reload")
            db.close()
        return check

    def measure(self) -> None:
        """Steps for the whole run, and on until there are enough steps
        for a tail and two ``group_by`` scans; a reload before and
        after."""
        s, checker = self.s, self.s.checker
        clock = time.perf_counter
        rng = random.Random(f"writes:{s.seed}")
        db, prepared, service = self.db, self.prepared, self.service
        writes, reads, scans = s.out["op"], s.out["op2"], s.out["scan"]
        every = s.size["groupby_every"]
        least = max(2 * every, int(s.size["min_steps_per_s"] * s.seconds))
        s.reload()
        cache_before = db.stats()["result_cache"]
        busy = 0.0
        stop = s.deadline(1.0)
        while clock() < stop or len(writes) < least:
            edge = self.edges[rng.randrange(len(self.edges))]
            old = self.shadow[edge]
            new = 1 + (old + rng.randrange(8)) % 9  # always a real change
            step_start = clock()
            with db.update() as tx:
                tx.set_weight("w", edge, new)
            writes.append(clock() - step_start)
            self.shadow[edge] = new
            self.degree[edge[0]] += new - old
            self.total += new - old
            for index, key in enumerate(self.keys.draw(4)):
                start = clock()
                if index % 2:
                    value = service.query(key, timeout=30)
                else:
                    value = prepared.bind(key).value(NATURAL)
                reads.append(clock() - start)
                checker.check(f"read {key!r}", value, self.degree[key])
            checker.check("maintained", self.maintained.value(), self.total)
            if len(writes) % every == 0:
                start = clock()
                table = prepared.group_by(NATURAL)
                scans.append(clock() - start)
                checker.check("group_by", by_key(table), self.degree)
            busy += clock() - step_start
        s.out["rates"].append((len(writes), busy))
        cache_after = db.stats()["result_cache"]
        hits = cache_after["hits"] - cache_before["hits"]
        misses = cache_after["misses"] - cache_before["misses"]
        s.layer["serve.result_cache_hit_ratio"] = hits / max(1, hits + misses)
        s.layer["circuits.gates"] = prepared.stats()["gates"]
        s.kernel = kernel_of(service.stats())
        s.layer["circuits.kernel_fallbacks"] = s.kernel[1]
        s.reload()
        oracle_checks(s, db.structure, self.degree)


SESSION_KINDS = {"point-read": PointRead, "write-mix": WriteMix}

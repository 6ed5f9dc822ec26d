"""Span tracing of clustercount's layers, from outside the program.

`Tracer.install()` wraps public functions of the `clustercount` modules and
rebinds each name wherever a `clustercount` module holds it (its own
module, every module that imported it, and registries such as
`suites.PAPER_SUITE`).  The program's files are not edited.  Each call
records a span (name, start, end, parent) in memory; `layer_metrics` turns
the spans and a few counters into the benchmark's per-layer numbers.

Pool workers run in other processes, so their spans never reach the
parent; the process pool is measured at its boundary (`counting.parallel`).
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from collections import Counter

ROOT = -1


class Tracer:
    """Spans and counters of one traced pass, and the patches that make them."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.counters: Counter = Counter()
        self.yielded: Counter = Counter()  # (generator, consumer span) -> items
        self.brute_sizes: list[int] = []
        self.instances: list[tuple[int, int]] = []
        self.missing: list[str] = []
        self._undo: list = []

    # -- spans ---------------------------------------------------------------

    def enter(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else ROOT)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def exit(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def current(self) -> str | None:
        return self.names[self.name_id[self._stack[-1]]] if self._stack else None

    def arrays(self):
        """Per span, as NumPy views: name index (into `names`), parent span
        index (ROOT at the top), start and end (perf_counter seconds)."""
        import numpy as np

        return (np.frombuffer(self.name_id, dtype=np.int32),
                np.frombuffer(self.parent, dtype=np.int64),
                np.frombuffer(self.start), np.frombuffer(self.end))

    def write(self, path) -> None:
        """Save `names` and the `arrays()` as a NumPy .npz file."""
        import numpy as np

        name_id, parent, start, end = self.arrays()
        np.savez(path, names=np.array(self.names), name_id=name_id,
                 parent=parent, start=start, end=end)

    # -- wrapping ------------------------------------------------------------

    def wrap(self, fn, name: str, after=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.exit(idx)
            if after is not None:
                after(args, kwargs, result)
            return result
        return traced

    def wrap_generator(self, fn, name: str):
        """One span per step, so the consumer's work between steps is not
        charged to the generator; items are counted per consumer."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.counters[name + ".calls"] += 1
            consumer = self.current()
            gen = fn(*args, **kwargs)
            while True:
                idx = self.enter(name)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    self.exit(idx)
                self.yielded[name, consumer] += 1
                yield item
        return traced

    def _rebind(self, orig, new) -> None:
        for modname, mod in list(sys.modules.items()):
            if modname != "clustercount" and not modname.startswith("clustercount."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, attr, new)
                    self._undo.append((setattr, mod, attr, orig))
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if item is orig:
                            value[key] = new
                            self._undo.append((dict.__setitem__, value, key, orig))

    def _patch_function(self, module: str, attr: str, name: str, after=None,
                        generator=False) -> None:
        try:
            orig = getattr(importlib.import_module(module), attr)
        except (ImportError, AttributeError):
            self.missing.append(f"{module}.{attr}")
            return
        new = (self.wrap_generator(orig, name) if generator
               else self.wrap(orig, name, after))
        self._rebind(orig, new)

    def _patch_method(self, cls, attr: str, name: str, after=None) -> None:
        orig = cls.__dict__.get(attr)
        if orig is None:
            self.missing.append(f"{cls.__name__}.{attr}")
            return
        setattr(cls, attr, self.wrap(orig, name, after))
        self._undo.append((setattr, cls, attr, orig))

    def install(self) -> None:
        """Wrap every traced layer of the imported `clustercount`."""
        from clustercount import counting, gf, suites

        def field_made(args, kwargs, result):
            self.counters["gf.fields"] += 1
            self.counters["gf.prime_power_fields"] += args[0].k > 1

        def brute_done(args, kwargs, result):
            inst = args[0]
            self.brute_sizes.append(inst.field.q ** inst.n)
            self.instances.append((inst.field.q, inst.n))

        def recursion_done(args, kwargs, result):
            inst = args[0]
            self.instances.append((inst.field.q, inst.n))

        def fit_done(args, kwargs, result):
            self.counters["qpoly.samples"] += len(result.samples) + len(result.held_out)

        def singular_done(args, kwargs, result):
            self.counters["singular.found"] += len(result)

        def battery_done(args, kwargs, result):
            self.counters["suites.checks"] += result.checked

        self._patch_method(gf.Field, "__init__", "gf.field_new", field_made)
        for table in ("mul_table", "plus_one_table", "inv_table"):
            self._patch_method(gf.Field, table, "gf.tables")
        for module, attr, after in (
                ("clustercount.forests", "canonical_form", None),
                ("clustercount.forests", "leafy_tiling", None),
                ("clustercount.coeffs", "normalize", None),
                ("clustercount.coeffs", "leaf_removal_transforms", None),
                ("clustercount.counting", "brute_count", brute_done),
                ("clustercount.recursion", "recursive_count", recursion_done),
                ("clustercount.formulas", "formula_count", None),
                ("clustercount.qpoly", "fit_and_verify", fit_done),
                ("clustercount.qpoly", "interpolate_counts", None),
                ("clustercount.singular", "singular_points", singular_done),
                ("clustercount.singular", "jacobian_at", None),
                ("clustercount.singular", "rank", None)):
            layer = module.split(".")[1]
            self._patch_function(module, attr, f"{layer}.{attr}", after)
        self._patch_function("clustercount.counting", "brute_points",
                             "counting.brute_points", generator=True)
        kernels = ["clustercount._countpy"]
        if counting.EXTENSION_AVAILABLE:
            kernels.append("clustercount._countcore")
        for kernel in kernels:
            self._patch_function(kernel, "count_block", "counting.kernel")
        self._patch_pool(counting)
        for key, fn in dict(getattr(suites, "PAPER_SUITE", {})).items():
            self._rebind(fn, self.wrap(fn, f"suites.{key}", battery_done))

    def _patch_pool(self, counting) -> None:
        real = getattr(counting, "ProcessPoolExecutor", None)
        if real is None:
            self.missing.append("clustercount.counting.ProcessPoolExecutor")
            return
        tracer = self

        class TracedPool:
            """The pool's lifetime, creation to shutdown, as one span."""

            def __init__(self, *args, **kwargs):
                self._idx = tracer.enter("counting.parallel")
                self._pool = real(*args, **kwargs)

            def __enter__(self):
                return self._pool.__enter__()

            def __exit__(self, *exc):
                try:
                    return self._pool.__exit__(*exc)
                finally:
                    tracer.exit(self._idx)

        self._rebind(real, TracedPool)

    def uninstall(self) -> None:
        while self._undo:
            setter, obj, key, orig = self._undo.pop()
            setter(obj, key, orig)


# ---------------------------------------------------------------------------
# span arithmetic
# ---------------------------------------------------------------------------

def self_times(parent, start, end):
    """Per span: its duration minus the durations of its direct children.
    The spans come from one call stack, so children nest inside their
    parent and do not overlap: together they cover exactly that much."""
    import numpy as np

    dur = end - start
    inner = parent != ROOT
    return dur - np.bincount(parent[inner], weights=dur[inner],
                             minlength=len(dur))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


BATTERIES = ("typeA", "typeD", "typeE", "reduction", "yz", "fibration",
             "smoothness", "cohomology", "interpolation", "primepower")
RECURSION = "recursion.recursive_count"
MEMO_KEY = ("forests.canonical_form", "forests.leafy_tiling", "coeffs.normalize")


def _per_name(tracer: Tracer):
    """Span count, total time and self time per span name, plus the number
    and total time of memo-key spans called directly by the recursion."""
    import numpy as np

    name_id, parent, start, end = tracer.arrays()
    dur = end - start
    k = len(tracer.names)

    def by_name(weights=None):
        sums = np.bincount(name_id, weights, minlength=k).tolist()
        return Counter(dict(zip(tracer.names, sums)))

    ids = {name: i for i, name in enumerate(tracer.names)}
    under = np.zeros(len(dur), dtype=bool)
    if RECURSION in ids:
        under = (parent != ROOT) & (name_id[parent] == ids[RECURSION])
    in_key = under & np.isin(name_id, [ids[n] for n in MEMO_KEY if n in ids])
    keys = int((under & (name_id == ids.get(MEMO_KEY[0], -1))).sum())
    return (by_name(), by_name(dur), by_name(self_times(parent, start, end)),
            keys, float(dur[in_key].sum()))


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """The benchmark's per-layer metrics from one traced pass."""
    calls, total, own, key_calls, key_time = _per_name(tracer)
    c = tracer.counters
    m: dict[str, float] = {}
    for name in ("gf.field_new", "gf.tables", "forests.canonical_form",
                 "forests.leafy_tiling", "coeffs.normalize",
                 "coeffs.leaf_removal_transforms", "counting.brute_count",
                 "formulas.formula_count", "qpoly.fit_and_verify",
                 "singular.singular_points", "singular.rank"):
        m[f"{name}.calls"] = calls[name]
        m[f"{name}.s"] = total[name]
    assignments = sum(tracer.brute_sizes)
    m["counting.assignments"] = assignments
    m["counting.assign_per_s"] = _ratio(assignments, total["counting.brute_count"])
    m["counting.kernel.s"] = total["counting.kernel"]
    m["counting.parallel_calls"] = calls["counting.parallel"]
    m["counting.parallel.s"] = total["counting.parallel"]
    m["counting.brute_points.calls"] = c["counting.brute_points.calls"]
    m["counting.brute_points.s"] = total["counting.brute_points"]
    m["counting.points_yielded"] = sum(
        n for (gen, _), n in tracer.yielded.items() if gen == "counting.brute_points")
    nodes = calls["coeffs.leaf_removal_transforms"]
    m["recursion.recursive_count.calls"] = calls[RECURSION]
    m["recursion.recursive_count.self_s"] = own[RECURSION]
    m["recursion.nodes"] = nodes
    m["recursion.keys"] = key_calls
    m["recursion.memo_hit_ratio"] = 1 - _ratio(nodes, key_calls) if key_calls else 0.0
    m["recursion.key_share"] = _ratio(key_time, total[RECURSION])
    m["qpoly.interpolate_counts.s"] = total["qpoly.interpolate_counts"]
    m["qpoly.samples"] = c["qpoly.samples"]
    m["singular.jacobian_at.s"] = total["singular.jacobian_at"]
    points = tracer.yielded["counting.brute_points", "singular.singular_points"]
    m["singular.prefilter_pass_ratio"] = _ratio(calls["singular.rank"], points)
    m["singular.useful_ratio"] = _ratio(c["singular.found"], calls["singular.rank"])
    for battery in BATTERIES:
        m[f"suites.{battery}.s"] = total[f"suites.{battery}"]
    m["suites.checks"] = c["suites.checks"]
    m["cli.main.calls"] = calls["cli.main"]
    m["cli.self_s"] = own["cli.main"]
    return m


def census(tracer: Tracer, threshold: int | None) -> dict:
    """What one traced pass fed each layer, for claims about input shares."""
    sizes = tracer.brute_sizes
    qs = [q for q, _ in tracer.instances]
    ns = [n for _, n in tracer.instances]
    c = tracer.counters
    calls = _per_name(tracer)[0]
    return {
        "ops": calls["cli.main"],
        "assignments": sum(sizes),
        "brute_calls": len(sizes),
        "brute_above_pool_threshold_share":
            _ratio(sum(s >= threshold for s in sizes), len(sizes))
            if threshold is not None else None,
        "pool_threshold": threshold,
        "prime_power_field_share": _ratio(c["gf.prime_power_fields"], c["gf.fields"]),
        "q_range": [min(qs), max(qs)] if qs else None,
        "n_range": [min(ns), max(ns)] if ns else None,
        "memo_entries": calls["coeffs.leaf_removal_transforms"],
    }

"""Span tracing of the library's layers, from outside the library.

`Recorder.patch()` wraps the public functions of each layer in a timer
and puts the wrapper into every `posetmorse.*` namespace that holds the
function, because modules bind names with `from .x import f`.  Methods
and constructors are wrapped on their class.  `unpatch()` restores the
originals.  A span is (name, start, end, parent span, job); spans stay in
memory until `write()`.  Self time is a span's duration minus that of its
direct children, so the self times of all spans add up to the time spent
inside the root spans.
"""

from __future__ import annotations

import gzip
import json
import sys
import time
from array import array
from collections import defaultdict


def _matrix_cells(rec, args, result):
    a = args[0]
    return {"cells": a.rows * a.cols}


def _matrix_cells_nonzeros(rec, args, result):
    a = args[0]
    return {"cells": a.rows * a.cols, "nonzeros": sum(1 for row in a.data for v in row if v)}


def _dd_ops(rec, args, result):
    """rows x inner x cols summed over the d.d products the constructor
    checks, from the shapes of the boundary matrices."""
    boundary = args[0].boundary
    ops = sum(m.rows * m.cols * boundary[p + 1].cols
              for p, m in boundary.items() if p + 1 in boundary)
    return {"dd_ops": ops}


def _order_complex(rec, args, result):
    key = frozenset(args[0].elements)
    seen = rec.seen_element_sets
    repeat = key in seen
    seen.add(key)
    return {"simplices": sum(len(s) for s in result.simplices.values()),
            "repeats": int(repeat)}


# (span name, module, attribute path, counter); the root span comes first
LAYERS = [
    ("cli.run", "posetmorse.cli", "run", None),
    ("cli.report", "posetmorse.formats", "report_document", None),
    ("formats.load", "posetmorse.formats", "load_poset", None),
    ("formats.load", "posetmorse.formats", "load_complex", None),
    ("formats.load", "posetmorse.formats", "parse_matching_text", None),
    ("formats.load", "posetmorse.formats", "parse_function_text", None),
    ("posets.induced", "posetmorse.posets", "Poset.induced", None),
    ("simplicial.complex", "posetmorse.simplicial", "SimplicialComplex.__init__", None),
    ("simplicial.order_complex", "posetmorse.simplicial", "order_complex", _order_complex),
    ("homology.chain_complex", "posetmorse.homology", "ChainComplex.__init__", _dd_ops),
    ("homology.homology", "posetmorse.homology", "homology", None),
    ("snf.diagonal_form", "posetmorse.snf", "diagonal_form", _matrix_cells_nonzeros),
    ("snf.smith_normal_form", "posetmorse.snf", "smith_normal_form", _matrix_cells),
    ("cellular.check_cellularity", "posetmorse.cellular", "check_cellularity", None),
    ("cellular.cellular_chain_complex", "posetmorse.cellular", "cellular_chain_complex", None),
    ("cellular.sphere_generator", "posetmorse.cellular", "sphere_generator", None),
    ("dynamics.basic_sets", "posetmorse.dynamics", "basic_sets", None),
    ("dynamics.is_morse_smale", "posetmorse.dynamics", "is_morse_smale", None),
    ("morse.integrate_matching", "posetmorse.morse", "integrate_matching", None),
    ("morse.verify_collapse", "posetmorse.morse", "verify_collapse", None),
    ("inequalities.morse_bott_numbers", "posetmorse.inequalities", "morse_bott_numbers", None),
    ("category.minimal_subcomplex", "posetmorse.category", "minimal_subcomplex", None),
    ("category.flow_operator", "posetmorse.category", "flow_operator", None),
    ("category.verify_quasi_isomorphism", "posetmorse.category",
     "verify_quasi_isomorphism", None),
]

# Reported per-layer metrics: (name, unit, better, what it should move).
# Times and counts are per round, i.e. per pass over the workload's job list.
PER_LAYER = [
    ("formats.load.self_s", "s", "lower", "job_p50_ms on wide-poset"),
    ("posets.induced.calls", "count", "lower",
     "jobs_per_s on theorem-checks, job_p50_ms on wide-poset"),
    ("posets.induced.self_s", "s", "lower",
     "jobs_per_s on theorem-checks, job_p50_ms on wide-poset"),
    ("simplicial.complex.self_s", "s", "lower",
     "job_p50_ms on wide-poset, jobs_per_s on theorem-checks"),
    ("simplicial.order_complex.calls", "count", "lower",
     "jobs_per_s and peak_rss_mb on deep-chains"),
    ("simplicial.simplices", "count", "lower", "jobs_per_s and peak_rss_mb on deep-chains"),
    ("simplicial.order_complex.repeat_ratio", "ratio", "lower", "jobs_per_s on theorem-checks"),
    ("homology.chain_complex.self_s", "s", "lower",
     "job_tail_ms on deep-chains and wide-poset"),
    ("homology.dd_ops", "count", "lower", "job_tail_ms on deep-chains and wide-poset"),
    ("homology.homology.calls", "count", "lower", "jobs_per_s on deep-chains"),
    ("homology.homology.self_s", "s", "lower", "jobs_per_s on deep-chains"),
    ("snf.diagonal_form.calls", "count", "lower",
     "jobs_per_s on deep-chains, job_p50_ms on wide-poset"),
    ("snf.diagonal_form.self_s", "s", "lower",
     "jobs_per_s on deep-chains, job_p50_ms on wide-poset"),
    ("snf.diagonal_form.cells", "count", "lower",
     "jobs_per_s on deep-chains, job_p50_ms on wide-poset"),
    ("snf.diagonal_form.nonzeros", "count", "lower",
     "jobs_per_s on deep-chains, job_p50_ms on wide-poset"),
    ("snf.smith_normal_form.calls", "count", "lower", "job_tail_ms on theorem-checks"),
    ("snf.smith_normal_form.self_s", "s", "lower", "job_tail_ms on theorem-checks"),
    ("snf.smith_normal_form.cells", "count", "lower", "job_tail_ms on theorem-checks"),
    ("cellular.check_cellularity.self_s", "s", "lower",
     "job_p50_ms on wide-poset, jobs_per_s on deep-chains"),
    ("cellular.cellular_chain_complex.self_s", "s", "lower",
     "job_p50_ms on wide-poset, jobs_per_s on deep-chains"),
    ("cellular.sphere_generator.calls", "count", "lower",
     "job_p50_ms on wide-poset, jobs_per_s on deep-chains"),
    ("dynamics.basic_sets.calls", "count", "lower", "job_p50_ms on wide-poset"),
    ("dynamics.basic_sets.self_s", "s", "lower", "job_p50_ms on wide-poset"),
    ("dynamics.is_morse_smale.self_s", "s", "lower", "job_p50_ms on wide-poset"),
    ("morse.integrate_matching.self_s", "s", "lower", "job_p50_ms on wide-poset"),
    ("morse.verify_collapse.calls", "count", "lower", "jobs_per_s on theorem-checks"),
    ("morse.verify_collapse.self_s", "s", "lower", "jobs_per_s on theorem-checks"),
    ("inequalities.morse_bott_numbers.self_s", "s", "lower", "jobs_per_s on theorem-checks"),
    ("category.minimal_subcomplex.self_s", "s", "lower", "job_tail_ms on theorem-checks"),
    ("category.flow_operator.self_s", "s", "lower", "job_tail_ms on theorem-checks"),
    ("category.verify_quasi_isomorphism.self_s", "s", "lower",
     "job_tail_ms on theorem-checks"),
    ("cli.report.self_s", "s", "lower", "job_p50_ms on wide-poset"),
    ("cli.run.self_s", "s", "lower", "job_p50_ms on every workload"),
    ("trace.traced_job_s", "s", "lower",
     "traced job time per round; the self times add up to it"),
    ("trace.self_sum_s", "s", "lower", "sum of every span's self time per round"),
    ("trace.overhead_s", "s", "lower", "traced minus untraced job time per round"),
    ("trace.untraced_jobs_per_s", "1/s", "higher", "jobs_per_s of the untraced rounds"),
    ("trace.overhead_jobs_per_s", "1/s", "lower",
     "untraced minus traced jobs_per_s: the cost of tracing"),
]


def _resolve(module: str, path: str):
    owner = sys.modules[module]
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


class Recorder:
    """Collects spans and counters while patched in.

    Span fields live in flat arrays, which the cyclic garbage collector
    never scans; a list per span would make every full collection inside
    a traced job walk all spans recorded so far."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names = sorted({layer[0] for layer in LAYERS})
        self.name_id = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.job_of = array("q")
        self.stack: list[int] = []
        self.job = -1
        self.counts: dict[str, float] = defaultdict(float)
        self.seen_element_sets: set = set()
        self._patches: list[tuple[object, str, object]] = []

    def __len__(self) -> int:
        return len(self.start)

    def start_job(self, job_id: int) -> None:
        self.job = job_id
        self.seen_element_sets = set()

    def _wrap(self, name: str, fn, counter):
        nid = self.names.index(name)
        stack, clock, counts = self.stack, self.clock, self.counts
        name_id, starts, ends, parents, jobs = (self.name_id, self.start, self.end,
                                                self.parent, self.job_of)

        def traced(*args, **kwargs):
            i = len(starts)
            name_id.append(nid)
            parents.append(stack[-1] if stack else -1)
            jobs.append(self.job)
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if counter is not None:
                for key, value in counter(self, args, result).items():
                    counts[f"{name}.{key}"] += value
            return result

        traced.__wrapped__ = fn
        return traced

    def patch(self) -> None:
        for name, module, path, counter in LAYERS:
            owner, attr = _resolve(module, path)
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original, counter)
            if isinstance(owner, type):
                self._patches.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                continue
            for mod_name, mod in list(sys.modules.items()):
                if mod_name.split(".")[0] != "posetmorse":
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def unpatch(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def layer_totals(self, job_scale=None) -> dict[str, dict[str, float]]:
        """calls, total and self seconds per span name, each span's time
        multiplied by its job's entry in `job_scale` when given."""
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        names, name_id, jobs = self.names, self.name_id, self.job_of
        for i, (start, end, parent) in enumerate(zip(self.start, self.end, self.parent)):
            d = (end - start) * (job_scale[jobs[i]] if job_scale else 1.0)
            row = out[names[name_id[i]]]
            row["calls"] += 1
            row["total_s"] += d
            row["self_s"] += d
            if parent >= 0:
                out[names[name_id[parent]]]["self_s"] -= d
        return out

    def write(self, path) -> None:
        """All spans as JSON lines [name, start, end, parent, job], gzip
        compressed, times from the first span."""
        t0 = self.start[0] if len(self) else 0.0
        with gzip.open(path, "wt") as fh:
            for i in range(len(self)):
                fh.write(json.dumps([self.names[self.name_id[i]], self.start[i] - t0,
                                     self.end[i] - t0, self.parent[i], self.job_of[i]]) + "\n")

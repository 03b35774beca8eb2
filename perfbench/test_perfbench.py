"""Checks of the benchmark's own parts: generators, oracle, time budget and
the metric tables.  Run from the checkout root:

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import sys
import time
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from posetmorse import cli  # noqa: E402

from perfbench import inputs, oracle, run, stats, trace, workloads  # noqa: E402


def _no_filter(space, pairs):
    raise AssertionError("deep-chains needs no matchings")


def _run(job, folder):
    for name, text in workloads.Prepared((job.space,), (job,)).files().items():
        (folder / name).write_text(text)
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.run(run.argv_for(job, folder))
    return code, out.getvalue()


def test_subdivision_f_vectors():
    rng = random.Random(0)
    rp2 = inputs.relabel(inputs.RP2_6, rng)
    sd = inputs.subdivide(rp2, rng, "b")
    assert inputs.f_vector(sd) == (31, 90, 60)
    assert inputs.f_vector(inputs.subdivide(sd, rng, "c")) == (181, 540, 360)
    assert inputs.f_vector(inputs.boundary_simplex(4)) == (5, 10, 10, 5)


def test_inputs_depend_only_on_the_seed():
    def digest(seed):
        variants = workloads.prepare("deep-chains", seed, _no_filter)
        return [inputs.fingerprint(p.files()) for p in variants]

    one = digest(1)
    assert one == digest(1)
    assert one != digest(2)
    assert len(set(one)) == len(one)


def test_random_poset_is_graded_and_bounded():
    levels, covers = inputs.random_graded_poset(random.Random(3), levels=4, width=30)
    level_of = {e: i for i, level in enumerate(levels) for e in level}
    assert all(level_of[x] == level_of[w] + 1 for w, x in covers)
    fan_in = {}
    for _, x in covers:
        fan_in[x] = fan_in.get(x, 0) + 1
    assert all(1 <= fan_in[x] <= 3 for level in levels[1:] for x in level)
    assert fan_in[levels[1][0]] == 1


def test_planted_orbit_alternates_without_chords():
    rng = random.Random(5)
    maximal = inputs.subdivide(inputs.relabel(inputs.MOBIUS_5, rng), rng, "b")
    elements, covers = inputs.face_poset_covers(maximal)
    degree = {e: e.count("|") for e in elements}
    pairs = inputs.planted_orbit(rng, elements, covers, degree)
    assert len(pairs) >= 3
    assert all((w, x) in set(covers) for w, x in pairs)
    p = degree[pairs[0][0]]
    assert all(degree[w] == p and degree[x] == p + 1 for w, x in pairs)


def test_oracle_accepts_right_and_rejects_wrong_answers(tmp_path):
    prepared = workloads.deep_chains(random.Random(1), _no_filter)
    rp2 = next(s for s in prepared.spaces if s.name == "rp2")
    job = workloads.Job("homology", rp2)
    code, out = _run(job, tmp_path)
    assert oracle.check(job, code, out) is None
    wrong = replace(rp2, homology={0: (1, ()), 1: (1, ())})   # H_1 = Z instead of Z/2
    assert "homology" in oracle.check(workloads.Job("homology", wrong), code, out)
    validate = workloads.Job("validate", rp2)
    code, out = _run(validate, tmp_path)
    assert oracle.check(validate, code, out) is None
    bad_f = replace(rp2, f_vector=(6, 15, 11))
    assert "f-vector" in oracle.check(workloads.Job("validate", bad_f), code, out)
    assert oracle.check(job, 1, out) == "exit code 1"
    assert oracle.check(job, 0, "not json").startswith("malformed report")


def test_overrunning_job_times_out(monkeypatch):
    class Slow:
        @staticmethod
        def run(argv):
            while True:
                time.sleep(0.01)

    monkeypatch.setattr(run, "JOB_BUDGET_S", 0.2)
    previous = run.signal.signal(run.signal.SIGALRM, run._on_alarm)
    try:
        prepared = workloads.deep_chains(random.Random(1), _no_filter)
        elapsed, reason = run.run_job(Slow, prepared.jobs[0], [])
    finally:
        run.signal.signal(run.signal.SIGALRM, previous)
    assert reason.startswith("timeout")
    assert elapsed < 5


def test_quantiles():
    assert stats.tail_percentile(100) == 90.0
    assert stats.tail_percentile(12) == 50.0
    assert abs(stats.quantile([1, 2, 3, 4, 5], 0.5) - 3.0) < 1e-9
    values = [float(i) for i in range(101)]
    assert abs(stats.quantile(values, 0.5) - 50.0) < 1e-9
    assert 85.0 < stats.quantile(values, 0.9) < 95.0
    # the Beta law's distribution function, against a midpoint-rule integral
    a, b, x, n = 3.3, 7.1, 0.4, 20000
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    integral = sum(math.exp(log_norm + (a - 1) * math.log(t) + (b - 1) * math.log1p(-t))
                   for t in ((i + 0.5) * x / n for i in range(n))) * x / n
    assert abs(stats.beta_cdf(x, a, b) - integral) < 1e-6


def test_benchmark_json_names_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == [m[0] for m in trace.PER_LAYER]
    assert {m["name"] for m in spec["end_to_end"]} == {
        "jobs_per_s", "job_p50_ms", "job_tail_ms", "setup_s", "peak_rss_mb"}
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_trace_self_times_add_up_and_unpatch_restores(tmp_path):
    homology_module = sys.modules["posetmorse.homology"]
    prepared = workloads.deep_chains(random.Random(1), _no_filter)
    rp2 = next(s for s in prepared.spaces if s.name == "rp2")
    originals = homology_module.homology, cli.run
    recorder = trace.Recorder()
    recorder.patch()
    try:
        recorder.start_job(0)
        code, out = _run(workloads.Job("cellular", rp2), tmp_path)
    finally:
        recorder.unpatch()
    assert (homology_module.homology, cli.run) == originals
    assert code == 0
    totals = recorder.layer_totals()
    assert totals["cli.run"]["calls"] == 1
    assert totals["homology.homology"]["calls"] > 0
    root = totals["cli.run"]["total_s"]
    assert abs(sum(row["self_s"] for row in totals.values()) - root) < 1e-6 * max(1.0, root)
    assert recorder.counts["homology.chain_complex.dd_ops"] > 0

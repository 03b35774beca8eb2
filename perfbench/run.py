"""posetmorse benchmark: seeded CLI job streams, run in-process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from
`src/`.  Set-up generates the workload's inputs from the seed (several
seeded variants of every input), three times, and checks the three sets
are identical.  Then one closed-loop client in one process, without
threads, runs whole rounds until `--seconds` of wall time have passed
and the workload's minimum number of rounds has run.  A round is every
job of the workload once, on the next variant, in a seeded order; a job
is one `posetmorse.cli.run(argv)` call with `--format doc`, checked by
the oracle and bounded by a time budget.

Times are CPU seconds of this process (`time.process_time`), scaled to
a reference speed.  The jobs are single-threaded, CPU-bound and read
small files from the page cache, so on a quiet machine CPU time equals
wall time; on a shared one it leaves out the time other tenants take the
processor.  Even CPU time for identical work drifts by up to a factor
of two on a shared host as the processor's effective speed changes, so
before every job the harness times a fixed pure-Python kernel,
`reference()`, and multiplies the jobs of each round by REFERENCE_S over
the median kernel time of that round.  The kernel never touches the
library, so a change to the library moves the scaled times in full.

With `--trace 0` the last line of stdout is a JSON object whose metrics
are the end-to-end ones: jobs_per_s, job_p50_ms and job_tail_ms
(Harrell-Davis estimates of the median and of the highest percentile
with at least ten jobs beyond it), setup_s (median of the three set-ups,
each a fresh-interpreter import of the CLI plus input generation) and
peak_rss_mb.  Failed jobs are the result's `failed` count.  With `--trace 1` each variant runs once untraced and once
traced; the metrics are the per-layer ones of `trace.PER_LAYER`, per
traced round, and the spans are written to perfbench-out/.

Exits with code 2, printing no result, when the checkout has no library.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import random
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench-out"

CLOCK = time.process_time
# CPU seconds of one reference() pass at the speed every time is scaled to
REFERENCE_S = 0.005
SETUPS = 3
JOB_BUDGET_S = 30.0
# whole rounds may run past --seconds; past this much extra, stop mid-round
OVERRUN_S = 100.0


class JobTimeout(BaseException):
    """Raised by the interval timer inside a job that overran its budget."""


def _on_alarm(signum, frame):
    raise JobTimeout()


def _children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def reference() -> float:
    """CPU seconds of a fixed pure-Python kernel of integer, tuple-key dict
    and sort work, the operations the library spends its time in."""
    t0 = CLOCK()
    table = {}
    rows = [[(i * j) % 7 - 3 for j in range(60)] for i in range(60)]
    for k in range(3):
        for i, row in enumerate(rows):
            for j, v in enumerate(row):
                table[(i, j)] = 2 * v + k
        sorted(table.items(), key=lambda kv: kv[1])
    return CLOCK() - t0


def speed_scale(samples: list[float]) -> float:
    """Factor from CPU seconds measured now to seconds at reference speed."""
    return REFERENCE_S / statistics.median(samples)


def set_up(workload: str, seed: int):
    """(seconds at reference speed, inputs per variant): import the CLI in a
    fresh interpreter, then generate the inputs.  Only the
    Morse-Smale-with-orbit filter calls the library."""
    from posetmorse.dynamics import is_morse_smale, validate_matching
    from posetmorse.formats import load_complex, load_poset
    from posetmorse.simplicial import face_poset
    from perfbench.workloads import prepare

    posets = {}

    def is_ms_with_orbit(space, pairs) -> bool:
        poset = posets.get(space.text)
        if poset is None:
            poset = (face_poset(load_complex(space.text)) if space.kind == "simplicial"
                     else load_poset(space.text)[0])
            posets[space.text] = poset
        verdict = is_morse_smale(poset, validate_matching(poset, pairs))
        return verdict.is_morse_smale and bool(verdict.orbits)

    refs = [reference() for _ in range(5)]
    child, own = _children_cpu(), CLOCK()
    subprocess.run([sys.executable, "-c", "import posetmorse.cli"], check=True, cwd=ROOT,
                   env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=120)
    variants = prepare(workload, seed, is_ms_with_orbit)
    elapsed = _children_cpu() - child + CLOCK() - own
    refs += [reference() for _ in range(5)]
    return elapsed * speed_scale(refs), variants


def run_job(cli, job, argv):
    """(CPU seconds, failure reason or None) for one CLI call."""
    from perfbench.oracle import check

    out, err = io.StringIO(), io.StringIO()
    code, reason = None, None
    # start every job from a collected heap, as a fresh CLI process would
    gc.collect()
    t0 = CLOCK()
    signal.setitimer(signal.ITIMER_REAL, JOB_BUDGET_S)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run(argv)
    except JobTimeout:
        reason = f"timeout after {JOB_BUDGET_S} s"
    except SystemExit as exc:
        reason = f"exit {exc.code}: {err.getvalue().strip()[-200:]}"
    except Exception as exc:  # a traceback is a failed job, not a failed run
        reason = f"{type(exc).__name__}: {exc}"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        elapsed = CLOCK() - t0
    if reason is None:
        reason = check(job, code, out.getvalue())
        if reason and code:
            reason += f" ({err.getvalue().strip()[-200:]})"
    return elapsed, reason


def argv_for(job, folder: Path) -> list[str]:
    argv = [job.command, "--input", str(folder / f"{job.space.name}.txt"),
            "--kind", job.space.kind, "--format", "doc"]
    if job.command == "homology":
        argv.append("--via-poset")
    if job.matching:
        argv += ["--matching", str(folder / f"{job.space.name}.{job.matching}.txt")]
    return argv


def measure(args, variants, folder: Path, min_rounds: int):
    """Run whole rounds until --seconds of wall time have passed and at
    least `min_rounds` untraced ones have run.

    Returns {traced: [round, ...]} with a round a list of (label, seconds
    at reference speed, failure), the scale applied to each job id, and
    the recorder.  In trace mode each variant runs untraced, then traced.
    Each job is preceded by a reference() pass; the median of a round's
    passes gives the scale for the round's jobs.
    """
    from posetmorse import cli
    from perfbench.trace import Recorder

    rng = random.Random(f"order-{args.seed}")
    recorder = Recorder(CLOCK) if args.trace else None
    jobs = [[(job, argv_for(job, folder / f"v{v}")) for job in p.jobs]
            for v, p in enumerate(variants)]
    rounds = {False: [], True: []}
    job_scale = {}
    start = time.perf_counter()
    stop_at, give_up_at = start + args.seconds, start + args.seconds + OVERRUN_S
    count = job_id = 0
    while True:
        traced = recorder is not None and count % 2 == 1
        variant = count // 2 if recorder is not None else count
        order = list(jobs[variant % len(jobs)])
        rng.shuffle(order)
        done, refs = [], []
        if traced:
            recorder.patch()
        try:
            for job, argv in order:
                if recorder is not None:
                    recorder.start_job(job_id)
                refs.append(reference())
                elapsed, reason = run_job(cli, job, argv)
                done.append((job.label, elapsed, reason, job_id))
                job_id += 1
                if time.perf_counter() > give_up_at:
                    break
        finally:
            if traced:
                recorder.unpatch()
        scale = speed_scale(refs)
        rounds[traced].append([(label, s * scale, reason) for label, s, reason, _ in done])
        job_scale.update((jid, scale) for *_, jid in done)
        count += 1
        now = time.perf_counter()
        enough = len(rounds[False]) >= (1 if recorder is not None else min_rounds)
        if (now >= stop_at and enough and (recorder is None or traced)) or now > give_up_at:
            break
    return rounds, job_scale, recorder


def end_to_end(rounds, setup_s: float) -> dict:
    """Job throughput and latency from the jobs' own time, which leaves
    out the oracle, the reference passes and the collection between jobs."""
    from perfbench.stats import TAIL_BEYOND, quantile, tail_percentile

    latencies = [s for r in rounds for _, s, _ in r]
    pct = tail_percentile(len(latencies))
    tail_s = quantile(latencies, pct / 100)
    print(f"# job_tail_ms is the p{pct:.2f} latency of {len(latencies)} jobs; "
          f"the sample median and p{pct:.2f} are "
          f"{1000 * statistics.median(latencies):.3f} and "
          f"{1000 * sorted(latencies)[max(0, len(latencies) - TAIL_BEYOND - 1)]:.3f} ms")
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "jobs_per_s": {"value": len(latencies) / sum(latencies), "unit": "1/s"},
        "job_p50_ms": {"value": 1000 * quantile(latencies, 0.5), "unit": "ms"},
        "job_tail_ms": {"value": 1000 * tail_s, "unit": "ms"},
        "setup_s": {"value": setup_s, "unit": "s"},
        "peak_rss_mb": {"value": rss_kb / 1024, "unit": "MB"},
    }


def per_layer(rounds, job_scale, recorder) -> dict:
    """Per-layer metrics per traced round; tracing overhead from the
    untraced run of the same variants."""
    from perfbench.trace import PER_LAYER

    n = len(rounds[True])
    untraced = rounds[False][:n]
    totals = recorder.layer_totals(job_scale)
    counts = recorder.counts
    job_time = {t: sum(s for r in rs for _, s, _ in r) for t, rs in ((False, untraced),
                                                                     (True, rounds[True]))}
    jobs = sum(len(r) for r in rounds[True])
    per_round = {
        "simplicial.simplices": counts["simplicial.order_complex.simplices"],
        "homology.dd_ops": counts["homology.chain_complex.dd_ops"],
        "snf.diagonal_form.cells": counts["snf.diagonal_form.cells"],
        "snf.diagonal_form.nonzeros": counts["snf.diagonal_form.nonzeros"],
        "snf.smith_normal_form.cells": counts["snf.smith_normal_form.cells"],
        "trace.traced_job_s": job_time[True],
        "trace.self_sum_s": sum(row["self_s"] for row in totals.values()),
        "trace.overhead_s": job_time[True] - job_time[False],
    }
    per_round.update((f"{layer}.{field}", row[field])
                     for layer, row in totals.items() for field in ("calls", "self_s"))
    per_round = {name: value / n for name, value in per_round.items()}
    calls = totals["simplicial.order_complex"]["calls"]
    untraced_rate = sum(len(r) for r in untraced) / job_time[False]
    derived = {
        "simplicial.order_complex.repeat_ratio":
            counts["simplicial.order_complex.repeats"] / calls if calls else 0.0,
        "trace.untraced_jobs_per_s": untraced_rate,
        "trace.overhead_jobs_per_s": untraced_rate - jobs / job_time[True],
    }
    # a layer that never ran reports zero
    metrics = {name: {"value": derived.get(name, per_round.get(name, 0)), "unit": unit}
               for name, unit, _better, _moves in PER_LAYER}
    gap = per_round["trace.traced_job_s"] - per_round["trace.self_sum_s"]
    print(f"# traced job time minus summed self time: {gap:.6f} s per round; "
          f"tracing overhead {per_round['trace.overhead_s']:.6f} s per round")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "posetmorse" / "cli.py").is_file():
        print(f"error: no posetmorse library under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    from perfbench.inputs import fingerprint
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    signal.signal(signal.SIGALRM, _on_alarm)

    setups = [set_up(args.workload, args.seed) for _ in range(1 if args.trace else SETUPS)]
    prints = {fingerprint({f"v{v}/{name}": text for v, p in enumerate(variants)
                           for name, text in p.files().items()})
              for _, variants in setups}
    if len(prints) != 1:
        print(f"error: set-up is not deterministic: {sorted(prints)}", file=sys.stderr)
        return 1
    variants = setups[0][1]
    print(f"# workload {args.workload} seed {args.seed}: {len(variants)} variants of "
          f"{len(variants[0].spaces)} inputs, {len(variants[0].jobs)} jobs per round, "
          f"input fingerprint {prints.pop()}")

    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT, prefix=f"inputs-{args.workload}-") as tmp:
        folder = Path(tmp)
        for v, prepared in enumerate(variants):
            (folder / f"v{v}").mkdir()
            for name, text in prepared.files().items():
                (folder / f"v{v}" / name).write_text(text)
        gc.collect()
        gc.freeze()   # set-up data stays alive; keep it out of every collection
        rounds, job_scale, recorder = measure(args, variants, folder,
                                              WORKLOADS[args.workload].min_rounds)

    done = [j for t in (False, True) for r in rounds[t] for j in r]
    failures = [(label, reason) for label, _, reason in done if reason]
    for label, reason in failures[:10]:
        print(f"# FAILED {label}: {reason}")
    print(f"# {len(rounds[False])} untraced and {len(rounds[True])} traced rounds, "
          f"{len(done)} jobs, fail_ratio {len(failures) / len(done):.4f}")
    if recorder is not None:
        metrics = per_layer(rounds, job_scale, recorder)
        trace_file = OUT / f"trace-{args.workload}-seed{args.seed}.jsonl.gz"
        recorder.write(trace_file)
        print(f"# {len(recorder)} spans written to {trace_file.relative_to(ROOT)}")
    else:
        metrics = end_to_end(rounds[False], statistics.median(s for s, _ in setups))
    for name, m in metrics.items():
        print(f"# {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": not failures, "attempted": len(done),
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Per-job correctness oracle, independent of the library.

Known answers come from topology, not from posetmorse: the boundary of
the n-simplex is the (n-1)-sphere (hccat 2), RP^2 has H_1 = Z/2 (hccat 3),
the Moebius band has H_1 = Z (hccat 2), and barycentric subdivision
changes none of these.  Facts about the generated files (element and
cover counts, f-vectors, which elements a matching leaves unmatched, the
planted closed orbit) come from the generators.  Every verdict field a
report carries must hold.  The random poset has no closed-form answer:
for it the oracle checks the exit code, the shape of the document and the
counts the generator fixed.
"""

from __future__ import annotations

import json

from .workloads import Job


def homology_of(doc: dict) -> dict:
    """The {degree: (betti, torsion)} form of a report's homology block."""
    lo = doc["min_degree"]
    out = {}
    for i, (b, tor) in enumerate(zip(doc["betti"], doc["torsion"])):
        if b or tor:
            out[lo + i] = (b, tuple(tor))
    return out


def check(job: Job, code: int, stdout: str) -> str | None:
    """None when the job's output is right, else the reason it is not."""
    if code != 0:
        return f"exit code {code}"
    try:
        doc = json.loads(stdout)
        if doc.get("command") != job.command:
            return f"report is for {doc.get('command')!r}"
        return CHECKS[job.command](job, doc["results"])
    except (ValueError, KeyError, IndexError, TypeError, AttributeError) as exc:
        return f"malformed report: {type(exc).__name__}: {exc}"


def _expect(what: str, got, want) -> str | None:
    return None if got == want else f"{what}: got {got!r}, expected {want!r}"


def _first(*reasons) -> str | None:
    return next((r for r in reasons if r), None)


def _homology(job, res):
    return _expect("homology", homology_of(res["homology"]), job.space.homology)


def _cellular(job, res):
    want = job.space.homology
    units = all(abs(e) == 1 for _, _, e in res["incidence"])
    return _first(
        _expect("pipelines_agree", res["pipelines_agree"], True),
        _expect("cellular homology", homology_of(res["cellular_homology"]), want),
        _expect("order-complex homology", homology_of(res["order_complex_homology"]), want),
        _expect("incidence numbers are units", units, True),
        _expect("incidence entries", len(res["incidence"]), len(job.space.covers)),
    )


def _validate(job, res):
    space, cell = job.space, res["cellularity"]
    return _first(
        _expect("elements", res["elements"], len(space.elements)),
        _expect("covers", res["covers"], len(space.covers)),
        _expect("graded", cell["graded"], True),
        _expect("cellular", cell["cellular"], space.cellular),
        _expect("admissible", cell["homologically_admissible"], space.cellular),
        _expect("witnesses", bool(cell["witnesses"]), not space.cellular),
        space.f_vector and _expect(
            "f-vector", tuple(res["f_vector"][str(d)] for d in range(len(space.f_vector))),
            space.f_vector),
    )


def _matching(job, res):
    space = job.space
    pairs = space.matchings[job.matching]
    matched = {e for pair in pairs for e in pair}
    critical = [e for e in space.elements if e not in matched]
    reasons = [_expect("critical", sorted(res["basic_sets"]["critical"]), sorted(critical)),
               _expect("morse is a verdict", type(res["morse"]), bool)]
    orbit = space.orbits.get(job.matching)
    if job.matching in space.acyclic:
        reasons += [
            _expect("morse", res["morse"], True),
            _expect("orbit classes", res["basic_sets"]["orbit_classes"], []),
            _expect("morse_smale", res.get("morse_smale"), True),
        ]
    if orbit is not None:
        classes = [frozenset(c["elements"]) for c in res["basic_sets"]["orbit_classes"]]
        mults = res.get("orbit_multiplicities", [])
        reasons += [
            _expect("morse", res["morse"], False),
            _expect("morse_smale", res.get("morse_smale"), True),
            _expect("planted orbit is a basic set", orbit in classes, True),
            _expect("orbit multiplicities", len(mults), len(classes)),
            _expect("multiplicities are units",
                    all(m["multiplicity"] in (1, -1) for m in mults), True),
        ]
    return _first(*reasons)


def _integrate(job, res):
    """Values are integers, one per element, and never increase along the
    matched digraph: up a matched cover, down any other."""
    values = res["function"]
    if sorted(values) != sorted(job.space.elements):
        return "function does not cover exactly the elements"
    f = {e: int(v) for e, v in values.items()}
    matched = set(job.space.matchings[job.matching])
    for w, x in job.space.covers:
        ok = f[w] >= f[x] if (w, x) in matched else f[x] >= f[w]
        if not ok:
            return f"function increases along the arc of cover {w} < {x}"
    return None


def _sweep(job, res):
    return _first(_expect("sweep ok", res["ok"], True),
                  _expect("intervals checked", bool(res["intervals"]), True),
                  _expect("every interval ok", all(r["ok"] for r in res["intervals"]), True))


def _inequalities(job, res):
    known = job.space.homology
    top = max(known)
    betti = [known.get(k, (0, ()))[0] for k in range(top + 1)]
    mu = [len(known.get(k, (0, ()))[1]) for k in range(top + 1)]
    strong = res["strong-morse-bott"]
    return _first(
        _expect("morse_smale", res["morse_smale"], True),
        _expect("reports", sorted(k for k in res if k != "morse_smale"),
                ["orbit-multiplicity-one", "orbit-torsion", "strong-morse-bott"]),
        *(_expect(f"{name} holds", r["holds"], True)
          for name, r in res.items() if name != "morse_smale"),
        _expect("betti", strong["data"]["betti"][:top + 1], betti),
        _expect("euler", strong["data"]["euler_b"], job.space.euler),
        _expect("mu", res["orbit-torsion"]["data"]["mu"][:top + 1], mu),
    )


def _ls_check(job, res):
    return _first(_expect("ls-check ok", res["ok"], True),
                  _expect("hccat", res["hccat"], job.space.hccat),
                  _expect("holds", res["holds"], True),
                  _expect("intermediate bound", res["intermediate_holds"], True),
                  _expect("counts match formula", res["counts_match_formula"], True))


def _hccat(job, res):
    space = job.space
    return _first(
        _expect("hccat", res["hccat"], space.hccat),
        _expect("quasi-isomorphism", res["minimal_subcomplex_quasi_isomorphism"], True),
        _expect("minimal subcomplex rank", sum(res["minimal_subcomplex_ranks"].values()),
                space.hccat),
        space.kind == "simplicial" and _expect(
            "face-poset consistency", res["face_poset_consistent"], True),
        _expect("chi_g", res["chi_g"], space.euler),
        _expect("chi", res["chi"], space.euler),
    )


CHECKS = {
    "homology": _homology,
    "cellular": _cellular,
    "validate": _validate,
    "matching": _matching,
    "integrate": _integrate,
    "sweep": _sweep,
    "inequalities": _inequalities,
    "ls-check": _ls_check,
    "hccat": _hccat,
}

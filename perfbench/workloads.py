"""The three workloads: which inputs each generates and which CLI jobs it
runs on them, with the known answers the oracle checks.

Why these workloads:

- deep-chains: few cells with long chains.  The order complex, dense
  `diagonal_form` and the dense d.d check do nearly all the work;
  `dynamics` and `category` never run.
- wide-poset: many cells with shallow down-sets.  Cost grows with the
  number of cells: parsing, thousands of tiny homology calls inside
  `check_cellularity`, the dense d.d check of the largest cellular
  complex behind orbit `matching` jobs, and the matching dynamics.  It
  uses the homology engine with many tiny matrices where deep-chains
  uses a few large ones, so an engine with a higher cost per call shows
  here.
- theorem-checks: the paper's theorem checks (sweep, inequalities,
  ls-check, hccat), which rebuild order-complex homology for many
  sublevel and basic-set-closure pairs; the only workload that runs
  `category`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace

from . import inputs as gen


@dataclass(frozen=True)
class Space:
    """One generated input file and everything known about it."""

    name: str
    kind: str                      # "simplicial" or "poset"
    text: str
    elements: tuple[str, ...]      # face-poset or poset elements
    covers: tuple[tuple[str, str], ...]
    f_vector: tuple[int, ...] | None = None
    homology: dict | None = None   # {degree: (betti, torsion)}, nontrivial only
    hccat: int | None = None
    euler: int | None = None
    cellular: bool = True
    matchings: dict = field(default_factory=dict)   # label -> list of pairs
    orbits: dict = field(default_factory=dict)      # label -> planted orbit elements
    acyclic: frozenset = frozenset()                # labels of matchings without orbits


@dataclass(frozen=True)
class Job:
    command: str
    space: Space
    matching: str | None = None

    @property
    def label(self) -> str:
        suffix = f"+{self.matching}" if self.matching else ""
        return f"{self.command}:{self.space.name}{suffix}"


@dataclass(frozen=True)
class Prepared:
    spaces: tuple[Space, ...]
    jobs: tuple[Job, ...]

    def files(self) -> dict[str, str]:
        out = {}
        for s in self.spaces:
            out[f"{s.name}.txt"] = s.text
            for label, pairs in s.matchings.items():
                out[f"{s.name}.{label}.txt"] = gen.matching_text(pairs)
        return out


def sphere(dim: int) -> dict:
    return {0: (1, ())} if dim == 0 else {0: (1, ()), dim: (1, ())}


# Known answers; subdivision preserves all of them.
SPHERE = lambda d: dict(homology=sphere(d), hccat=2, euler=1 + (-1) ** d)
RP2 = dict(homology={0: (1, ()), 1: (0, (2,))}, hccat=3, euler=1)
MOBIUS = dict(homology={0: (1, ()), 1: (1, ())}, hccat=2, euler=0)


def _base_complexes(rng: random.Random) -> dict:
    """(maximal simplices, expected f-vector, known answers) per input,
    vertex names seeded; subdivisions get fresh seeded names."""
    dd = {n: gen.relabel(gen.boundary_simplex(n), rng) for n in (2, 3, 4)}
    rp2 = gen.relabel(gen.RP2_6, rng)
    mob = gen.relabel(gen.MOBIUS_5, rng)
    return {
        "dd2": (dd[2], (3, 3), SPHERE(1)),
        "dd3": (dd[3], (4, 6, 4), SPHERE(2)),
        "dd4": (dd[4], (5, 10, 10, 5), SPHERE(3)),
        "rp2": (rp2, (6, 15, 10), RP2),
        "mob": (mob, (5, 10, 5), MOBIUS),
    }


def _space(name, maximal, expected_f, known, kind="simplicial") -> Space:
    f = gen.f_vector(maximal)
    if f != expected_f:
        raise AssertionError(f"{name}: generated f-vector {f}, expected {expected_f}")
    elements, covers = gen.face_poset_covers(maximal)
    if kind == "simplicial":
        text = gen.complex_text(maximal)
    else:
        text = gen.poset_text(elements, covers)
    return Space(name=name, kind=kind, text=text, elements=tuple(elements),
                 covers=tuple(covers), f_vector=f if kind == "simplicial" else None,
                 **known)


def _with_matchings(space: Space, rng: random.Random, is_ms_with_orbit,
                    greedy_from=None) -> Space:
    """Attach a seeded Morse-Smale matching with a closed orbit and, given
    the maximal simplices, a greedy acyclic one."""
    degree = _degrees(space)
    orbit = gen.planted_orbit(rng, space.elements, space.covers, degree)
    taken = frozenset(e for pair in orbit for e in pair)
    chosen = None
    # half-density extras first; thinner ones, then none, if those break Morse-Smale
    for num, den in ((1, 2), (1, 2), (1, 2), (1, 3), (1, 3), (1, 5), (0, 1)):
        pairs = orbit + gen.greedy_matching(rng, space.covers, num, den, taken)
        if is_ms_with_orbit(space, pairs):
            chosen = pairs
            break
    if chosen is None:
        raise AssertionError(f"{space.name}: planted orbit is not Morse-Smale")
    matchings = {"orbit": chosen}
    if greedy_from is not None:
        matchings["greedy"] = gen.element_matching(rng, greedy_from)
    return replace(space, matchings=matchings, orbits={"orbit": frozenset(taken)},
                   acyclic=frozenset(matchings) - {"orbit"})


def _degrees(space: Space) -> dict[str, int]:
    below: dict[str, list[str]] = {}
    for w, x in space.covers:
        below.setdefault(x, []).append(w)
    degree: dict[str, int] = {}
    for e in space.elements:            # elements are listed by level
        lows = below.get(e)
        degree[e] = 1 + degree[lows[0]] if lows else 0
    return degree


def deep_chains(rng: random.Random, is_ms_with_orbit) -> Prepared:
    """RP^2 comes in two seeded copies per round: with one, the median job
    falls in the gap between the Moebius band's jobs and RP^2's, where it
    jumps from run to run; with two it falls among RP^2's homology jobs."""
    base = _base_complexes(rng)
    spaces = [_space(n, *base[n]) for n in ("dd2", "dd3", "dd4", "rp2", "mob")]
    spaces.append(_space("rp2_2", *_base_complexes(rng)["rp2"]))
    spaces.append(_space("sd_dd3", gen.subdivide(base["dd3"][0], rng, "b"),
                         (14, 36, 24), SPHERE(2)))
    spaces.append(_space("sd_mob", gen.subdivide(base["mob"][0], rng, "b"),
                         (20, 50, 30), MOBIUS))
    jobs = [Job(cmd, s) for s in spaces for cmd in ("homology", "cellular", "validate")]
    return Prepared(tuple(spaces), tuple(jobs))


def wide_poset(rng: random.Random, is_ms_with_orbit) -> Prepared:
    base = _base_complexes(rng)
    sd_rp2 = gen.subdivide(base["rp2"][0], rng, "b")
    sd_dd3 = gen.subdivide(base["dd3"][0], rng, "b")
    sd_mob = gen.subdivide(base["mob"][0], rng, "b")
    sd2_dd3 = gen.subdivide(sd_dd3, rng, "c")
    sd2_mob = gen.subdivide(sd_mob, rng, "c")
    sd2_rp2 = gen.subdivide(sd_rp2, rng, "c")
    cellular = [
        (_space("sd_rp2", sd_rp2, (31, 90, 60), RP2), sd_rp2),
        (_space("sd2_dd3", sd2_dd3, (74, 216, 144), SPHERE(2), kind="poset"), sd2_dd3),
        (_space("sd2_mob", sd2_mob, (100, 280, 180), MOBIUS), sd2_mob),
        (_space("sd2_rp2", sd2_rp2, (181, 540, 360), RP2), sd2_rp2),
    ]
    spaces = [_with_matchings(s, rng, is_ms_with_orbit, maximal) for s, maximal in cellular]
    levels, covers = gen.random_graded_poset(rng)
    elements = [e for level in levels for e in level]
    spaces.append(Space(name="rand", kind="poset", text=gen.poset_text(elements, covers),
                        elements=tuple(elements), covers=tuple(covers), cellular=False,
                        matchings={"greedy": gen.greedy_matching(rng, covers, 1, 1)}))
    jobs = []
    for s in spaces:
        jobs.append(Job("validate", s))
        for label in s.matchings:
            jobs += [Job("matching", s, label), Job("integrate", s, label)]
    return Prepared(tuple(spaces), tuple(jobs))


def theorem_checks(rng: random.Random, is_ms_with_orbit) -> Prepared:
    """The small inputs come in two seeded copies per round, the large ones
    in one: with one copy each, exactly half the jobs are small and the
    median falls in the gap between small and large jobs, where it jumps
    from run to run."""
    bases = [_base_complexes(rng) for _ in range(2)]
    plain = [_space(f"{n}_{i}", *b[n]) for i, b in enumerate(bases)
             for n in ("dd3", "rp2", "mob")]
    base = bases[0]
    plain.append(_space("dd4", *base["dd4"]))
    plain.append(_space("sd_dd3", gen.subdivide(base["dd3"][0], rng, "b"),
                        (14, 36, 24), SPHERE(2)))
    plain.append(_space("sd_mob", gen.subdivide(base["mob"][0], rng, "b"),
                        (20, 50, 30), MOBIUS))
    spaces = [_with_matchings(s, rng, is_ms_with_orbit) for s in plain]
    jobs = [Job(cmd, s, None if cmd == "hccat" else "orbit")
            for s in spaces for cmd in ("sweep", "inequalities", "ls-check", "hccat")]
    return Prepared(tuple(spaces), tuple(jobs))


@dataclass(frozen=True)
class Workload:
    build: object
    variants: int     # seeded copies of the inputs; round k runs copy k mod variants
    min_rounds: int   # enough jobs that job_tail_ms lies past the median


# A run averages over several seeded inputs and not only over repeats of
# one; wide-poset has one variant because generating one takes seconds.
WORKLOADS = {
    "deep-chains": Workload(deep_chains, variants=6, min_rounds=6),
    "wide-poset": Workload(wide_poset, variants=1, min_rounds=2),
    "theorem-checks": Workload(theorem_checks, variants=3, min_rounds=2),
}


def prepare(workload: str, seed: int, is_ms_with_orbit) -> list[Prepared]:
    """Every variant of the workload's inputs; the same seed gives the same inputs."""
    spec = WORKLOADS[workload]
    return [spec.build(random.Random(f"{workload}/{seed}/{v}"), is_ms_with_orbit)
            for v in range(spec.variants)]

#!/usr/bin/env python3
"""End-to-end demonstration on the bundled fixtures.

Runs the whole pipeline on the 6-vertex projective plane and on the
circle model T3: validation, homology through both routes, matching
dynamics, integration, the filtration sweep, the inequality family, and
the Lusternik-Schnirelmann bound.
"""

from pathlib import Path

from posetmorse import (
    cellular_chain_complex,
    face_poset,
    filtration_sweep,
    hccat,
    homology,
    integrate_matching,
    is_morse_smale,
    ls_theorem_check,
    orbit_inequalities_multiplicity,
    orbit_inequalities_torsion,
    orbit_multiplicity,
    parse_simplicial_complex,
    minimal_subcomplex,
    poset_homology,
    strong_morse_bott,
    verify_cellular_agreement,
)
from posetmorse.cellular import check_cellularity
from posetmorse.dynamics import prime_orbits
from posetmorse.formats import parse_matching_text, parse_poset_text

DATA = Path(__file__).resolve().parent.parent / "data"


def banner(title):
    print(f"\n== {title} " + "=" * max(0, 60 - len(title)))


def main():
    banner("RP2 (6-vertex triangulation)")
    rp2 = parse_simplicial_complex((DATA / "rp2_6.txt").read_text())
    poset = face_poset(rp2)
    report = check_cellularity(poset)
    print(f"face poset: {len(poset)} elements; graded={report.is_graded}, "
          f"cellular={report.is_cellular}, admissible={report.is_homologically_admissible}")
    print(f"order-complex homology: {poset_homology(poset)}")
    cell = cellular_chain_complex(poset)
    print(f"cellular homology:      {homology(cell.complex)}")
    print(f"pipelines agree: {verify_cellular_agreement(poset)}")
    print(f"hccat = {hccat(poset)}; minimal subcomplex ranks "
          f"{minimal_subcomplex(cell.complex).rank_profile}")

    matching = parse_matching_text(poset, (DATA / "rp2_star5_matching.txt").read_text())
    verdict = is_morse_smale(poset, matching)
    print(f"star-of-5 ring matching: Morse-Smale={verdict.is_morse_smale}, "
          f"orbits={[(o.nodes[0], o.index) for o in verdict.orbits]}")
    for orbit in verdict.orbits:
        print(f"  orbit multiplicity: "
              f"{orbit_multiplicity(orbit, cell):+d}")
    function = integrate_matching(poset, matching)
    _, ok = filtration_sweep(poset, function)
    print(f"filtration sweep: {'ok' if ok else 'FAILED'}")
    for rep in (strong_morse_bott(poset, matching),
                orbit_inequalities_torsion(poset, matching),
                orbit_inequalities_multiplicity(poset, matching)):
        print(f"{rep.name}: holds={rep.holds}")
    ls = ls_theorem_check(poset, matching)
    print(f"LS theorem: hccat {ls.hccat_value} <= {ls.basic_set_bound} "
          f"({'ok' if ls.holds else 'FAILED'})")

    banner("T3 (circle model)")
    t3 = parse_poset_text((DATA / "t3_poset.txt").read_text())
    m2 = parse_matching_text(t3, (DATA / "t3_matching_m2.txt").read_text())
    print(f"homology: {poset_homology(t3)}; hccat = {hccat(t3)}")
    orbits = prime_orbits(t3, m2)
    print(f"cyclic matching: one orbit through {orbits[0].nodes}")
    function = integrate_matching(t3, m2)
    print(f"integrated function constant on the orbit: "
          f"{sorted(set(map(str, function.values.values())))}")
    ls = ls_theorem_check(t3, m2)
    print(f"LS theorem with equality: {ls.hccat_value} <= {ls.basic_set_bound}")


if __name__ == "__main__":
    main()

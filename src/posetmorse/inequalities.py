"""Morse-Bott numbers and the inequality theorems.

m_k sums, over the one list of basic sets, the free rank of the relative
homology of the closure of the set against its lower closure; a critical
point of degree p contributes a single unit in degree p, an orbit of
index p one unit in each of degrees p and p+1.  On a graded poset a
basic set spans at most two adjacent degrees, so it is locally closed,
and that homology is read off the cells of the set alone.  The strong
inequalities compare the alternating partial sums of m against those of
the Betti numbers; the orbit theorems additionally count prime orbits,
with torsion generators on the right for integer coefficients and only
multiplicity-one orbits on the left for rational ones.  Every count is
read off integral homology, so no function here takes a ring: over Q, m
and the Betti numbers are the same free ranks, and only the torsion
notes of the strong report drop out.  All three reports build their rows
the same way, from the two sides' lists.
"""

from __future__ import annotations

from typing import NamedTuple

from .cellular import _pair_homology, cellular_chain_complex, require_admissible, space_homology
from .dynamics import (
    Matching,
    basic_sets,
    critical_counts,
    orbit_counts,
    orbit_multiplicity,
    prime_orbits,
)
from .homology import HomologySummary
from .posets import Poset


class IneqRow(NamedTuple):
    k: int
    lhs: int
    rhs: int
    ok: bool

    def to_doc(self) -> dict:
        return {"k": self.k, "lhs": self.lhs, "rhs": self.rhs, "ok": self.ok}


class InequalityReport(NamedTuple):
    name: str
    rows: tuple[IneqRow, ...]
    holds: bool
    data: dict

    def to_doc(self) -> dict:
        return {
            "name": self.name,
            "holds": self.holds,
            "rows": [r.to_doc() for r in self.rows],
            "data": {key: value for key, value in sorted(self.data.items())},
        }


def morse_bott_numbers(poset: Poset, matching: Matching) -> tuple[list[int], list[str]]:
    """m_k per degree, plus notes about torsion met in relative homology
    (the ranks ignore it by definition; we surface it separately)."""
    require_admissible(poset)
    dec = basic_sets(poset, matching)
    top = poset.max_degree() + 1
    m = [0] * (top + 1)
    torsion_notes: list[str] = []
    ident = poset._id
    for members in dec.classes:
        summary = _pair_homology(poset, [ident[e] for e in members])
        where = "critical" if len(members) == 1 else "orbit at"
        for k in summary.degrees():
            m[k] += summary.b(k)
            if summary.t(k):
                torsion_notes.append(f"{where} {members[0]}: torsion {summary.t(k)} in degree {k}")
    while len(m) > 1 and m[-1] == 0:
        m.pop()
    return m, torsion_notes


def _alternating(seq, top: int) -> list[int]:
    """sum_{i=0..k} (-1)^i seq[k-i] for k = 0..top, missing entries
    counting as zero; each sum is seq[k] minus the one before."""
    sums, total = [], 0
    for k in range(top + 1):
        total = (seq[k] if k < len(seq) else 0) - total
        sums.append(total)
    return sums


def _rows(lhs: list[int], rhs: list[int]) -> tuple[IneqRow, ...]:
    """One row lhs[k] >= rhs[k] per degree."""
    return tuple(IneqRow(k, left, right, left >= right)
                 for k, (left, right) in enumerate(zip(lhs, rhs)))


def strong_morse_bott(poset: Poset, matching: Matching) -> InequalityReport:
    """Strong inequalities, their weak corollary, and the Euler identity."""
    require_admissible(poset)
    m, torsion_notes = morse_bott_numbers(poset, matching)
    summary = space_homology(poset)
    top = max(poset.max_degree(), len(m) - 1)
    b = [summary.b(k) for k in range(top + 1)]
    m_top = m + [0] * (top + 1 - len(m))
    rows = _rows(_alternating(m, top), _alternating(b, top))
    weak_rows = _rows(m_top, b)
    euler_m = sum((-1) ** k * v for k, v in enumerate(m_top))
    euler_b = sum((-1) ** k * v for k, v in enumerate(b))
    holds = all(r.ok for r in rows + weak_rows) and euler_m == euler_b
    return InequalityReport(
        name="strong-morse-bott",
        rows=rows,
        holds=holds,
        data={
            "m": m,
            "betti": b,
            "weak": [r.to_doc() for r in weak_rows],
            "euler_m": euler_m,
            "euler_b": euler_b,
            "torsion_notes": torsion_notes,
            "coefficients": "int",
        },
    )


def _orbit_rows(poset: Poset, matching: Matching, orbits: dict[int, int], summary: HomologySummary
                ) -> tuple[tuple[IneqRow, ...], list[int], list[int], list[int]]:
    """The rows orbits_k + alt-sum of critical counts against mu_k + alt-sum
    of Betti numbers, and the lists of c, orbits and b they read, per
    degree; a rational summary has mu = 0."""
    top = poset.max_degree()
    c = critical_counts(poset, matching)
    c_list = [c.get(k, 0) for k in range(top + 1)]
    o_list = [orbits.get(k, 0) for k in range(top + 1)]
    b_list = [summary.b(k) for k in range(top + 1)]
    rows = _rows([o + alt for o, alt in zip(o_list, _alternating(c_list, top))],
                 [summary.mu(k) + alt for k, alt in enumerate(_alternating(b_list, top))])
    return rows, c_list, o_list, b_list


def orbit_inequalities_torsion(poset: Poset, matching: Matching) -> InequalityReport:
    """A_k + alt-sum of critical counts against mu_k + alt-sum of Betti
    numbers, over the integers; needs a Morse-Smale matching."""
    require_admissible(poset)
    orbits = orbit_counts(prime_orbits(poset, matching))
    summary = space_homology(poset)
    rows, c, A, b = _orbit_rows(poset, matching, orbits, summary)
    return InequalityReport(
        name="orbit-torsion",
        rows=rows,
        holds=all(r.ok for r in rows),
        data={
            "c": c,
            "A": A,
            "betti": b,
            "mu": [summary.mu(k) for k in range(len(c))],
        },
    )


def orbit_inequalities_multiplicity(poset: Poset, matching: Matching) -> InequalityReport:
    """A'_k + alt-sum of critical counts against alt-sum of rational
    Betti numbers, counting only multiplicity-one orbits."""
    require_admissible(poset)
    orbits = prime_orbits(poset, matching)
    cell = cellular_chain_complex(poset)
    multiplicities = {orbit: orbit_multiplicity(orbit, cell) for orbit in orbits}
    ones = orbit_counts(tuple(orbit for orbit, mult in multiplicities.items() if mult == 1))
    rows, c, A1, b = _orbit_rows(poset, matching, ones, space_homology(poset).rational())
    return InequalityReport(
        name="orbit-multiplicity-one",
        rows=rows,
        holds=all(r.ok for r in rows),
        data={
            "c": c,
            "A1": A1,
            "betti_rational": b,
            "multiplicities": [
                {"start": orbit.nodes[0], "index": orbit.index, "multiplicity": mult}
                for orbit, mult in sorted(multiplicities.items(),
                                          key=lambda kv: kv[0].nodes)
            ],
        },
    )


def euler_characteristics(poset: Poset) -> tuple[int | None, int]:
    """(chi_g, chi of the space); equal on cellular posets, where chi is
    read off the cellular complex, whose ranks are the level sizes.

    chi_g needs a grading and comes back as None otherwise; chi is always
    defined.  Contractible graded posets can still have chi_g != 1, which
    is what separates cellular posets from merely graded ones.
    """
    chi = space_homology(poset).euler_characteristic() if poset.elements else 0
    if not poset.is_graded():
        return None, chi
    return sum((-1) ** p * len(poset.level(p)) for p in range(poset.max_degree() + 1)), chi

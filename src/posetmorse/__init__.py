"""Morse-Bott theory on finite posets.

Exact integer homology of finite spaces, cellular chain complexes with
computed incidence numbers, matching dynamics (chain recurrence, basic
sets, closed orbits), integration of matchings into Morse-Bott
functions, the Morse-Bott inequality family, and the homological
Lusternik-Schnirelmann bound via the chain category.
"""

__version__ = "0.1.0"

from .posets import Poset, build_poset
from .simplicial import (
    SimplicialComplex,
    face_poset,
    order_complex,
    parse_simplicial_complex,
    subdivision,
)
from .intmatrix import IntMatrix
from .snf import SmithDecomposition, smith_normal_form
from .homology import (
    ChainComplex,
    HomologySummary,
    homology,
    is_acyclic,
    poset_homology,
    relative_homology,
    simplicial_chain_complex,
)
from .cellular import (
    CellularComplexOfPoset,
    CellularityReport,
    SphereGenerator,
    cellular_chain_complex,
    check_cellularity,
    gauge_flip,
    space_complex,
    space_homology,
    sphere_generator,
    verify_cellular_agreement,
)
from .dynamics import (
    BasicSetDecomposition,
    ClosedOrbit,
    Matching,
    basic_sets,
    is_morse_matching,
    is_morse_smale,
    matched_digraph,
    orbit_multiplicity,
    perturb_to_morse,
    validate_matching,
)
from .morse import (
    MorseBottFunction,
    boundary_of_class,
    filtration_sweep,
    integrate_matching,
    is_morse_function,
    morse_function_to_matching,
    require_morse_bott,
    sublevel,
    verify_attachment,
    verify_collapse,
)
from .inequalities import (
    InequalityReport,
    euler_characteristics,
    lemma_basic_set_window,
    morse_bott_numbers,
    orbit_inequalities_multiplicity,
    orbit_inequalities_torsion,
    strong_morse_bott,
)
from .category import (
    FlowData,
    MinimalSubcomplex,
    flow_operator,
    hccat,
    ls_corollary_morse_function,
    ls_theorem_check,
    minimal_subcomplex,
)

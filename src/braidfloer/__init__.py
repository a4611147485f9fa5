"""Braid Floer homology of proper relative braid classes on the 2-disc.

Computation runs through Garside normal forms, positive discretized
representatives, Conley index pairs of braid-class components, and relative
homology over the two-element field; the degree identification with the
Floer invariant is conjecture-mediated and flagged on every result.  A
Maslov-index toolkit and a parabolic-flow forcing simulator accompany the
pipeline.
"""

from .complex import BraidClassComponent, IndexPair, enumerate_component, index_pair
from .discrete import (
    DiscreteBraid,
    DiscreteRelativeBraid,
    discrete_to_word,
    total_crossing_number,
)
from .flow import FlowState, RecurrenceRelation, evolve, find_stationary, fitted_recurrence
from .garside import GarsideNormalForm, PermutationBraid, TwistPadding, left_normal_form, twist_padding
from .homology import GradedBetti, poincare_polynomial, relative_homology
from .maslov import (
    MaslovIndex,
    SymmetricFamily,
    SymplecticPathSample,
    annulus_hamiltonian,
    integrate_path,
    permuted_cz_index,
    rotation_shift_check,
)
from .pipeline import (
    FloerResult,
    RelativeBraidSpec,
    braid_floer_homology,
    cyclic_spec,
    forcing_report,
    word_spec,
)
from .words import BraidWord, StrandPermutation, compose, exponent_sum, full_twist, permutation_of, word

__version__ = "0.1.0"

__all__ = [
    "BraidClassComponent",
    "BraidWord",
    "DiscreteBraid",
    "DiscreteRelativeBraid",
    "FloerResult",
    "FlowState",
    "GarsideNormalForm",
    "GradedBetti",
    "IndexPair",
    "MaslovIndex",
    "PermutationBraid",
    "RecurrenceRelation",
    "RelativeBraidSpec",
    "StrandPermutation",
    "SymmetricFamily",
    "SymplecticPathSample",
    "TwistPadding",
    "annulus_hamiltonian",
    "braid_floer_homology",
    "compose",
    "cyclic_spec",
    "discrete_to_word",
    "enumerate_component",
    "evolve",
    "exponent_sum",
    "find_stationary",
    "fitted_recurrence",
    "forcing_report",
    "full_twist",
    "index_pair",
    "integrate_path",
    "left_normal_form",
    "permutation_of",
    "permuted_cz_index",
    "poincare_polynomial",
    "relative_homology",
    "rotation_shift_check",
    "total_crossing_number",
    "twist_padding",
    "word",
    "word_spec",
]

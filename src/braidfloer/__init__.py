"""Braid Floer homology of proper relative braid classes on the 2-disc.

Computation runs through Garside normal forms, positive discretized
representatives, Conley index pairs of braid-class components, and relative
homology over the two-element field; the degree identification with the
Floer invariant is conjecture-mediated and flagged on every result.  A
Maslov-index toolkit and a parabolic-flow forcing simulator accompany the
pipeline.

The package root exports the names of the README's quick tour; everything
else is imported from its module (`braidfloer.maslov`, `braidfloer.flow`, ...).
"""

from .garside import left_normal_form, twist_padding
from .maslov import integrate_path, permuted_cz_index
from .pipeline import TOOL_VERSION as __version__
from .pipeline import braid_floer_homology, cyclic_spec, forcing_report, word_spec
from .words import word

"""Finite-element dynamics of thin anisotropic composite membranes.

A membrane is a flat triangulated sheet whose nodes move in three
dimensions under transverse and in-plane loads.  The package builds
linear-triangle mass and stiffness matrices, integrates the equation
of motion M a'' + K a + f = 0 with an implicit Newmark scheme, and
ships a mesh-refinement harness for observed-convergence studies.

The names below are the package-level API; everything else is reached
through its module (`membrane.assembly`, `membrane.integrator`, ...).
"""

__version__ = "0.1.0"

from .mesh import (
    Mesh,
    StructuredSpec,
    boundary_nodes,
    central_element_pair,
    generate_structured,
    nearest_node,
    read_msh,
    refine,
)
from .material import (
    MaterialParams,
    anisotropic,
    isotropic,
    max_wave_speed,
    packed_from_entries,
    params_from_config,
)
from .integrator import default_timestep
from .scenarios import CaseSpec, ScenarioConfig, build_case, config_from_json, run
from .convergence import study_from_json

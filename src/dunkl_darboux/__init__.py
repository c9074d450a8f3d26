"""Solvable reflection-deformed Schrodinger systems via point and Darboux transformations."""

from .model import (DunklParams, DunklSystem, EnergyPotential, MassProfile,
                    ParityFunction, dunkl_residual, modified_norm,
                    probability_density, weight_exponent)
from .pointmap import (CoordinateChange, SchrodingerForm, forward_map,
                       induced_potential, inverse_map)
from .darboux import (DarbouxChain, DarbouxOutput, OdeSolution,
                      intertwining_residual, transformed_pair,
                      transformed_potential, transformed_solution, wronskian)
from .scenarios import (bound_state_energy, gaussian_solution, get_scenario,
                        parity_exponent, pdm_equivalence_nu)

__version__ = "0.1.0"

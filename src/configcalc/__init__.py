"""Exact calculus for conserved quantities of interacting particle systems.

Everything is exact rational arithmetic on finite windows of a locale graph:
conserved-quantity bases of a two-site interaction, configuration transition
graphs and their fibers, exact-support expansions of local functions,
discrete differentials and closed forms, the pairing that obstructs
uniformization, and the decomposition of shift-invariant closed forms into
translate-exact and flux parts.
"""

from .calculus import (Form, LocalFunction, NotClosedError, differential,
                       expansion, form_axioms_report, from_callable, gradient,
                       integrate, is_closed, is_uniform, reassemble)
from .cohomology import (PairingNotWellDefined, SplittingInfeasible,
                         check_pairing_laws, compute_pairing, h_zero_report,
                         solve_splitting, uniformize)
from .configspace import (BudgetExceeded, components, exchange_path,
                          fibers_report, quantity_of)
from .decomposition import (InconsistentCocycle, NotShiftInvariant,
                            TranslationAction, build_omega_rho,
                            counterexample_report, extract_cocycle,
                            is_shift_invariant, synthesized_form,
                            varadhan_decompose)
from .interactions import (CATALOG_NAMES, Interaction, by_name,
                           check_exchangeability, check_validity,
                           conserved_basis)
from .locales import (Cross, Euclidean, FiniteGraph, FreeGroupCayley,
                      HalfPlane, Hexagonal, NNeighbor, ProductLocale,
                      Triangular, Window, ball_window, box, transferability,
                      window)
from .serialize import InputError, WitnessError

__version__ = "0.1.0"

__all__ = [
    "BudgetExceeded", "CATALOG_NAMES", "Cross", "Euclidean", "FiniteGraph",
    "Form", "FreeGroupCayley", "HalfPlane", "Hexagonal", "InconsistentCocycle",
    "InputError", "Interaction", "LocalFunction", "NNeighbor",
    "NotClosedError", "NotShiftInvariant", "PairingNotWellDefined",
    "ProductLocale", "SplittingInfeasible", "TranslationAction", "Triangular",
    "Window", "WitnessError", "ball_window", "box", "build_omega_rho",
    "by_name", "check_exchangeability", "check_pairing_laws", "check_validity",
    "components", "compute_pairing", "conserved_basis",
    "counterexample_report", "differential", "exchange_path", "expansion",
    "extract_cocycle", "fibers_report", "form_axioms_report",
    "from_callable", "gradient", "h_zero_report", "integrate", "is_closed",
    "is_shift_invariant", "is_uniform", "quantity_of", "reassemble",
    "solve_splitting", "synthesized_form", "transferability", "uniformize",
    "varadhan_decompose", "window",
]

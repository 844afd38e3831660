"""Numerical calculus of pseudo-difference operators on Z^n x T^n.

Quantization, composition, parametrices, Sobolev scales, elliptic
solving, and Fredholm index computation on truncated lattices.
"""

from .core import (
    LatticeWindow,
    TorusGrid,
    LatticeSequence,
    TorusFunction,
    MultiIndex,
    default_grid,
    index_grid,
    forward_dft,
    inverse_dft,
    torus_quadrature,
    forward_difference,
    backward_difference,
    forward_difference_closed_form,
    read_sequence_csv,
    write_sequence_csv,
)
from .symbols import (
    Symbol,
    ExprSymbol,
    BesselSymbol,
    JumpSymbol,
    MultiplierSymbol,
    GridSymbol,
    parse_symbol,
    bessel_symbol,
    jump_symbol,
    multiplier_symbol,
    eval_symbol,
    estimate_order,
    check_ellipticity,
    read_symbol_json,
    write_symbol_json,
)
from .quantization import (
    OperatorMatrix,
    apply,
    assemble_matrix,
    extract_symbol,
    compose,
    adjoint_symbol,
    interior_margin,
)
from .sobolev import (
    bessel_apply,
    sobolev_norm,
    embedding_check,
    inclusion_spectrum,
    smoothing_spectrum,
)
from .elliptic import (
    parametrix,
    residual_decay_report,
    adn_verify,
    solve,
)
from .fredholm import (
    svd_index,
    trace_index,
    full_index_report,
    atkinson_check,
    fredholm_ellipticity_probe,
)
from .shipped import shipped_path, shipped_symbol
from .verify import run_suites

__version__ = "0.1.0"

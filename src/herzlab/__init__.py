"""herzlab: anisotropic grand Herz-type norms of discretized functions.

Library + CLI for computing expansive-dilation geometry, variable
exponent Luxemburg norms, grand sequence norms, grand Herz and
Herz-Morrey norms, central block/atom decompositions, and concrete
sublinear operators — together with verification suites for the
quantitative inequalities tying them together.
"""

from .atoms import (
    Atom,
    Mollifier,
    atom_make,
    atom_validate,
    atomic_sum_check,
    dilate_phi,
    make_mollifier,
    min_moment_order,
    radial_maximal,
    size_condition_check,
)
from .dilation import (
    Dilation,
    annulus_index,
    annulus_index_map,
    ball_diameter,
    check_quasi_triangle,
    make_dilation,
    parse_matrix,
    rho,
)
from .grandseq import (
    GrandSequenceParams,
    Sequence,
    eps_factor,
    grand_seq_norm,
    lp_seq_norm,
    nesting_report,
)
from .grid import GridFunction, GridSpec, from_descriptor, indicator, load_csv, save_csv, zeros
from .herz import (
    BlockDecomposition,
    HerzSpaceParams,
    annulus_slice,
    block_decompose,
    block_reconstruct,
    block_validate,
    default_krange,
    grand_herz_norm,
    herz_morrey_norm,
    herz_norm_report,
    product_check,
    seq_functional,
    split_norm,
    sum_check,
)
from .operators import (
    OperatorSpec,
    apply_operator,
    boundedness_sweep,
    hardy_apply,
    maximal_apply,
    op_ratio,
    scale_translate_family,
    truncated_riesz_apply,
)
from .varlebesgue import (
    ExponentFunction,
    ball_norm_product,
    conjugate,
    holder_defect,
    log_holder_check,
    luxemburg_norm,
    modular,
    product_norm_check,
    subset_ratio_fit,
)

__version__ = "0.1.0"

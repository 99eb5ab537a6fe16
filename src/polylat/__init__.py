"""Exact enumeration of plateau polycubes and column-convex polyominoes by
width and lateral area: closed forms, convolutions, rational generating
functions, exact polynomial asymptotics in the width, and a brute-force
geometric oracle that cross-validates all of them.
"""

from .asymptotics import (
    FitError,
    RatPoly,
    fit_family,
    fit_published,
    format_poly,
    interpolate,
    leading_coeff_expected,
    verify_corollaries,
)
from .combinatorics import (
    TriangleTable,
    antidiagonal,
    binomial,
    delannoy_closed,
    delannoy_recursive,
    domino_tilings,
    tribonacci_triangle,
    vandermonde_variant,
)
from .counting import (
    FAMILIES,
    ROUTES,
    FamilyTable,
    alpha_lemma,
    build_table,
    count_cc,
    count_dcc,
    r_conv,
    r_gf,
    s_closed,
    s_conv,
)
from .gfseries import (
    Poly,
    RationalGF,
    gf_C,
    gf_R,
    gf_S,
    gf_S_k,
    gf_S_xt_coeff,
    gf_coeff,
    gf_coeffs,
    gf_dcc_width,
    poly_add,
    poly_mul,
)
from .oracle import (
    ColumnConvexPoly,
    PlateauPolycube,
    enum_cc,
    enum_dcc,
    enum_dplateau,
    enum_plateau,
    iter_cc,
    iter_dcc,
    iter_dplateau,
    iter_plateau,
    lateral_area_voxels,
    project,
    unproject,
)
from .verify import RunReport, run_suite

__version__ = "0.1.0"

"""Variation calculus on finite samples of plane compacts.

Exact curve-variation / variation-factor combinatorics, one-dimensional
variation and absolute-continuity moduli, continuous piecewise-planar
interpolation on triangulations, polynomial approximation pipelines, and
extension/joining operators, with a batch CLI front-end.
"""

__version__ = "0.1.0"

from .geom import (  # noqa: F401
    AffineMap,
    Line,
    P,
    Point2,
    Polygon,
    Rectangle,
    Side,
    Triangle,
    Triangulation,
    grid_triangulation,
    inradius,
    side_of,
)
from .variation import (  # noqa: F401
    PlanarCoeffs,
    SampledFunction,
    SearchConfig,
    VarEstimate,
    cvar,
    var_collinear,
    var_exact_small,
    var_planar,
    var_planar_estimate,
    var_search,
    vf_exact,
    vf_line,
)
from .onedim import (  # noqa: F401
    RealFunction1D,
    RealSample,
    ac_modulus,
    cantor_level,
    iota_extend,
    make_example,
    reciprocal_alternating,
    var_1d,
)
from .ctpp import (  # noqa: F401
    BumpSpec,
    CtppFunction,
    CtppSum,
    classify_point,
    eval_ctpp,
    extend_to_polygon,
    interpolate_grid,
    make_bumps,
    pyramid_bump,
    triangle_lipschitz_report,
    validate_ctpp,
)
from .approx import (  # noqa: F401
    C2Oracle,
    Poly2,
    bernstein2,
    c2_to_poly,
    match_points,
)
from .joins import (  # noqa: F401
    ConvexCurve,
    SectorSpec,
    graph_fill,
    join_report,
    pasting_extend,
    psi_pullback,
    sector_fill,
)
from .suite import run_suite  # noqa: F401

"""Strong Bruhat order on permutations and its two-dimensional persistence process.

The package is organised around a small set of value types (permutations,
prefix-count tables, hypergeometric parameter triples, Monte Carlo estimate
records) and pure functions over them:

- :mod:`bruhatmc.perms`      permutations, dominance tables, symmetry maps,
  reproducible counter-based sampling streams, batched row draws
- :mod:`bruhatmc.order`      strong/weak Bruhat comparability, cover relations,
  exact comparable-pair counts by a dynamic program over rows
- :mod:`bruhatmc.zprocess`   the prefix-difference process Z(a,b), rectangle
  sums and windowed maximum statistics
- :mod:`bruhatmc.dists`      exact hypergeometric machinery, tail bounds and
  the binomial comparison ratio
- :mod:`bruhatmc.estimators` Monte Carlo estimators, scaling fits, Gaussian
  sheet persistence, the Li-Shao correlation constant
- :mod:`bruhatmc.fkg`        FKG positive-correlation checks over up-sets of
  the Bruhat order, exact corner-event probabilities (row-transfer count)
- :mod:`bruhatmc.cli`        command line front end with run manifests
"""

__version__ = "0.1.0"

from .perms import (
    Permutation,
    DominanceTable,
    trial_stream,
    sample_uniform,
    dominance_table,
    inversion_count,
    symmetry_map,
    parse_permutation,
    format_permutation,
)
from .order import (
    ComparabilityVerdict,
    ExactCount,
    is_leq_strong,
    is_leq_weak,
    covering_successors,
    exact_comparability_count,
)
from .zprocess import (
    ZTable,
    Rectangle,
    z_table,
    persistence_holds,
    rect_sum,
    decompose_check,
    max_rect_stat,
    max_strip_stat,
)
from .dists import (
    HyperGeomParams,
    FrameCounts,
    hypergeom_pmf,
    hypergeom_pmf_exact,
    hypergeom_moments,
    hypergeom_sample,
    bernstein_bound,
    box_count_law_check,
    frame_conditional_params,
    bernoulli_ratio,
)
from .estimators import (
    EstimateResult,
    ScalingFit,
    SheetGrid,
    wilson_interval,
    estimate_comparability,
    estimate_box_persistence,
    fit_scaling,
    sheet_grid,
    sheet_persistence,
    psi_fit,
    li_shao_sum,
)
from .fkg import (
    UpSet,
    ProductEvent,
    random_upset,
    upward_closure,
    fkg_check,
    fkg_product_check,
    corner_events_equal,
)

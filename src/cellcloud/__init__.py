"""cellcloud: whole-slide cell point clouds as first-class data.

Ingest per-patch cell detections into typed 2-D point clouds, embed each
cell by its neighborhood density structure, reduce a cloud to a single
descriptor with a hierarchical group-attention forward pass, and score
clouds for survival analysis (CPS/MCPS, Kaplan-Meier, log-rank, C-index).
"""

from .core import (
    CellCloud,
    CellCloudError,
    CellType,
    DimMismatch,
    EmptyCloud,
    EmptyGroup,
    N_TYPES,
    TooFewCells,
    TooFewPoints,
    read_cloud,
    read_features,
    validate_cloud,
    write_cloud,
    write_features,
)
from .ingest import (
    DuplicateCell,
    ImpreciseOrigin,
    MalformedRow,
    OutOfPatch,
    OverlappingPatches,
    PatchDetections,
    UnknownType,
    grid_sample,
    load_patch_dir,
    merge_boundary_cells,
    parse_cells_csv,
)
from .spatial import (
    GridOverflow,
    NeighborCounts,
    SpatialIndex,
    build_index,
    count_in_radii,
    fps,
    knn_group,
    mean_nn_distance,
)
from .nie import DegenerateScale, NieParams, embed, radii_schedule
from .hsp import (
    BlockWeights,
    DescriptorOverflow,
    HspConfig,
    HspWeights,
    LevelTrace,
    LevelWeights,
    combine_appearance,
    filter_mask,
    hsp_forward,
    init_weights,
    load_weights,
    save_weights,
    similarity_scores,
    vector_attention,
)
from .clinical import (
    ALPHA_PRESETS,
    AlphaWeights,
    BoxSpec,
    DegenerateRatio,
    EmptyCohort,
    ExhaustedResampling,
    KMeansResult,
    KmPoint,
    MalformedCohort,
    NoComparablePairs,
    NoEvents,
    SurvivalCohort,
    c_index,
    cps,
    km_curve,
    kmeans,
    logrank,
    mcps,
    median_split,
    read_cohort_csv,
    silhouette,
    synth_cohort,
    synth_toy_set,
    write_cohort_csv,
    write_km_csv,
)

__version__ = "0.1.0"

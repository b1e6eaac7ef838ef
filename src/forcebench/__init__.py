"""Virtual test bench and reliability analysis for a piezoresistive
three-axial silicon force sensor: destructive ramps and long-term cycling
on seeded virtual specimens, stiffness extraction, failure detection and
localization, Weibull fracture statistics and tolerable-load budgets.
"""

__version__ = "0.1.0"

from .analysis import (
    CycleLog,
    DegradationReport,
    FailureEvent,
    FleetSummary,
    LoadCurve,
    classify_failures,
    degradation_report,
    detect_failures,
    extract_stiffness,
    first_failures,
    fleet_summary,
    fracture_point,
    overload_factors,
    reduce_block,
)
from .bench import (
    DynamicProtocol,
    FleetParams,
    RigConfig,
    StaticProtocol,
    fleet_blocks,
    run_dynamic,
    run_fleet,
    run_static,
    sample_specimen,
)
from .errors import (
    DataFormatError,
    DegenerateBridgeError,
    DegenerateDataError,
    ForceBenchError,
    InsufficientDataError,
    NoFailureError,
    OverloadError,
    ProtocolLimitError,
    SupplyLossError,
)
from .sensor import (
    HingeId,
    PiezoCoefficients,
    SensorSpec,
    SensorState,
    StressState,
    bridge_offset,
    bridge_offsets_at_load,
    check_hinge_failures,
    displacement_at_force,
    force_at_displacement,
    hinge_stress,
    resistivity_change,
)
from .weibull import (
    WeibullFit,
    fit_weibull,
    invert_failure_probability,
    median_ranks,
    r_parameter,
    weibull_cdf,
    weibull_mean_std,
)

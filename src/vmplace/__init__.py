"""Energy-minimizing static placement of timed VMs onto a host fleet."""

from .errors import (
    BudgetExceededError,
    ConfigError,
    InfeasiblePlacementError,
    NoFeasibleAssignmentError,
    NoFeasibleHostError,
    ParseError,
    UnrepairableError,
    VmPlaceError,
)
from .model import (
    MIPS_OVERFLOW,
    PE_OVERFLOW,
    HostSpec,
    Placement,
    ProblemInstance,
    Violation,
    VmRequest,
    check_feasibility,
)
from .power import (
    BUILTIN_MODELS,
    KWH_PER_JOULE,
    DELL_R620,
    IBM_X3250,
    EnergyEvaluator,
    EnergyReport,
    PowerModel,
    integrate_energy,
    interpolate_power,
    utilization,
)
from .schedulers import (
    FITNESS_ENERGY,
    FITNESS_SNAPSHOT_POWER,
    RNG_ALGORITHM,
    GaConfig,
    SolveResult,
    bfd_schedule,
    crossover,
    exact_schedule,
    fitness,
    from_allocation_tree,
    gapa_schedule,
    move_host,
    mutate,
    placement_from_genes,
    repair,
    select_parents,
    to_allocation_tree,
)
from .workload import (
    DEFAULT_FLEET,
    HOST_CLASS_DEFAULTS,
    SAMPLE_TIMETABLE,
    TIMETABLE_HEADER,
    FleetEntry,
    FleetSpec,
    SlotConfig,
    TimetableRow,
    build_fleet,
    expand,
    fleet_spec_from_json,
    fleet_to_json,
    load_fleet,
    parse_timetable,
)

__version__ = "0.1.0"

"""Gate-level adder laboratory.

Build ripple-carry, carry-lookahead and carry-increment adders as
immutable gate netlists; simulate them on 64-case bit-planes,
verify them exhaustively or randomly against integer addition, time
them under pluggable delay models, and export JSON / DOT / Verilog /
CSV views.  ``python -m adderlab.cli`` or the ``adderlab`` script gives
the same workflows on the command line.
"""

from .analysis import (
    AreaReport,
    ComparisonRow,
    ComparisonTable,
    DelayReport,
    area_report,
    compare,
    delay_report,
    format_comparison,
)
from .builders import (
    AdderSpec,
    Architecture,
    adder_port_names,
    build_adder,
    build_cia,
    build_cla_block,
    build_full_adder,
    build_half_adder,
    build_incrementer,
    build_rca,
)
from .errors import (
    AdderLabError,
    BadFanIn,
    BlockTooLarge,
    CombinationalLoop,
    DuplicatePortName,
    EmptySpecList,
    ExhaustiveTooLarge,
    FanInViolation,
    InvalidAssignment,
    InvalidIdentifier,
    InvalidParameter,
    InvariantViolation,
    MissingInput,
    MissingStageMetadata,
    NameCollisionAfterSanitization,
    NetlistFrozen,
    OperandOutOfRange,
    ParseError,
    PortContractViolation,
    UnknownGateKind,
    UnknownInput,
    UnknownNet,
    UnsupportedVersion,
    ZeroWidth,
)
from .io import (
    export_csv,
    export_dot,
    export_json,
    export_report,
    export_verilog,
    import_json,
)
from .netlist import (
    DelayModel,
    FaninPenalty,
    Gate,
    GateKind,
    NetId,
    Netlist,
    NetlistBuilder,
)
from .verify import (
    EquivalenceReport,
    Failure,
    boundary_cases,
    check_exhaustive,
    check_random,
    oracle_add,
    probe_invariant_carry_exclusive,
)

__version__ = "0.1.0"

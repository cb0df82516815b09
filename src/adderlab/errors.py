"""Exception types raised across the library.

Everything inherits from AdderLabError so callers can catch library
failures with one except clause; the CLI maps them to exit code 2.
"""


class AdderLabError(Exception):
    """Base class for all errors raised by this library."""


class InvalidParameter(AdderLabError, ValueError):
    """An argument is outside its domain: a width, count, seed or index that
    is no integer, a negative sample count or seed, a non-bit constant, a
    delay that is no finite real >= 0, or an unknown block kind."""


# -- netlist construction and analysis ------------------------------------

class FanInViolation(AdderLabError):
    """Gate input count breaks the arity rule of its kind."""


class UnknownNet(AdderLabError):
    """Net handle is foreign to this netlist or out of range."""


class NetlistFrozen(AdderLabError):
    """Mutation attempted on a builder that has already finished."""


class DuplicatePortName(AdderLabError):
    """Port name already declared in the same direction."""


class CombinationalLoop(AdderLabError):
    """A gate reads a net driven by itself or a later gate, so the gates are
    cyclic or out of dependency order.  ``gates`` is (reader, driver)."""

    def __init__(self, message: str, gates=()):
        super().__init__(message)
        self.gates = tuple(gates)


class MissingInput(AdderLabError):
    """Evaluation assignment lacks a declared input port."""


class UnknownInput(AdderLabError):
    """Evaluation assignment names a port that does not exist."""


class InvalidAssignment(AdderLabError, ValueError):
    """Evaluation assignment holds a non-bit value or arrays of clashing shapes."""


# -- adder builders --------------------------------------------------------

class ZeroWidth(AdderLabError):
    """Requested operand width (or block size) is below one."""


class BadFanIn(AdderLabError):
    """A fan-in limit below two cannot realize multi-input gates."""


class BlockTooLarge(AdderLabError):
    """Carry-increment block size exceeds the adder width."""


# -- analysis --------------------------------------------------------------

class EmptySpecList(AdderLabError):
    """compare() was handed nothing to compare."""


# -- verification ----------------------------------------------------------

class OperandOutOfRange(AdderLabError):
    """Oracle operand does not fit the stated width, or cin is not a bit."""


class ExhaustiveTooLarge(AdderLabError):
    """Input space exceeds the exhaustive-check case cap."""


class PortContractViolation(AdderLabError):
    """Netlist does not expose the adder port contract for the width."""


class MissingStageMetadata(AdderLabError):
    """Netlist carries no per-stage carry metadata to probe."""


# -- interchange and export -------------------------------------------------

class ParseError(AdderLabError):
    """Document is not well-formed (bad JSON, missing or mistyped fields)."""


class UnknownGateKind(AdderLabError):
    """Document names a gate kind this library does not define."""


class UnsupportedVersion(AdderLabError):
    """Document format_version is not supported."""


class InvariantViolation(AdderLabError):
    """A well-formed document, or the gates and ports handed to ``Netlist``,
    describe an illegal netlist, such as one with a net of two sources."""


class NameCollisionAfterSanitization(AdderLabError):
    """Two distinct names sanitize to the same Verilog identifier."""


class InvalidIdentifier(AdderLabError, ValueError):
    """A name is no Verilog identifier even after sanitizing, e.g. '1a' or ''."""

"""Exception hierarchy for the NCL/C3 reproduction.

Every subsystem raises a subclass of :class:`ReproError` so callers can
distinguish user-program errors (bad NCL source, rejected programs) from
internal invariant violations (which raise plain ``AssertionError``).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class SourceLocation:
    """A position in an NCL source file (1-based line/column)."""

    __slots__ = ("filename", "line", "column")

    def __init__(self, filename: str = "<ncl>", line: int = 0, column: int = 0):
        self.filename = filename
        self.line = line
        self.column = column

    def __repr__(self) -> str:
        return f"{self.filename}:{self.line}:{self.column}"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SourceLocation):
            return NotImplemented
        return (self.filename, self.line, self.column) == (
            other.filename,
            other.line,
            other.column,
        )

    def __hash__(self) -> int:
        return hash((self.filename, self.line, self.column))


class NclError(ReproError):
    """An error in an NCL source program.

    Carries an optional :class:`SourceLocation` that is rendered in the
    message, mirroring a conventional compiler diagnostic. ``code`` is a
    stable diagnostic code (``NCL0412``-style; subclasses provide a
    :attr:`default_code`) and ``length`` the caret-span width in columns
    -- both consumed by :mod:`repro.diag` when the front end runs in
    error-recovery mode.
    """

    #: fallback diagnostic code for errors raised without an explicit one
    default_code = "NCL0001"

    def __init__(
        self,
        message: str,
        loc: "SourceLocation | None" = None,
        code: "str | None" = None,
        length: int = 1,
    ):
        self.loc = loc
        self.message = message
        self.code = code
        self.length = length
        super().__init__(f"{loc}: {message}" if loc else message)


class NclSyntaxError(NclError):
    """Lexical or syntactic error in NCL source."""

    default_code = "NCL0101"


class NclTypeError(NclError):
    """Semantic/type error in NCL source."""

    default_code = "NCL0400"


class IrError(ReproError):
    """Malformed NIR detected by the verifier or a pass."""


class ArtifactError(ReproError):
    """A serialized ``repro.nclc/2`` compile artifact is malformed,
    has an unsupported schema version, or cannot be reconstructed."""


class ConformanceError(ReproError):
    """Program is valid NCL but cannot map to PISA (nclc stage 1).

    Examples: loops without provably constant trip counts, recursion,
    dynamic memory, unsupported operations in switch code.
    """


class BackendRejection(ReproError):
    """The P4 backend rejected the generated program against a chip profile.

    The paper (S5) requires the final P4 program to be given to a backend
    that may accept or reject it; this is the reject path, with structured
    feedback in :attr:`reasons`.
    """

    def __init__(self, reasons: "list[str]"):
        self.reasons = list(reasons)
        super().__init__("backend rejected program: " + "; ".join(self.reasons))


class AndError(ReproError):
    """Invalid Abstract Network Description."""


class DeployError(ReproError):
    """Malformed deployment manifest (the check-deploy input)."""


class MappingError(ReproError):
    """The AND overlay could not be mapped onto the physical topology."""


class NcpError(ReproError):
    """Malformed NCP packet or window framing violation."""


class RuntimeApiError(ReproError):
    """Misuse of the libncrt host API (e.g. mask/signature mismatch)."""


class SimulationError(ReproError):
    """Network-simulator misconfiguration (unknown node, no route, ...)."""


class PisaError(ReproError):
    """Runtime fault inside the PISA pipeline simulator."""

"""Exception types shared across the pipeline."""


class ChemspanError(Exception):
    """Base class for all package-specific errors."""


class CorpusFormatError(ChemspanError):
    """A corpus file line violates the tab-separated schema."""

    def __init__(self, path, line_no, field, message):
        self.path = str(path)
        self.line_no = line_no
        self.field = field
        super().__init__(f"{self.path}:{line_no}: bad {field}: {message}")


class DanglingReferenceError(ChemspanError):
    """A record points at a document or entity id that does not exist."""

    def __init__(self, doc_id, ref, message=""):
        self.doc_id = doc_id
        self.ref = ref
        detail = f" ({message})" if message else ""
        super().__init__(f"document {doc_id!r}: dangling reference {ref!r}{detail}")


class ContractViolationError(ChemspanError):
    """A pluggable component returned output that violates its contract."""


class OverLengthError(ChemspanError):
    """Input exceeds the encoder maximum; the caller must window it down."""


class TrainingDivergedError(ChemspanError):
    """Training loss became non-finite."""

    def __init__(self, epoch, step, value):
        self.epoch = epoch
        self.step = step
        super().__init__(f"non-finite loss {value!r} at epoch {epoch}, step {step}")


class NonFiniteError(ChemspanError):
    """A numeric routine encountered NaN or infinity."""


class CheckpointError(ChemspanError):
    """A checkpoint file is malformed, corrupt, or holds the wrong model."""


class ConfigError(ChemspanError, ValueError):
    """A config file or value is malformed; the message names the key."""

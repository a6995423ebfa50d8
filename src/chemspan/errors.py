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
    """A record points at a document or entity id that does not exist.

    ``where``, when given, names the file (and line) holding the record.
    """

    def __init__(self, doc_id, ref, message="", where=None):
        self.doc_id = doc_id
        self.ref = ref
        detail = f" ({message})" if message else ""
        prefix = f"{where}: " if where else ""
        super().__init__(f"{prefix}document {doc_id!r}: dangling reference {ref!r}{detail}")


class OffsetError(ChemspanError, ValueError):
    """A character interval lies outside the text it points into."""


class ContractViolationError(ChemspanError):
    """Sentence boundaries or predictions break the contract of the stage reading them."""


class OverLengthError(ChemspanError):
    """Input exceeds the encoder maximum; the caller must window it down."""


class TrainingDivergedError(ChemspanError):
    """Training loss became non-finite.

    ``last_loss`` is the last finite epoch mean loss, or None before the first
    epoch ends; ``grad_norm`` is the global L2 norm of the diverging batch's
    gradients.
    """

    def __init__(self, epoch, step, value, last_loss=None, grad_norm=None):
        self.epoch = epoch
        self.step = step
        self.last_loss = last_loss
        self.grad_norm = grad_norm
        super().__init__(f"non-finite loss {value!r} at epoch {epoch}, step {step}; "
                         f"last finite epoch loss {last_loss!r}, gradient norm {grad_norm!r}")


class NonFiniteError(ChemspanError):
    """A numeric routine encountered NaN or infinity."""


class CheckpointError(ChemspanError):
    """A checkpoint file is malformed, corrupt, or holds the wrong model."""


class ConfigError(ChemspanError, ValueError):
    """A config file or value is malformed; the message names the key."""

"""Exception types shared across the pipeline."""


class CorpusForgeError(Exception):
    """Base class for all corpusforge errors."""


class ConfigError(CorpusForgeError):
    """Bad configuration or usage: unknown preset, missing model file,
    unknown option, mismatched model dimensions, etc. Exit code 1."""


class RecordError(CorpusForgeError):
    """A single bad record in a shard. Carries enough context to report
    and skip the record without aborting the shard."""

    def __init__(self, message, line_number=None):
        super().__init__(message)
        self.line_number = line_number

    def __str__(self):
        base = super().__str__()
        if self.line_number is not None:
            return f"line {self.line_number}: {base}"
        return base


class DataError(CorpusForgeError):
    """Shard-level data failure (e.g. error rate above threshold).
    Exit code 2."""

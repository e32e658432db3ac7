"""The two failures a command reports, one per exit code: ConfigError
(exit 1) and DataError (exit 2)."""


class ConfigError(Exception):
    """Bad configuration or usage: unknown preset, missing model file,
    unknown option, mismatched model dimensions, a rule on a signal the
    records lack, etc. Exit code 1."""


class DataError(Exception):
    """Bad input data: a malformed record or sidecar line, a shard whose
    share of bad records is above the threshold, etc. Exit code 2."""

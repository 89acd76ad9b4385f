"""Exception hierarchy shared across the pipeline.

Each class carries the process exit code the CLI maps it to: 1 for
usage/configuration problems, 2 for ingestion failures, 3 for numeric
failures (a non-finite loss or gradient in training).
"""


class DeepAgentError(Exception):
    exit_code = 1


class ConfigurationError(DeepAgentError):
    """Bad layer/pipeline configuration (shape mismatch, invalid option)."""

    exit_code = 1


class UsageError(DeepAgentError):
    """API precondition violated by the caller."""

    exit_code = 1


class IngestionError(DeepAgentError):
    """Malformed or missing input file."""

    exit_code = 2


class TrainingError(DeepAgentError):
    """Numeric failure while optimizing (non-finite gradient or loss)."""

    exit_code = 3

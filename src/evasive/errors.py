"""Shared exception types, mapped to CLI exit codes in evasive.__main__."""


class ParameterError(ValueError):
    """Invalid or out-of-contract parameters (CLI exit code 2)."""


class BudgetExceeded(RuntimeError):
    """An enumeration would exceed the configured budget (CLI exit code 3)."""

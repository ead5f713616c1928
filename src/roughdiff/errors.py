"""Exception types shared across the package.

Every precondition the package checks raises :class:`Error`, a
ValueError, so callers (and the command line driver) catch one class.
The two subclasses are the refusals the command line prints apart.
"""


class Error(ValueError):
    """A violated precondition: bad data, a bad name or an unmet gate."""


class ConditionViolated(Error):
    """An integrability condition required by a bound check is violated;
    ``evidence`` holds the condition's ladder."""


class ConfigError(Error):
    """Scenario configuration missing or malformed."""

"""Exception types shared across the package.

Validation problems (bad arguments, malformed configs) raise ValueError;
anything that goes wrong *during* a numerical computation raises
NumericalError so callers (and the CLI exit-code contract) can tell the
two apart.
"""


class NumericalError(RuntimeError):
    """A computation failed numerically (overflow, instability, mass loss)."""

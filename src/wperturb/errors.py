"""Exception types shared across the package."""


class SpaceMismatchError(ValueError):
    """Operands live on different finite spaces (or point sets disagree)."""


class HypothesisViolation(ValueError):
    """A theorem's standing hypotheses fail for the given inputs.

    Raised instead of clamping: a bound evaluated outside its validity
    region is meaningless, so callers must see the failure explicitly.
    """


class NonUniqueStationaryError(HypothesisViolation):
    """The kernel's eigenvalue-1 space is not one-dimensional."""


class NoContractionError(HypothesisViolation):
    """No contraction certificate at the requested horizon (tau >= 1)."""


class ConfigError(ValueError):
    """Experiment config file fails schema validation."""

"""Domain errors shared across the package."""

__all__ = ["DegenerateRatioError", "DivergenceError"]


class DegenerateRatioError(ValueError):
    """A geometric closed form was evaluated at ratio 1, where 1 - ratio = 0.

    Partial sums still exist there (they grow linearly); use the recurrence
    or direct accumulation instead of the closed form.
    """


class DivergenceError(ValueError):
    """A finite limit was requested from a sequence whose ratio is >= 1."""

"""Exception types shared across the simulation modules."""


class ResomemError(Exception):
    """Base class for all package-specific errors."""


class DimensionError(ResomemError):
    """Fock-space truncation too small, or mismatched dimensions."""


class DomainError(ResomemError):
    """Parameter outside its mathematical domain."""


class ContractError(ResomemError):
    """A caller-side precondition (e.g. normalization) was violated."""


class NumericalAccuracyWarning(UserWarning):
    """Raised via warnings.warn when a result is computed but misses its
    accuracy target; three places raise it:
    - `cli`: a `pulse` whose `effective_Tf` misses `target_Tf` by more than
      `cli.PULSE_TF_TOL`
    - `memory`: a write or read pulse whose clipped gamma samples carry more
      than `memory.NORM_TRUNCATION` of the wavepacket's weight
    - `tomo`: an ML reconstruction from one phase, or one that stops short of
      `tomo.MLE_GAP` (out of iterations, or no line-search increase left)
    """

"""Exception hierarchy shared by all matchdyn modules."""


class MatchdynError(Exception):
    """Base class for all errors raised by matchdyn."""


class DomainError(MatchdynError):
    """A coordinate tuple is not a valid element of its group or chart."""


class TagError(MatchdynError):
    """Vectors from mismatched groups or dual spaces were combined."""


class EvaluationError(MatchdynError):
    """A user-supplied function returned a non-finite value."""

    def __init__(self, msg, point=None):
        super().__init__(msg)
        self.point = point


class SolverFailure(MatchdynError):
    """A Newton solve failed.  Carries the last residual norm and Jacobian
    condition estimate the solver computed, and ``step``, the index of the
    arrow being solved, once a trajectory loop has named it."""

    def __init__(self, msg, residual_norm=None, cond=None):
        super().__init__(msg)
        self.residual_norm = residual_norm
        self.cond = cond
        self.step = None

    def __str__(self):
        text = super().__str__()
        return text if self.step is None else "step %d: %s" % (self.step, text)


class SingularJacobian(SolverFailure):
    """Newton Jacobian is numerically singular (condition estimate > 1e14)."""


class NoConvergence(SolverFailure):
    """Newton solve failed: budget exhausted or a state left its chart."""


class NotComposable(MatchdynError):
    """Two groupoid arrows do not satisfy beta(x) = alpha(y)."""

    def __init__(self, beta_x, alpha_y):
        super().__init__(
            "arrows not composable: beta(x)=%s, alpha(y)=%s" % (beta_x, alpha_y)
        )
        self.beta_x = beta_x
        self.alpha_y = alpha_y


class BasePointMismatch(MatchdynError):
    """An algebroid fiber element was used at the wrong base point."""


class FormulaMismatch(MatchdynError):
    """Closed-form and generic assemblies of the same quantity disagree."""

"""Exception hierarchy shared across the package."""


class BeliefHtnError(Exception):
    """Base class for all package errors."""


class UnknownAttribute(BeliefHtnError):
    """Attribute symbol or arity not declared in the universe."""


class BadArgument(BeliefHtnError):
    """An argument is outside what it may name: an attribute argument not in
    its declared group, or a call argument such as an unknown solver mode."""


class BadValue(BeliefHtnError):
    """A value is outside the attribute's declared value domain."""


class UniverseMismatch(BeliefHtnError):
    """Two belief states were built from different declaration universes."""


class NotApplicable(BeliefHtnError):
    """Operator applied in a state where its precondition fails."""


class NotRelevant(BeliefHtnError):
    """Method does not unify with the task it was asked to decompose."""


class CycleIntroduced(BeliefHtnError):
    """A precedence relation is cyclic.

    Raised where a cycle can enter: a method's subtask order, checked when a
    :class:`~beliefhtn.htn.MethodSchema` or a
    :class:`~beliefhtn.htn.GroundedMethod` is constructed, and the initial
    network's order, checked by :meth:`~beliefhtn.htn.TaskNetwork.build`.
    Decomposition cannot introduce a cycle (see :func:`~beliefhtn.htn.decompose`).
    """


class BadRule(BeliefHtnError):
    """A value-dependent placement rule referenced a non-place value."""


class Unsolvable(BeliefHtnError):
    """No robot strategy covers every emulated human choice."""


class DepthExceeded(BeliefHtnError):
    """No policy found after the search pruned a branch at its depth bound,
    or after a plan its bundle does not certify expanded more than
    ``planner.MAX_NODES`` states."""


class DomainSyntaxError(BeliefHtnError):
    """Domain file rejected by the parser, with source position."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class UnknownDomain(BeliefHtnError):
    """Requested builtin domain name is not recognized."""


class SpecMismatch(BeliefHtnError):
    """Initial-state generator spec names a flip outside its world
    dimensions, or repeats an attribute within its world or flip ones."""

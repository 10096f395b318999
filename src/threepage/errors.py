"""Exception types shared across the package.

The CLI maps these onto exit codes: syntax errors from the PD reader are
exit 1 and structural validation failures exit 2.  Exit 3 marks a
verification failure: a row whose presentation the verifiers rejected
(verified = false), or a bug.  An InternalError is a bug like any other
exception: its row fails as ``internal: InternalError: <message>``.
"""


class PDSyntaxError(ValueError):
    """The input text is not a well-formed PD expression."""


class DiagramError(ValueError):
    """A diagram violates a structural requirement of the operation."""


class InternalError(RuntimeError):
    """An invariant the construction relies on was violated; a bug."""

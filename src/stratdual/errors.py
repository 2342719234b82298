"""Exception hierarchy with stable machine-readable codes.

Every error that can cross the CLI boundary carries a ``code`` attribute that
is emitted verbatim in reports, so scripted callers never have to parse
messages.
"""


class StratdualError(Exception):
    code = "INTERNAL"


class ParseError(StratdualError):
    code = "PARSE"


class NotPseudomanifoldError(StratdualError):
    code = "NOT_PSEUDOMANIFOLD"


class LinkDisconnectedError(StratdualError):
    code = "LINK_DISCONNECTED"


class NonOrientableError(StratdualError):
    code = "NON_ORIENTABLE"


class BadPerversityError(StratdualError):
    code = "BAD_PERVERSITY"


class NotComplementaryError(StratdualError):
    code = "NOT_COMPLEMENTARY"


class ResourceExhaustedError(StratdualError):
    """The run ran out of memory: the input is too large for this process,
    which is neither bad input nor an engine bug."""

    code = "RESOURCE_EXHAUSTED"


class InternalExactnessError(StratdualError):
    """An exactness or commutation invariant failed at build time.

    This always signals a bug in the engine, never bad user input; it is
    raised loudly instead of being folded into a failing verdict.
    """

    code = "INTERNAL_EXACTNESS"

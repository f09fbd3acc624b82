"""Exception types shared across the kernel."""


class TorsionlabError(Exception):
    """Base class for all kernel errors."""


class VariableOutOfRange(TorsionlabError):
    """A monomial references a variable index outside its ring."""


class InvalidPresentation(TorsionlabError, ValueError):
    """A rewrite rule or ring presentation fails validation."""


class InvalidSchedule(TorsionlabError, ValueError):
    """A family level or replication window is out of range."""


class RingMismatch(TorsionlabError):
    """Two operands live in different ring presentations."""


class NonConfluent(TorsionlabError):
    """A rewrite system produced distinct normal forms."""


class NotMonomialMode(TorsionlabError):
    """Operation requires an exact monomial-mode ideal."""


class UnitIdeal(TorsionlabError):
    """Operation requires a proper ideal."""


class PatternError(TorsionlabError):
    """A script template expands to a bad index, exponent or rule."""


class UnknownTag(TorsionlabError):
    """No registered example family under this tag."""


class ParseError(TorsionlabError):
    """Script syntax or semantic error, carrying source location."""

    def __init__(self, message, line, column, expected=()):
        super().__init__("%d:%d: %s" % (line, column, message))
        self.message = message
        self.line = line
        self.column = column
        self.expected = tuple(expected)

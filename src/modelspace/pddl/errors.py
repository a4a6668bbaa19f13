"""Errors raised by the PDDL front end."""


class PddlError(Exception):
    pass


class PddlSyntaxError(PddlError):
    """Malformed s-expression input. Carries the 1-based line/column, and
    as `reason` the message without them."""

    def __init__(self, message, line=None, column=None):
        self.reason = message
        self.line = line
        self.column = column
        if line is not None:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)


class UnsupportedFeature(PddlError):
    """Input uses PDDL features outside the :strips + :typing subset."""


class ArityMismatch(PddlError):
    pass


class UnknownPredicate(PddlError):
    pass


class UnknownType(PddlError):
    pass


class UnknownObject(PddlError):
    pass


class TypeMismatch(PddlError):
    pass


class GroundingBlowup(PddlError):
    """Ground atom or action count exceeded the configured cap."""
